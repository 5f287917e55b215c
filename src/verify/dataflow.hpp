// Generic dataflow framework over the netlist graph.
//
// Two worklist solvers (forward along fan-in edges, backward along fanout
// edges) parameterized by an abstract domain, plus the two domains the
// key-dependency analyzer (verify/keydep) is built from: small-support
// functions (forward) and structural observability (backward). Ternary
// constants are not a domain here: the attacker-view constant wave is
// sim/partial_eval's PartialEvaluator over zero LUT knowledge, and the
// support domain refines it — every ternary-definite cell it does not cut
// is the same constant function (pinned by tests/dataflow_test.cpp). The
// support transfer models the *attacker view* of a hybrid netlist: a
// reconfigurable LUT's mask is secret, so its output is a fresh variable.
//
// The combinational subgraph is a DAG (DFF outputs are sources, DFF D pins
// are sinks), so a single pass in topo order converges; the worklist keeps
// the solvers correct when a client re-solves after refining source values,
// and evaluation order is fixed by topo rank so results are deterministic
// regardless of fanout-list or hash-map iteration order.
#pragma once

#include <cassert>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace stt {

// ---------------------------------------------------------------------------
// Solvers
// ---------------------------------------------------------------------------

/// Forward analysis: values flow from sources (primary inputs, constants,
/// flip-flop outputs) to sinks. Domain concept:
///
///   struct Domain {
///     using Value = ...;                 // default-constructible
///     Value source(const Netlist&, CellId) const;
///     Value transfer(const Netlist&, CellId, std::span<const Value>) const;
///     static bool equal(const Value&, const Value&);
///   };
template <class Domain>
class ForwardDataflow {
 public:
  using Value = typename Domain::Value;

  ForwardDataflow(const Netlist& nl, Domain domain = {})
      : nl_(&nl), domain_(std::move(domain)) {}

  const std::vector<Value>& solve() {
    const Netlist& nl = *nl_;
    const std::vector<CellId> order = nl.topo_order();
    rank_.assign(nl.size(), 0);
    for (std::size_t i = 0; i < order.size(); ++i) {
      rank_[order[i]] = static_cast<std::uint32_t>(i);
    }
    values_.assign(nl.size(), Value{});
    in_list_.assign(nl.size(), true);
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        work;
    for (const CellId id : order) work.push(keyed(id));

    std::vector<Value> fin;
    while (!work.empty()) {
      const CellId id = static_cast<CellId>(work.top() & 0xffffffffull);
      work.pop();
      if (!in_list_[id]) continue;  // stale duplicate entry
      in_list_[id] = false;

      const Cell& c = nl.cell(id);
      Value next;
      if (is_source(c.kind)) {
        next = domain_.source(nl, id);
      } else {
        fin.clear();
        for (const CellId f : c.fanins) fin.push_back(values_[f]);
        next = domain_.transfer(nl, id, std::span<const Value>(fin));
      }
      if (Domain::equal(values_[id], next)) continue;
      values_[id] = std::move(next);
      for (const CellId reader : c.fanouts) {
        // Edges into a DFF D pin are sequential sinks, not forward edges;
        // the DFF output is re-seeded by source(), never by its driver.
        if (nl.cell(reader).kind == CellKind::kDff) continue;
        if (!in_list_[reader]) {
          in_list_[reader] = true;
          work.push(keyed(reader));
        }
      }
    }
    return values_;
  }

  const std::vector<Value>& values() const { return values_; }
  const Value& value(CellId id) const {
    assert(id < values_.size());
    return values_[id];
  }
  const Domain& domain() const { return domain_; }
  Domain& domain() { return domain_; }

 private:
  static bool is_source(CellKind k) {
    return k == CellKind::kInput || k == CellKind::kDff;
  }
  std::uint64_t keyed(CellId id) const {
    return (static_cast<std::uint64_t>(rank_[id]) << 32) | id;
  }

  const Netlist* nl_;
  Domain domain_;
  std::vector<Value> values_;
  std::vector<std::uint32_t> rank_;
  std::vector<char> in_list_;
};

/// Backward analysis: values flow from observation points (primary outputs,
/// flip-flop D pins) back toward sources. A cell's value is the join of its
/// own initial value and one contribution per reader edge. Domain concept:
///
///   struct Domain {
///     using Value = ...;
///     Value init(const Netlist&, CellId) const;      // e.g. observed at POs
///     Value transfer(const Netlist&, CellId reader, int slot,
///                    const Value& reader_value) const;
///     Value join(const Value&, const Value&) const;
///     static bool equal(const Value&, const Value&);
///   };
template <class Domain>
class BackwardDataflow {
 public:
  using Value = typename Domain::Value;

  BackwardDataflow(const Netlist& nl, Domain domain = {})
      : nl_(&nl), domain_(std::move(domain)) {}

  const std::vector<Value>& solve() {
    const Netlist& nl = *nl_;
    const std::vector<CellId> order = nl.topo_order();
    rank_.assign(nl.size(), 0);
    // Reverse topo rank: sinks first.
    for (std::size_t i = 0; i < order.size(); ++i) {
      rank_[order[i]] = static_cast<std::uint32_t>(order.size() - 1 - i);
    }
    values_.assign(nl.size(), Value{});
    in_list_.assign(nl.size(), true);
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        work;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      work.push(keyed(*it));
    }

    while (!work.empty()) {
      const CellId id = static_cast<CellId>(work.top() & 0xffffffffull);
      work.pop();
      if (!in_list_[id]) continue;
      in_list_[id] = false;

      const Cell& c = nl.cell(id);
      Value next = domain_.init(nl, id);
      for (const CellId reader : c.fanouts) {
        const Cell& rc = nl.cell(reader);
        for (int slot = 0; slot < rc.fanin_count(); ++slot) {
          if (rc.fanins[static_cast<std::size_t>(slot)] != id) continue;
          next = domain_.join(
              next, domain_.transfer(nl, reader, slot, values_[reader]));
        }
      }
      if (Domain::equal(values_[id], next)) continue;
      values_[id] = std::move(next);
      for (const CellId f : c.fanins) {
        // A DFF's driver feeds a sequential sink; the backward edge stops
        // there (the domain's transfer models the D pin as an observation
        // point instead).
        if (c.kind == CellKind::kDff) break;
        if (!in_list_[f]) {
          in_list_[f] = true;
          work.push(keyed(f));
        }
      }
    }
    return values_;
  }

  const std::vector<Value>& values() const { return values_; }
  const Value& value(CellId id) const {
    assert(id < values_.size());
    return values_[id];
  }
  const Domain& domain() const { return domain_; }

 private:
  std::uint64_t keyed(CellId id) const {
    return (static_cast<std::uint64_t>(rank_[id]) << 32) | id;
  }

  const Netlist* nl_;
  Domain domain_;
  std::vector<Value> values_;
  std::vector<std::uint32_t> rank_;
  std::vector<char> in_list_;
};

// ---------------------------------------------------------------------------
// Forward domain: small-support functions
// ---------------------------------------------------------------------------

/// Exact Boolean function of a net over at most kMaxLutInputs cut variables
/// (a truth-table mask — a BDD in disguise at this width). Cut variables are
/// primary inputs, state bits, unknown-LUT outputs, and cells whose support
/// outgrew the bound. Functions are normalized (vacuous variables dropped,
/// variables sorted by CellId), so `is_constant` and `depends_on` are exact
/// over the cut vocabulary.
struct SupportFunction {
  std::vector<CellId> vars;  ///< sorted ascending; empty for constants
  std::uint64_t mask = 0;    ///< truth table; row bit i = value of vars[i]

  static SupportFunction constant(bool v);
  static SupportFunction variable(CellId id);
  bool is_constant() const { return vars.empty(); }
  bool constant_value() const { return (mask & 1ull) != 0; }
  bool depends_on(CellId v) const;
  /// Drop variables the mask does not depend on; keeps the form canonical.
  void normalize();

  friend bool operator==(const SupportFunction& a, const SupportFunction& b) {
    return a.vars == b.vars && a.mask == b.mask;
  }
};

struct SupportDomain {
  using Value = SupportFunction;

  /// Cells re-introduced as fresh cut variables because their support
  /// outgrew kMaxLutInputs, and every variable such a cut absorbed. A
  /// client must not conclude a variable is unobservable while it sits
  /// inside an absorbed cut (keydep's KEY008 check). Unknown-LUT cuts
  /// absorb their fan-in variables for the same reason.
  struct CutState {
    std::vector<char> cut;       ///< by CellId
    std::vector<char> absorbed;  ///< by CellId
  };
  /// Owned by the caller so the domain stays copyable; sized to nl.size().
  CutState* cut_state = nullptr;

  Value source(const Netlist& nl, CellId id) const;
  Value transfer(const Netlist& nl, CellId id,
                 std::span<const Value> fanins) const;
  static bool equal(const Value& a, const Value& b) { return a == b; }
};

// ---------------------------------------------------------------------------
// Backward domain: structural observability
// ---------------------------------------------------------------------------

/// Can a change at this net reach any observation point (primary output or
/// flip-flop D pin) along some path? Purely structural (no sensitization),
/// so `false` is a sound proof of unobservability, the same bar as the
/// audit's masked test but O(V+E) for all cells at once.
struct ObservabilityDomain {
  using Value = char;  ///< 0 = unobservable, 1 = may reach an obs point

  Value init(const Netlist& nl, CellId id) const {
    return nl.cell(id).is_output ? 1 : 0;
  }
  Value transfer(const Netlist& nl, CellId reader, int /*slot*/,
                 const Value& reader_value) const {
    // An edge into a DFF D pin is itself an observation point.
    return nl.cell(reader).kind == CellKind::kDff ? 1 : reader_value;
  }
  Value join(const Value& a, const Value& b) const { return a | b; }
  static bool equal(const Value& a, const Value& b) { return a == b; }
};

}  // namespace stt
