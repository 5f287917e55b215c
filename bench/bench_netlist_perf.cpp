// Netlist-core load/lint throughput: the perf trajectory of the interned,
// pool-backed netlist core and the zero-copy .bench reader against the
// seed-era core (std::string cell names, unordered_map name index, one
// heap vector per fan-in/fanout list, allocating line parser).
//
// Both paths consume the *same* generated .bench text — an ITC'99-class
// LUT-heavy replica (default b19_x4, ~1M logic cells) — and are phase-timed:
//  * parse    — text -> finalized netlist (includes fanout rebuild, full
//               invariant check and the embedded cycle check);
//  * finalize — re-running finalize() on the built netlist (fanout rebuild
//               + invariant re-check, the hot step of in-place editing);
//  * topo     — one combinational topological order;
//  * lint     — the structural lint layer (STR/HYB rules + SCC cycle scan);
//  * lower    — CompiledSim instruction lowering (current path only; the
//               seed replica core is a bench-local type the simulator does
//               not consume);
//  * scoap    — the security audit's attacker-view SCOAP pass (current
//               path only);
//  * seq_depth — the circuit sequential depth D of Eq. (3), which every
//               security report computes (current path only).
//
// A second input times key-dependency analysis (verify/keydep), the largest
// cost of `sttlock lint` on locked designs: an ITC'99-class replica locked
// with the xor defense (b14 with --smoke, b17 otherwise), analyzed once per
// interference request — paths "keydep_edges" (the edge list `analyze`
// writes) and "keydep_degrees" (the degrees lint reads). Its phases are the
// analysis' own trace spans: support (the support-function pass), cells
// (per-key-cell facts and fan-out cones) and pairs (the interference scan).
// Both requests must agree on every degree and on the interfering-pair count.
//
// The seed path is a pinned replica compiled into this benchmark: the
// netlist core, .bench reader and structural-lint rule loop exactly as they
// shipped before the million-gate-core PR. Both paths fold their netlist
// into a structural checksum (cells, kinds, names, fan-ins, output marks,
// LUT masks, topo order) that must match — the rewritten core must produce
// the identical netlist, not a similar one. Lint finding counts must match
// for the same reason.
//
// Timed rows run one untimed warm-up pass, then repeat until a minimum wall
// time. JSON goes to BENCH_netlist_perf.json (--out) for CI to archive:
//   {
//     "benchmark": "...", "cells": N, "edges": N, "luts": N,
//     "bench_bytes": N, "findings": N,
//     "checksum": "...", "seed_checksum": "...",
//     "load_lint_speedup": X.XX,
//     "keydep_netlist": "b14/xor", "keydep_cells": N, "keydep_key_cells": N,
//     "keydep_edges": N,
//     "phases": [
//       {"path": "seed"|"current"|"keydep_edges"|"keydep_degrees",
//        "phase": "...", "reps": N, "seconds": S,
//        "cells_per_sec": R}, ...   // S = fastest repetition, R over the
//     ]                             // row's own netlist
//   }
//
// Acceptance gates:
//  * structural checksums and lint finding counts identical across paths
//    (always, including --smoke);
//  * end-to-end load+lint (parse + lint, per repetition) >= 5x the seed
//    path on the default ~1M-gate configuration. --smoke runs a small
//    circuit where fixed costs dominate and skips the throughput gate.
#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "defense/registry.hpp"
#include "graph/analysis.hpp"
#include "io/bench_io.hpp"
#include "obs/obs.hpp"
#include "sim/compiled.hpp"
#include "sim/scoap.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "verify/keydep.hpp"
#include "verify/structural.hpp"

namespace seedpath {

// ---------------------------------------------------------------------------
// Pinned seed-era netlist core: per-cell std::string names and heap vectors,
// unordered_map<std::string, CellId> name index, .at() bounds checks,
// allocating fanout rebuild and per-call topo scratch. Kept verbatim (minus
// members this benchmark does not exercise) as the baseline the JSON rows
// and the 5x gate are measured against.
// ---------------------------------------------------------------------------

using stt::CellId;
using stt::CellKind;
using stt::kNullCell;

struct SeedCell {
  CellKind kind = CellKind::kBuf;
  std::string name;
  std::vector<CellId> fanins;
  std::vector<CellId> fanouts;
  std::uint64_t lut_mask = 0;
  bool is_output = false;

  int fanin_count() const { return static_cast<int>(fanins.size()); }
};

class SeedNetlist {
 public:
  SeedNetlist() = default;
  explicit SeedNetlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  std::size_t size() const { return cells_.size(); }
  const SeedCell& cell(CellId id) const { return cells_.at(id); }
  SeedCell& cell(CellId id) { return cells_.at(id); }
  const std::vector<CellId>& outputs() const { return outputs_; }

  CellId add_cell(CellKind kind, std::string net_name) {
    const auto id = static_cast<CellId>(cells_.size());
    register_name(net_name, id);
    SeedCell c;
    c.kind = kind;
    c.name = std::move(net_name);
    cells_.push_back(std::move(c));
    if (kind == CellKind::kInput) inputs_.push_back(id);
    if (kind == CellKind::kDff) dffs_.push_back(id);
    return id;
  }

  CellId add_input(std::string net_name) {
    return add_cell(CellKind::kInput, std::move(net_name));
  }

  void connect(CellId cell_id, std::vector<CellId> fanins) {
    SeedCell& c = cells_.at(cell_id);
    for (const CellId old : c.fanins) {
      auto& outs = cells_.at(old).fanouts;
      const auto it = std::find(outs.begin(), outs.end(), cell_id);
      if (it != outs.end()) outs.erase(it);
    }
    c.fanins = std::move(fanins);
    for (const CellId driver : c.fanins) {
      if (driver == kNullCell) continue;
      cells_.at(driver).fanouts.push_back(cell_id);
    }
  }

  void mark_output(CellId cell_id) {
    SeedCell& c = cells_.at(cell_id);
    if (!c.is_output) {
      c.is_output = true;
      outputs_.push_back(cell_id);
    }
  }

  CellId find(std::string_view net_name) const {
    const auto it = by_name_.find(std::string(net_name));
    return it == by_name_.end() ? kNullCell : it->second;
  }

  void finalize() {
    rebuild_fanouts();
    check();
  }

  std::vector<CellId> topo_order() const {
    std::vector<std::uint32_t> pending(cells_.size(), 0);
    std::vector<CellId> order;
    order.reserve(cells_.size());
    std::vector<CellId> ready;
    for (CellId id = 0; id < cells_.size(); ++id) {
      const SeedCell& c = cells_[id];
      if (c.kind == CellKind::kInput || c.kind == CellKind::kDff ||
          c.fanins.empty()) {
        ready.push_back(id);
      } else {
        pending[id] = static_cast<std::uint32_t>(c.fanins.size());
      }
    }
    while (!ready.empty()) {
      const CellId id = ready.back();
      ready.pop_back();
      order.push_back(id);
      for (const CellId reader : cells_[id].fanouts) {
        if (cells_[reader].kind == CellKind::kDff) continue;
        if (--pending[reader] == 0) ready.push_back(reader);
      }
    }
    if (order.size() != cells_.size()) {
      throw std::runtime_error("netlist: combinational cycle detected in '" +
                               name_ + "'");
    }
    return order;
  }

  void check() const {
    if (by_name_.size() != cells_.size()) {
      throw std::runtime_error("netlist: name map out of sync");
    }
    for (CellId id = 0; id < cells_.size(); ++id) {
      const SeedCell& c = cells_[id];
      const auto range = fanin_range(c.kind);
      if (c.fanin_count() < range.min || c.fanin_count() > range.max) {
        throw std::runtime_error("netlist: cell '" + c.name +
                                 "' has illegal fan-in count " +
                                 std::to_string(c.fanin_count()));
      }
      for (const CellId driver : c.fanins) {
        if (driver == kNullCell || driver >= cells_.size()) {
          throw std::runtime_error("netlist: cell '" + c.name +
                                   "' has a dangling fan-in");
        }
        const auto& outs = cells_[driver].fanouts;
        const auto expect = static_cast<std::size_t>(
            std::count(c.fanins.begin(), c.fanins.end(), driver));
        const auto have = static_cast<std::size_t>(
            std::count(outs.begin(), outs.end(), id));
        if (have != expect) {
          throw std::runtime_error("netlist: fanout list out of sync at '" +
                                   c.name + "'");
        }
      }
    }
    (void)topo_order();
  }

 private:
  void register_name(const std::string& net_name, CellId id) {
    if (net_name.empty()) throw std::runtime_error("netlist: empty net name");
    const auto [it, inserted] = by_name_.emplace(net_name, id);
    if (!inserted) {
      throw std::runtime_error("netlist: duplicate net name '" + net_name +
                               "'");
    }
  }

  void rebuild_fanouts() {
    for (SeedCell& c : cells_) c.fanouts.clear();
    for (CellId id = 0; id < cells_.size(); ++id) {
      for (const CellId driver : cells_[id].fanins) {
        if (driver == kNullCell) {
          throw std::runtime_error("netlist: unresolved fan-in on '" +
                                   cells_[id].name + "'");
        }
        cells_.at(driver).fanouts.push_back(id);
      }
    }
  }

  std::string name_;
  std::vector<SeedCell> cells_;
  std::vector<CellId> inputs_;
  std::vector<CellId> outputs_;
  std::vector<CellId> dffs_;
  std::unordered_map<std::string, CellId> by_name_;
};

// Seed-era .bench reader: per-line string materialization, allocating
// split()/to_upper(), per-cell fan-in name vectors, unordered_set duplicate
// detection.
CellKind seed_parse_operator(std::string_view op, std::uint64_t& mask) {
  const std::string up = stt::to_upper(op);
  if (stt::starts_with(up, "LUT_")) {
    const std::string_view arg = std::string_view(up).substr(4);
    if (arg == "X") {
      mask = 0;
      return CellKind::kLut;
    }
    std::string_view digits = arg;
    if (stt::starts_with(digits, "0X")) digits = digits.substr(2);
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), value, 16);
    if (ec != std::errc() || ptr != digits.data() + digits.size()) {
      throw std::runtime_error("bad LUT mask '" + std::string(op) + "'");
    }
    mask = value;
    return CellKind::kLut;
  }
  const auto kind = stt::kind_from_name(up);
  if (!kind || *kind == CellKind::kInput) {
    throw std::runtime_error("unknown operator '" + std::string(op) + "'");
  }
  return *kind;
}

SeedNetlist seed_read_bench(std::string_view text, std::string name) {
  struct PendingCell {
    CellKind kind;
    std::string name;
    std::vector<std::string> fanin_names;
    std::uint64_t lut_mask = 0;
  };
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::vector<PendingCell> pending;
  std::unordered_set<std::string> defined;

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view raw =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;

    const std::size_t hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    const std::string_view line = stt::trim(raw);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      const std::size_t lp = line.find('(');
      const std::size_t rp = line.rfind(')');
      if (lp == std::string_view::npos || rp == std::string_view::npos ||
          rp < lp) {
        throw std::runtime_error("malformed declaration");
      }
      const std::string keyword = stt::to_upper(stt::trim(line.substr(0, lp)));
      const std::string net(stt::trim(line.substr(lp + 1, rp - lp - 1)));
      if (net.empty()) throw std::runtime_error("empty net name");
      if (keyword == "INPUT") {
        if (!defined.insert(net).second) {
          throw std::runtime_error("net '" + net + "' defined twice");
        }
        input_names.push_back(net);
      } else if (keyword == "OUTPUT") {
        output_names.push_back(net);
      } else {
        throw std::runtime_error("unknown keyword '" + keyword + "'");
      }
      continue;
    }

    PendingCell cell;
    cell.name = std::string(stt::trim(line.substr(0, eq)));
    if (cell.name.empty()) throw std::runtime_error("empty cell name");
    const std::string_view rhs = stt::trim(line.substr(eq + 1));
    const std::size_t lp = rhs.find('(');
    const std::size_t rp = rhs.rfind(')');
    if (lp == std::string_view::npos || rp == std::string_view::npos ||
        rp < lp) {
      throw std::runtime_error("malformed cell definition");
    }
    cell.kind = seed_parse_operator(stt::trim(rhs.substr(0, lp)), cell.lut_mask);
    const std::string_view args = rhs.substr(lp + 1, rp - lp - 1);
    if (!stt::trim(args).empty()) {
      for (const auto& arg : stt::split(args, ',')) {
        const std::string net(stt::trim(arg));
        if (net.empty()) throw std::runtime_error("empty fan-in name");
        cell.fanin_names.push_back(net);
      }
    }
    if (!defined.insert(cell.name).second) {
      throw std::runtime_error("net '" + cell.name + "' defined twice");
    }
    pending.push_back(std::move(cell));
  }

  SeedNetlist nl(std::move(name));
  for (auto& in : input_names) nl.add_input(std::move(in));
  std::vector<CellId> ids;
  ids.reserve(pending.size());
  for (const auto& cell : pending) {
    const CellId id = nl.add_cell(cell.kind, cell.name);
    if (cell.kind == CellKind::kLut) {
      nl.cell(id).lut_mask =
          cell.lut_mask &
          stt::full_mask(static_cast<int>(cell.fanin_names.size()));
    }
    ids.push_back(id);
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    std::vector<CellId> fanins;
    fanins.reserve(pending[i].fanin_names.size());
    for (const auto& net : pending[i].fanin_names) {
      const CellId driver = nl.find(net);
      if (driver == kNullCell) {
        throw std::runtime_error("undefined net '" + net + "'");
      }
      fanins.push_back(driver);
    }
    nl.connect(ids[i], std::move(fanins));
  }
  for (const auto& net : output_names) {
    const CellId id = nl.find(net);
    if (id == kNullCell) {
      throw std::runtime_error("OUTPUT references undefined net '" + net + "'");
    }
    nl.mark_output(id);
  }
  nl.finalize();
  return nl;
}

// Seed-era iterative Tarjan over a vector-of-vectors adjacency, pinned here
// because the library entry point now flattens to CSR — the baseline must
// keep the seed's memory behaviour.
std::vector<int> seed_tarjan_scc(
    const std::vector<std::vector<std::uint32_t>>& adj, int& num_components) {
  const auto n = adj.size();
  std::vector<int> comp(n, -1), low(n, 0), index(n, -1);
  std::vector<std::uint32_t> stack;
  std::vector<bool> on_stack(n, false);
  int next_index = 0;
  num_components = 0;

  struct Frame {
    std::uint32_t node;
    std::size_t edge;
  };
  std::vector<Frame> call;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    call.push_back({root, 0});
    while (!call.empty()) {
      auto& [u, edge] = call.back();
      if (edge == 0) {
        index[u] = low[u] = next_index++;
        stack.push_back(u);
        on_stack[u] = true;
      }
      bool descended = false;
      while (edge < adj[u].size()) {
        const std::uint32_t v = adj[u][edge++];
        if (index[v] == -1) {
          call.push_back({v, 0});
          descended = true;
          break;
        }
        if (on_stack[v]) low[u] = std::min(low[u], index[v]);
      }
      if (descended) continue;
      if (low[u] == index[u]) {
        while (true) {
          const std::uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          comp[w] = num_components;
          if (w == u) break;
        }
        ++num_components;
      }
      const std::uint32_t finished = u;
      call.pop_back();
      if (!call.empty()) {
        const std::uint32_t parent = call.back().node;
        low[parent] = std::min(low[parent], low[finished]);
      }
    }
  }
  return comp;
}

// Seed-era structural lint rule loop over the replica core: the same rules,
// scan order and finding-message construction run_structural_lint applies
// (camouflage/defense-annotation blocks omitted — this benchmark passes no
// annotations, so both paths skip them identically).
struct SeedFinding {
  int rule = 0;
  CellId cell = kNullCell;
  std::string message;
};

std::vector<SeedFinding> seed_structural_lint(const SeedNetlist& nl) {
  using stt::strformat;
  std::vector<SeedFinding> findings;
  const auto valid_id = [&nl](CellId id) {
    return id != kNullCell && id < nl.size();
  };

  std::vector<std::uint32_t> readers(nl.size(), 0);
  for (CellId id = 0; id < nl.size(); ++id) {
    for (const CellId f : nl.cell(id).fanins) {
      if (valid_id(f)) ++readers[f];
    }
  }

  for (CellId id = 0; id < nl.size(); ++id) {
    const SeedCell& c = nl.cell(id);

    // STR002 — unresolved / out-of-range fan-in slots.
    for (std::size_t slot = 0; slot < c.fanins.size(); ++slot) {
      if (!valid_id(c.fanins[slot])) {
        findings.push_back(
            {2, id,
             strformat("fan-in slot %zu of '%s' references no cell", slot,
                       c.name.c_str())});
      }
    }

    // STR003 — arity outside the legal range for the kind.
    const stt::FaninRange range = fanin_range(c.kind);
    if (c.fanin_count() < range.min || c.fanin_count() > range.max) {
      findings.push_back(
          {3, id,
           strformat("%s '%s' has %d fan-in(s); legal range is [%d, %d]",
                     std::string(kind_name(c.kind)).c_str(), c.name.c_str(),
                     c.fanin_count(), range.min, range.max)});
    }

    // STR004 — fanout lists out of sync with the fan-in edge set.
    for (const CellId f : c.fanins) {
      if (!valid_id(f)) continue;
      const auto& outs = nl.cell(f).fanouts;
      const auto expect = std::count(c.fanins.begin(), c.fanins.end(), f);
      const auto have = std::count(outs.begin(), outs.end(), id);
      if (have != expect) {
        findings.push_back(
            {4, id,
             strformat("'%s' reads '%s' %zd time(s) but appears %zd time(s) "
                       "in its fanout list",
                       c.name.c_str(), nl.cell(f).name.c_str(),
                       static_cast<std::ptrdiff_t>(expect),
                       static_cast<std::ptrdiff_t>(have))});
        break;
      }
    }

    // STR008 — duplicate driver across fan-in slots.
    if (c.fanin_count() >= 2) {
      std::vector<CellId> sorted(c.fanins);
      std::sort(sorted.begin(), sorted.end());
      const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
      if (dup != sorted.end() && valid_id(*dup)) {
        findings.push_back(
            {8, id,
             strformat("'%s' wires driver '%s' to multiple fan-in slots",
                       c.name.c_str(), nl.cell(*dup).name.c_str())});
      }
    }

    // STR009 — LUT mask bits beyond the truth table.
    if (c.kind == CellKind::kLut &&
        (c.lut_mask & ~stt::full_mask(c.fanin_count())) != 0) {
      findings.push_back(
          {9, id,
           strformat("LUT '%s' mask 0x%llx has bits beyond its %u rows",
                     c.name.c_str(),
                     static_cast<unsigned long long>(c.lut_mask),
                     stt::num_rows(c.fanin_count()))});
    }

    // HYB001 — one-input missing gate.
    if (c.kind == CellKind::kLut && c.fanin_count() == 1) {
      findings.push_back(
          {101, id,
           strformat("missing gate '%s' has one input; candidate set is only "
                     "BUF/NOT (P = 2)",
                     c.name.c_str())});
    }

    // STR007 — dead gate.
    const bool is_logic = is_combinational(c.kind) &&
                          c.kind != CellKind::kConst0 &&
                          c.kind != CellKind::kConst1;
    if (is_logic && readers[id] == 0 && !c.is_output) {
      const bool lut = c.kind == CellKind::kLut;
      findings.push_back(
          {7, id,
           lut ? strformat("missing gate '%s' drives nothing: it contributes "
                           "to M but hides no reachable logic",
                           c.name.c_str())
               : strformat("gate '%s' drives nothing and is not an output",
                           c.name.c_str())});
    }
  }

  // STR005 / STR006 — output sanity.
  if (nl.outputs().empty()) {
    findings.push_back(
        {5, kNullCell,
         "netlist declares no primary outputs; nothing is observable"});
  }
  for (const CellId id : nl.outputs()) {
    const CellKind kind = nl.cell(id).kind;
    if (kind == CellKind::kConst0 || kind == CellKind::kConst1) {
      findings.push_back(
          {6, id,
           strformat("primary output '%s' is the constant %c",
                     nl.cell(id).name.c_str(),
                     kind == CellKind::kConst1 ? '1' : '0')});
    }
  }

  // STR001 — combinational SCC scan.
  {
    std::vector<std::vector<std::uint32_t>> adj(nl.size());
    for (CellId id = 0; id < nl.size(); ++id) {
      const SeedCell& c = nl.cell(id);
      if (c.kind == CellKind::kDff) continue;
      for (const CellId f : c.fanins) {
        if (valid_id(f)) adj[f].push_back(id);
      }
    }
    int num_components = 0;
    const std::vector<int> comp = seed_tarjan_scc(adj, num_components);
    std::vector<std::vector<CellId>> members(
        static_cast<std::size_t>(num_components));
    for (CellId id = 0; id < nl.size(); ++id) {
      members[static_cast<std::size_t>(comp[id])].push_back(id);
    }
    for (const auto& scc : members) {
      const bool self_loop =
          scc.size() == 1 &&
          std::find(adj[scc[0]].begin(), adj[scc[0]].end(), scc[0]) !=
              adj[scc[0]].end();
      if (scc.size() < 2 && !self_loop) continue;
      std::string names;
      for (std::size_t i = 0; i < scc.size() && i < 4; ++i) {
        if (i) names += " -> ";
        names += nl.cell(scc[i]).name;
      }
      if (scc.size() > 4) names += " -> ...";
      const CellId anchor = *std::min_element(scc.begin(), scc.end());
      findings.push_back(
          {1, anchor,
           strformat("combinational cycle through %zu cell(s): %s",
                     scc.size(), names.c_str())});
    }
  }

  return findings;
}

}  // namespace seedpath

namespace {

using namespace stt;

constexpr std::uint64_t kSeed = 20160605;

struct Row {
  std::string path;
  std::string phase;
  int reps = 0;
  double seconds = 0;     ///< fastest timed repetition
  std::size_t cells = 0;  ///< size of the netlist the row ran on
};

// Total duration in seconds of the completed trace spans named `name` in a
// chrome_json() document.
double span_seconds(const std::string& trace, const std::string& name) {
  const std::string key = "{\"name\":\"" + name + "\"";
  std::int64_t us = 0;
  for (std::size_t at = trace.find(key); at != std::string::npos;
       at = trace.find(key, at + 1)) {
    const std::size_t dur = trace.find("\"dur\":", at) + 6;
    us += std::strtoll(trace.c_str() + dur, nullptr, 10);
  }
  return static_cast<double>(us) * 1e-6;
}

// Structural digest over anything cell-shaped: cells in id order (kind, name
// bytes, fan-in ids, output mark, LUT mask), then the topological order. A
// single differing byte, edge or schedule slot anywhere changes the digest.
template <typename NetlistLike>
std::uint64_t structural_checksum(const NetlistLike& nl) {
  std::uint64_t acc = 0x5717c0deull;
  const auto fold = [&acc](std::uint64_t v) {
    acc = (acc ^ v) * 0x9e3779b97f4a7c15ull;
    acc ^= acc >> 29;
  };
  fold(nl.size());
  for (CellId id = 0; id < nl.size(); ++id) {
    const auto& c = nl.cell(id);
    fold(static_cast<std::uint64_t>(c.kind));
    std::uint64_t h = 1469598103934665603ull;
    for (const char ch : c.name) {
      h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    }
    fold(h);
    for (const CellId f : c.fanins) fold(f);
    fold(c.is_output ? 1u : 0u);
    fold(c.lut_mask);
  }
  for (const CellId id : nl.topo_order()) fold(id);
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_option("--benchmark",
                  "profile name, ISCAS'89 or ITC'99-class "
                  "(default b19_x4; b14 with --smoke)");
  args.add_option("--min-seconds", "minimum timed wall per phase row", "0.3");
  args.add_option("--out", "output JSON path", "BENCH_netlist_perf.json");
  args.add_flag("--smoke",
                "seconds-scale CI configuration (b14, throughput gate "
                "reported but not enforced)");
  try {
    args.parse({argv + 1, argv + argc});
  } catch (const ArgError& e) {
    std::fprintf(stderr, "bench_netlist_perf: %s\n%s", e.what(),
                 args.help().c_str());
    return 2;
  }

  const bool smoke = args.flag("--smoke");
  const std::string bench_name =
      args.get_or("--benchmark", smoke ? "b14" : "b19_x4");
  const auto profile = find_profile(bench_name);
  if (!profile) {
    std::fprintf(stderr, "bench_netlist_perf: unknown benchmark %s\n",
                 bench_name.c_str());
    return 2;
  }
  const double min_seconds = args.get_double("--min-seconds");

  // The shared input: one generated replica serialized to .bench text. Both
  // paths parse these exact bytes.
  std::string text;
  {
    const Netlist generated = generate_circuit(*profile, kSeed);
    text = write_bench(generated);
  }

  std::vector<Row> rows;
  std::size_t n_cells = 0;
  // One untimed warm-up pass, then repeat until min_seconds of accumulated
  // wall time, with at least two timed repetitions; keeps the fastest
  // repetition. On a shared machine interference only ever adds time, so the
  // minimum is the low-noise estimator of the true cost — means drift with
  // whatever else the host is doing.
  const auto repeat = [&](const char* path, const char* phase,
                          const auto& pass) {
    pass();  // warm-up
    Row r{path, phase, 0, 0, n_cells};
    double total = 0;
    do {
      Timer timer;
      pass();
      const double t = timer.seconds();
      total += t;
      if (r.reps == 0 || t < r.seconds) r.seconds = t;
      ++r.reps;
    } while (total < min_seconds || r.reps < 2);
    rows.push_back(r);
    return r.seconds;
  };

  // -- current path ---------------------------------------------------------
  Netlist cur = read_bench(text, profile->name);
  n_cells = cur.size();
  std::size_t n_edges = 0;
  for (CellId id = 0; id < cur.size(); ++id) {
    n_edges += cur.cell(id).fanins.size();
  }
  const std::size_t n_luts = cur.stats().luts;

  const double cur_parse = repeat("current", "parse", [&] {
    const Netlist nl = read_bench(text, profile->name);
    if (nl.size() != n_cells) throw std::runtime_error("cell count drift");
  });
  repeat("current", "finalize", [&] { cur.finalize(); });
  repeat("current", "topo", [&] { (void)cur.topo_order(); });
  StructuralLintResult cur_lint;
  const double cur_lint_s = repeat("current", "lint", [&] {
    cur_lint = run_structural_lint(cur);
  });
  repeat("current", "lower", [&] { const CompiledSim sim(cur); });
  ScoapOptions attacker_view;
  attacker_view.attacker_view = true;
  repeat("current", "scoap",
         [&] { (void)compute_scoap(cur, attacker_view); });
  repeat("current", "seq_depth", [&] { (void)circuit_seq_depth(cur); });
  const std::uint64_t cur_checksum = structural_checksum(cur);

  // -- seed replica path ----------------------------------------------------
  seedpath::SeedNetlist seed_nl =
      seedpath::seed_read_bench(text, profile->name);
  const double seed_parse = repeat("seed", "parse", [&] {
    const seedpath::SeedNetlist nl =
        seedpath::seed_read_bench(text, profile->name);
    if (nl.size() != n_cells) throw std::runtime_error("cell count drift");
  });
  repeat("seed", "finalize", [&] { seed_nl.finalize(); });
  repeat("seed", "topo", [&] { (void)seed_nl.topo_order(); });
  std::vector<seedpath::SeedFinding> seed_findings;
  const double seed_lint_s = repeat("seed", "lint", [&] {
    seed_findings = seedpath::seed_structural_lint(seed_nl);
  });
  const std::uint64_t seed_checksum = structural_checksum(seed_nl);

  // -- cross-checks ---------------------------------------------------------
  if (cur_checksum != seed_checksum) {
    std::fprintf(stderr,
                 "bench_netlist_perf: structural checksum mismatch "
                 "(%016llx current vs %016llx seed) — the rewritten core "
                 "does NOT reproduce the seed netlist\n",
                 static_cast<unsigned long long>(cur_checksum),
                 static_cast<unsigned long long>(seed_checksum));
    return 1;
  }
  if (cur_lint.findings.size() != seed_findings.size()) {
    std::fprintf(stderr,
                 "bench_netlist_perf: lint finding count mismatch "
                 "(%zu current vs %zu seed)\n",
                 cur_lint.findings.size(), seed_findings.size());
    return 1;
  }

  // -- keydep phases --------------------------------------------------------
  const std::string keydep_bench = smoke ? "b14" : "b17";
  const defense::DefenseResult locked = [&] {
    defense::DefenseOptions dopt;
    dopt.seed = kSeed;
    return defense::registry().apply(
        "xor", generate_circuit(*find_profile(keydep_bench), kSeed),
        TechLibrary::cmos90_stt(), dopt, {});
  }();
  obs::Counter& interfering =
      obs::Metrics::global().counter("verify.keydep.edges", false);
  KeydepResult by_request[2];
  std::uint64_t interfering_pairs[2] = {0, 0};
  const InterferenceRequest requests[2] = {InterferenceRequest::kEdges,
                                           InterferenceRequest::kDegrees};
  for (int m = 0; m < 2; ++m) {
    KeydepOptions kopt;
    kopt.defense = locked.annotations;
    kopt.interference = requests[m];
    const std::uint64_t before = interfering.value();
    by_request[m] = analyze_keydep(locked.locked, kopt);  // warm-up
    interfering_pairs[m] = interfering.value() - before;
    const char* path = m == 0 ? "keydep_edges" : "keydep_degrees";
    const char* phases[3] = {"support", "cells", "pairs"};
    double best[3] = {0, 0, 0};
    double total = 0;
    int reps = 0;
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    do {
      Timer timer;
      recorder.start();
      (void)analyze_keydep(locked.locked, kopt);
      recorder.stop();
      total += timer.seconds();
      const std::string trace = recorder.chrome_json();
      for (int p = 0; p < 3; ++p) {
        const double t =
            span_seconds(trace, std::string("keydep_") + phases[p]);
        if (reps == 0 || t < best[p]) best[p] = t;
      }
      ++reps;
    } while (total < min_seconds || reps < 2);
    for (int p = 0; p < 3; ++p) {
      rows.push_back({path, phases[p], reps, best[p], locked.locked.size()});
    }
  }
  bool same_degrees =
      by_request[0].cells.size() == by_request[1].cells.size();
  for (std::size_t i = 0; same_degrees && i < by_request[0].cells.size();
       ++i) {
    same_degrees = by_request[0].cells[i].interference_degree ==
                   by_request[1].cells[i].interference_degree;
  }
  if (!same_degrees || interfering_pairs[0] != interfering_pairs[1] ||
      (obs::kEnabled && interfering_pairs[0] != by_request[0].edges.size())) {
    std::fprintf(stderr,
                 "bench_netlist_perf: keydep degrees-only and edge mode "
                 "disagree on %s/xor (%llu vs %llu interfering pairs, %zu "
                 "edges)\n",
                 keydep_bench.c_str(),
                 static_cast<unsigned long long>(interfering_pairs[0]),
                 static_cast<unsigned long long>(interfering_pairs[1]),
                 by_request[0].edges.size());
    return 1;
  }

  const double speedup =
      cur_parse + cur_lint_s > 0
          ? (seed_parse + seed_lint_s) / (cur_parse + cur_lint_s)
          : 0.0;

  std::string json = "{\n";
  json += "  \"benchmark\": \"" + profile->name + "\",\n";
  json += "  \"cells\": " + std::to_string(n_cells) + ",\n";
  json += "  \"edges\": " + std::to_string(n_edges) + ",\n";
  json += "  \"luts\": " + std::to_string(n_luts) + ",\n";
  json += "  \"bench_bytes\": " + std::to_string(text.size()) + ",\n";
  json += "  \"findings\": " + std::to_string(cur_lint.findings.size()) +
          ",\n";
  json += "  \"checksum\": \"" + std::to_string(cur_checksum) + "\",\n";
  json += "  \"seed_checksum\": \"" + std::to_string(seed_checksum) + "\",\n";
  json += strformat("  \"load_lint_speedup\": %.2f,\n", speedup);
  json += "  \"keydep_netlist\": \"" + keydep_bench + "/xor\",\n";
  json += strformat("  \"keydep_cells\": %zu,\n", locked.locked.size());
  json += strformat("  \"keydep_key_cells\": %d,\n",
                    by_request[0].key_cells);
  json += strformat("  \"keydep_edges\": %zu,\n",
                    by_request[0].edges.size());
  json += "  \"phases\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"path\": \"%s\", \"phase\": \"%s\", \"reps\": %d, "
                  "\"seconds\": %.6f, \"cells_per_sec\": %.1f}%s\n",
                  r.path.c_str(), r.phase.c_str(), r.reps, r.seconds,
                  r.seconds > 0 ? static_cast<double>(r.cells) / r.seconds
                                : 0.0,
                  i + 1 < rows.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  const std::string out_path = args.get("--out");
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "bench_netlist_perf: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }

  // Throughput gate: end-to-end load+lint must beat the seed path 5x on the
  // default million-gate configuration. Small smoke circuits are dominated
  // by fixed costs, so --smoke reports the ratio without enforcing it.
  if (smoke) {
    std::fprintf(stderr,
                 "bench_netlist_perf: --smoke skips the 5x load+lint gate "
                 "(fixed-cost-dominated small circuit); measured %.2fx\n",
                 speedup);
  } else if (speedup < 5.0) {
    std::fprintf(stderr,
                 "bench_netlist_perf: load+lint speedup %.2fx below the 5x "
                 "gate\n",
                 speedup);
    return 1;
  }
  return 0;
}
