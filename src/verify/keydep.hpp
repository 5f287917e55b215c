// Key-dependency analysis: a static attack-resilience verdict per key cell,
// built on the attacker-view support and observability passes
// (verify/dataflow).
//
// The paper's Eqs. (1)-(3) assume every missing gate contributes independent
// key entropy; the obfuscation literature (Rajendran et al., DAC'12;
// ASSURE) shows that is only true when no key bit is unit-propagatable,
// removable, or mutually redundant with another. This pass classifies every
// key cell of the *foundry view* — it never reads a LUT mask, so it computes
// the same answer on the configured and the redacted netlist, which is what
// makes the oracle-free `static` attack (attack/registry) and the campaign's
// predicted-resilience columns deterministic by construction:
//
//   constant         the secret is unit-propagatable. The `const` defense's
//                    injected-constant template (a 1-input LUT `lc` whose
//                    sole fanout is XOR(driver, lc) on the same driver) is
//                    value-preserving by construction, which forces
//                    lc == const0 — recoverable with zero oracle queries.
//   removable        the cell's output provably never reaches an
//                    observation point (ternary masking or support-function
//                    vacuousness): any key value works.
//   mutable          a declared key construct whose fanout cone touches no
//                    other key cell's cone — resolvable independently of
//                    every other key bit (Rajendran's "mutable" gates).
//   pairwise-secure  a declared construct whose cone converges with another
//                    key cell's cone before an observation point.
//   hard             everything else (a camouflaged multi-row LUT the
//                    static layer cannot collapse).
//
// Effective entropy per cell: 0 bits when constant/removable, 1 bit for a
// declared construct (the scheme is public — an XOR key gate is BUF or NOT,
// a decoy latch transparent or latched, a locked constant 0 or 1), one
// composite bit for a whole series chain of key gates, and one bit per
// *reachable* truth-table row otherwise. `eff_key_bits` (the predicted
// log2 effective key space) sums these; `key_bits_static` counts the
// nominal bits of constant/removable cells — what an attacker gets for free.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"
#include "verify/annotations.hpp"
#include "verify/finding.hpp"

namespace stt {

enum class KeyVerdict {
  kConstant,
  kRemovable,
  kMutable,
  kPairwiseSecure,
  kHard,
};

std::string_view key_verdict_name(KeyVerdict v);

/// How the key cell got into the netlist, from annotations plus structure.
enum class KeyConstruct {
  kCamouflaged,       ///< converted gate (paper flow); no template known
  kKeyGate,           ///< declared XOR/XNOR key gate (BUF/NOT LUT1)
  kDecoyLatch,        ///< declared decoy-latch mux (LUT2)
  kLockedConstant,    ///< declared constant LUT (ASSURE convert mode)
  kInjectedConstant,  ///< structural injected-constant template (XOR companion)
};

std::string_view key_construct_name(KeyConstruct c);

struct KeyCellReport {
  CellId cell = kNullCell;
  std::string name;
  int fanin = 0;
  int nominal_bits = 0;  ///< 2^fanin truth-table rows = key bits held
  std::uint64_t reachable_rows = 0;
  int reachable_count = 0;
  bool masked = false;   ///< ternary force-probe: blocked from every obs point
  bool vacuous = false;  ///< support pass: variable absent from every obs fn
  bool unit_propagated = false;
  std::uint64_t propagated_mask = 0;  ///< meaningful iff unit_propagated
  KeyConstruct construct = KeyConstruct::kCamouflaged;
  KeyVerdict verdict = KeyVerdict::kHard;
  int interference_degree = 0;  ///< key cells whose fanout cone meets ours
  int cone_size = 0;            ///< combinational fanout cone incl. self
  int chain = -1;               ///< series key-gate chain index; -1 if none
  int effective_bits = 0;       ///< entropy contribution after analysis
};

/// One edge of the key-interference graph: the fanout cones of two key
/// cells share at least one cell before an observation point.
struct KeyInterferenceEdge {
  CellId a = kNullCell;  ///< a < b
  CellId b = kNullCell;
  CellId converge = kNullCell;  ///< earliest shared cone cell (topo order)
  bool series = false;          ///< one cell lies inside the other's cone
};

/// What the key-interference scan hands back. Every verdict, finding and
/// `interference_degree` is the same either way; only `edges` differs.
enum class InterferenceRequest {
  kEdges,    ///< the edge list with convergence points and series flags
  kDegrees,  ///< degrees only; `edges` stays empty
};

struct KeydepOptions {
  /// Declared defense constructs. Empty is the pure attacker view: template
  /// collapse of declared constructs is off, but the structural
  /// injected-constant detection and the removability proofs still apply
  /// (they need no declarations).
  DefenseAnnotations defense;
  /// Callers that read only verdicts and degrees (lint, the static attack)
  /// ask for kDegrees and skip building the edge list.
  InterferenceRequest interference = InterferenceRequest::kEdges;
};

struct KeydepResult {
  std::vector<KeyCellReport> cells;        ///< ascending CellId
  /// Sorted by (a, b); empty under InterferenceRequest::kDegrees.
  std::vector<KeyInterferenceEdge> edges;
  int key_cells = 0;
  int key_bits = 0;         ///< nominal: sum of 2^fanin
  int key_bits_static = 0;  ///< statically recovered (constant + removable)
  int eff_key_bits = 0;     ///< predicted log2 effective key space
  int constant_cells = 0;
  int removable_cells = 0;
  int mutable_cells = 0;
  int pairwise_cells = 0;
  int hard_cells = 0;
  /// KEY001-KEY008, sorted by (rule, cell name, message).
  std::vector<LintFinding> findings;

  /// "empty" (no key cells), "broken" (no effective entropy left),
  /// "degraded" (eff_key_bits < key_bits), or "secure".
  std::string verdict() const;
};

/// Analyze every LUT (key cell) of `nl`. Requires an evaluable netlist
/// (legal arities, resolved fan-ins); throws std::runtime_error otherwise.
KeydepResult analyze_keydep(const Netlist& nl, const KeydepOptions& opt = {});

/// The `sttlock analyze` JSON document: summary counters, per-cell records,
/// and the interference graph (schema documented in EXPERIMENTS.md).
std::string keydep_json(const Netlist& nl, const KeydepResult& r);

}  // namespace stt
