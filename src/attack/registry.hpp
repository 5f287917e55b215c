// Unified attack API: one entry point for all eight attacks.
//
//   attack::UnifiedResult r = attack::registry().run(
//       "sat", foundry_view(hybrid), configured, common);
//
// Each registered attack is an adapter over its direct `run_*` entry point:
// the adapter applies `CommonAttackOptions` on top of the attack's own
// defaults (sentinel fields keep the default — see common.hpp), builds the
// oracle the attack needs from the configured chip (`ScanOracle`,
// `SequenceOracle`, or a simulated power trace for DPA), runs, and folds
// the attack-specific result into a `UnifiedResult`. With a
// default-constructed request the adapter is a pure pass-through, so the
// registry result is bit-identical to calling `run_*` directly (pinned by
// tests/attack_api_test.cpp).
//
// Registered names: "sat", "seq", "sens", "gsens", "bf", "ml", "dpa",
// "static". The last one is oracle-free: it runs the key-dependency
// analysis (verify/keydep) on the attacker's netlist and claims every
// unit-propagated or removable key cell with zero oracle queries.
// `sttlock attack --kind=<name>` and campaign attack stages both route
// through here, so adding an attack means adding one adapter — no CLI or
// campaign switch to extend.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "attack/common.hpp"
#include "attack/sat_attack.hpp"
#include "netlist/netlist.hpp"
#include "util/knob.hpp"

namespace stt {
class CompiledSim;
}

namespace stt::attack {

/// Common projection of every attack's result. `attack` echoes the registry
/// name; `detail` is a one-line human summary of the attack-specific fields
/// (rows resolved, final accuracy, correlation margin, ...); `iterations`
/// is the attack's dominant progress count (DIPs, annealing steps, key
/// combinations, resolved rows); `conflicts` and `sat` are populated by the
/// two DIP-loop attacks, "sat" and "seq".
struct UnifiedResult : AttackBase {
  std::string attack;
  std::string detail;
  std::uint64_t iterations = 0;
  std::int64_t conflicts = 0;
  SatAttackStats sat;
};

/// Attack-specific knobs passed as (key, value) strings, e.g.
/// {{"warmup_words", "8"}, {"frames", "12"}}, applied through the adapter's
/// knob table (util/knob.hpp): an unknown key or a bad value throws
/// std::invalid_argument. An empty tuning plus a default request reproduces
/// the direct call exactly.
using Tuning = stt::Tuning;

/// Catalogue entry: everything the CLI listing needs about one attack.
struct AttackInfo {
  std::string name;
  std::string description;  ///< one line
  std::vector<KnobDoc> knobs;
};

class Registry {
 public:
  /// Run attack `name` against the attacker's netlist `hybrid` (LUT masks
  /// unknown/ignored) with oracle access to the `configured` chip.
  /// `parallel` optionally fans the SAT warm-up batch across threads
  /// (results stay bit-identical; see SatAttackOptions).
  /// `oracle_sim`, when set, must be a CompiledSim lowering of exactly
  /// `configured`; the scan-oracle attacks then borrow it instead of
  /// compiling their own (the campaign's dedup cache shares one lowering
  /// across a grid group — results are bit-identical either way). Attacks
  /// that use no ScanOracle ignore it. Throws std::invalid_argument for an
  /// unknown name or tuning key.
  UnifiedResult run(std::string_view name, const Netlist& hybrid,
                    const Netlist& configured,
                    const CommonAttackOptions& common = {},
                    const Tuning& tuning = {},
                    ParallelFor* parallel = nullptr,
                    const CompiledSim* oracle_sim = nullptr) const;

  bool contains(std::string_view name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;
  /// All catalogue entries, sorted by name (the `--list` payload).
  std::vector<AttackInfo> catalogue() const;
};

/// The process-wide registry (stateless; the type exists so call sites read
/// `attack::registry().run(...)`).
const Registry& registry();

}  // namespace stt::attack
