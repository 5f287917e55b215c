// Unified defense API: every logic-locking scheme the harness evaluates
// implements one interface, mirroring the attack side (attack/registry.hpp).
//
//   defense::DefenseResult r = defense::registry().apply(
//       "latch", original, lib, {.seed = 7});
//
// A defense takes a netlist and returns a *configured* locked netlist plus
// the key material, overhead/security sign-off, and the cell accounting the
// campaign's CSV columns report. The key is always expressed as LUT
// configuration masks (hybrid.hpp's LutKey), so `foundry_view` redaction,
// key serialization, `sttlock program` and all seven registered attacks
// work against every defense without modification:
//
//   * the paper's three selection algorithms replace gates with key-holding
//     LUTs directly;
//   * an XOR/XNOR key gate lowers to a 1-input LUT whose BUF/NOT polarity
//     is the key bit;
//   * a decoy latch lowers to a 2-input LUT mux whose mask decides between
//     transparency (correct key) and latching the decoy state (wrong key);
//   * an ASSURE-style locked constant lowers to a LUT whose configured
//     function is constant.
//
// Per-defense knobs travel as (key, value) string pairs (`Tuning`) through
// the defense's knob table (util/knob.hpp): an unknown key or a bad value
// throws std::invalid_argument instead of silently running defaults.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/hybrid.hpp"
#include "core/overhead.hpp"
#include "core/security.hpp"
#include "core/selection.hpp"
#include "netlist/netlist.hpp"
#include "tech/tech_library.hpp"
#include "util/knob.hpp"
#include "verify/annotations.hpp"

namespace stt::defense {

/// Defense-specific knobs as (key, value) strings, e.g.
/// {{"count", "16"}, {"xnor", "0.25"}}. An empty tuning runs the defense's
/// documented defaults.
using Tuning = stt::Tuning;

/// Options shared by every defense (defense-specific knobs go in Tuning).
struct DefenseOptions {
  std::uint64_t seed = 1;       ///< all randomness derives from this
  double timing_margin = 0.05;  ///< allowed critical-delay degradation
  double activity = 0.10;       ///< switching activity for power sign-off
};

/// Common projection of every defense's outcome.
struct DefenseResult {
  std::string defense;  ///< registry kind, echoed by Registry::apply
  Netlist locked;       ///< configured locked netlist (key programmed)
  /// Masks of the key-holding LUTs this defense created — the secret
  /// withheld from the foundry. `apply_key(foundry_view(locked), key)`
  /// reconstructs the configured design.
  LutKey key;
  /// Name-based declarations of the inserted constructs, consumed by the
  /// lint layers (HYB004-006 validation + by-design finding suppression).
  DefenseAnnotations annotations;
  /// Selection statistics; populated by the paper adapters only (zeros for
  /// the related-work defenses, which have no path-selection stage).
  SelectionResult selection;
  OverheadReport overhead;  ///< Table I metrics vs the original
  SecurityReport security;  ///< Eq. (1)-(3) estimates on the locked netlist
  int key_cells = 0;      ///< LUT cells carrying key material
  int key_bits = 0;       ///< sum of 2^fanin over the key cells
  int cells_added = 0;    ///< cells inserted into the netlist
  int cells_replaced = 0; ///< existing cells converted in place
  std::string detail;     ///< one-line defense-specific summary
  double elapsed_s = 0;   ///< set by Registry::apply
};

class DefenseBase {
 public:
  virtual ~DefenseBase() = default;

  virtual std::string_view kind() const = 0;
  virtual std::string_view description() const = 0;
  /// The knob table as `sttlock defend --list` prints it.
  virtual std::vector<KnobDoc> knobs() const = 0;
  /// Applies `tuning` to the defaults without locking anything: throws
  /// std::invalid_argument for an unknown key or an out-of-range value.
  virtual void check(const Tuning& tuning) const = 0;

  /// Apply the defense to a copy of `original` (left untouched). Throws
  /// std::invalid_argument for a tuning `check` rejects or an unlockable
  /// netlist; the campaign retries with the next attempt's seed.
  virtual DefenseResult apply(const Netlist& original, const TechLibrary& lib,
                              const DefenseOptions& opt,
                              const Tuning& tuning) const = 0;

 protected:
  /// Shared epilogue: overhead/security sign-off plus key accounting
  /// (key_cells, key_bits from `r.key` against `r.locked`). The paper
  /// adapters skip this and forward `run_secure_flow`'s own reports so the
  /// adapter stays bit-identical to the direct call.
  static void finish(DefenseResult& r, const Netlist& original,
                     const TechLibrary& lib, const DefenseOptions& opt);

  /// Key accounting only (used by the paper adapters after the flow).
  static void count_key(DefenseResult& r);

  /// A net name not yet present in `nl`, derived from `base`; `suffixes`
  /// are companion names ("_q", "_inv", ...) that must stay free too.
  static std::string unique_name(const Netlist& nl, const std::string& base,
                                 const std::vector<std::string>& suffixes = {});
};

/// A defense declared as data: its kind, description and one knob table
/// over the options struct `Opts`.
template <class Opts>
class TunedDefense : public DefenseBase {
 public:
  TunedDefense(std::string_view kind, std::string_view description,
               std::span<const Knob<Opts>> knobs)
      : kind_(kind), description_(description), knobs_(knobs) {}

  std::string_view kind() const final { return kind_; }
  std::string_view description() const final { return description_; }
  std::vector<KnobDoc> knobs() const final { return knob_docs(knobs_); }
  void check(const Tuning& tuning) const final { (void)tuned(tuning); }

 protected:
  /// `Opts{}` with `tuning` applied through the table.
  Opts tuned(const Tuning& tuning) const {
    Opts opts;
    apply_tuning(knobs_, opts, tuning, "defense", kind());
    return opts;
  }

 private:
  std::string_view kind_, description_;
  std::span<const Knob<Opts>> knobs_;
};

}  // namespace stt::defense
