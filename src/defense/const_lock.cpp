// ASSURE-style constant locking (after Pilato et al., "ASSURE: RTL Locking
// Against an Untrusted Foundry"), lowered onto the gate-level netlist.
//
// ASSURE hides the constants of a design behind key bits. At gate level
// that means two moves, both expressed with the attacker-view ternary
// evaluation the lint audit uses (PartialEvaluator with zero LUT knowledge,
// so every LUT output is X):
//
//  * convert: any gate whose output is *statically constant* under all-X
//    inputs is rewritten in place into a key-fed LUT configured to that
//    constant. The LUT keeps one live donor fan-in, so to the foundry it
//    is an ordinary unconfigured LUT1 and the constant's value — and the
//    fact that the cone was constant at all — moves into the key. The now
//    disconnected constant cone is stripped.
//  * inject: on sampled live edges d -> v, a key-fed constant lc (LUT1
//    configured to 0) is planted together with x = XOR(d, lc), and v is
//    rewired to x. With the correct key XOR(d, 0) = d; a wrong
//    configuration turns x into NOT d or constant 0. This covers
//    synthesized benchmarks whose constants were already folded away.
#include <sstream>

#include "defense/registry.hpp"
#include "netlist/cleanup.hpp"
#include "sim/partial_eval.hpp"
#include "util/rng.hpp"

namespace stt::defense {

namespace {

/// All-X attacker-view wave over the combinational fabric.
std::vector<Tri> all_x_wave(const Netlist& nl) {
  const LutKnowledgeMap luts = unknown_luts(nl);
  return PartialEvaluator(nl, luts).eval(
      std::vector<Tri>(nl.inputs().size() + nl.dffs().size(), Tri::kX));
}

bool definite(Tri t) { return t != Tri::kX; }

struct ConstOptions {
  bool convert = true;
  int inject = 8;
};

constexpr Knob<ConstOptions> kConstKnobs[] = {
    {.name = "convert",
     .doc = "rewrite statically-constant gates into key LUTs",
     .field = &ConstOptions::convert},
    {.name = "inject",
     .doc = "key-fed XOR-with-0 constants to plant on live edges (clamped "
            "to edge count)", .field = &ConstOptions::inject},
};

class ConstLock final : public TunedDefense<ConstOptions> {
 public:
  ConstLock()
      : TunedDefense("const",
                     "ASSURE-style constant locking (convert constant "
                     "cones, inject key-fed constants)",
                     kConstKnobs) {}

  DefenseResult apply(const Netlist& original, const TechLibrary& lib,
                      const DefenseOptions& opt,
                      const Tuning& tuning) const override {
    const ConstOptions knobs = tuned(tuning);

    DefenseResult r;
    r.locked = strip_dead_logic(original);

    if (knobs.convert) convert_constant_gates(r);
    if (knobs.inject > 0) inject_constants(r, knobs.inject, opt.seed);
    if (r.key.empty()) {
      throw std::invalid_argument(
          "defense \"const\": nothing to lock (no constant cones and "
          "inject=0)");
    }
    r.locked.check();

    finish(r, original, lib, opt);
    std::ostringstream d;
    d << r.cells_replaced << " constant gates converted, "
      << r.annotations.locked_constants.size() - r.cells_replaced
      << " injected";
    r.detail = d.str();
    return r;
  }

 private:
  void convert_constant_gates(DefenseResult& r) const {
    Netlist& work = r.locked;
    const std::vector<Tri> wave = all_x_wave(work);
    int converted = 0;
    for (CellId id = 0; id < work.size(); ++id) {
      const Cell& c = work.cell(id);
      if (!is_replaceable_gate(c.kind) || c.kind == CellKind::kLut) continue;
      if (!definite(wave[id])) continue;
      // Keep only constants that stay observable: output drivers, or gates
      // with a reader the conversion pass leaves alive (an X-wave gate or a
      // flip-flop D pin). Constants read solely by other converted
      // constants go dead and are stripped instead of locked.
      bool observable = c.is_output;
      for (const CellId reader : c.fanouts) {
        if (!definite(wave[reader])) observable = true;
      }
      if (!observable) continue;
      // The donor fan-in keeps the LUT looking live to the foundry; prefer
      // a genuinely unknown driver, fall back to a primary input.
      CellId donor = kNullCell;
      for (const CellId fin : c.fanins) {
        if (!definite(wave[fin])) {
          donor = fin;
          break;
        }
      }
      if (donor == kNullCell && !work.inputs().empty()) {
        donor = work.inputs()[0];
      }
      if (donor == kNullCell) continue;
      const std::uint64_t mask = wave[id] == Tri::kOne ? full_mask(1) : 0;
      work.connect(id, {donor});
      Cell& mc = work.cell(id);
      mc.kind = CellKind::kLut;
      mc.lut_mask = mask;
      const std::string mc_name(mc.name);
      r.key[mc_name] = mask;
      r.annotations.locked_constants.insert(mc_name);
      ++converted;
    }
    if (converted == 0) return;
    r.cells_replaced += converted;
    // Drop the disconnected constant cones; conversions that went dead
    // anyway (all their readers were converted away) leave the key too.
    work = strip_dead_logic(work);
    for (auto it = r.key.begin(); it != r.key.end();) {
      if (work.find(it->first) == kNullCell) {
        r.annotations.locked_constants.erase(it->first);
        --r.cells_replaced;
        it = r.key.erase(it);
      } else {
        ++it;
      }
    }
  }

  void inject_constants(DefenseResult& r, int inject,
                        std::uint64_t seed) const {
    Netlist& work = r.locked;
    const std::vector<Tri> wave = all_x_wave(work);
    struct Site {
      CellId cell;
      std::size_t slot;
    };
    // Prefer flip-flop D-pin edges: a mis-keyed constant there corrupts the
    // next state on every cycle, so the lock is never functionally vacuous
    // (an arbitrary gate input can be masked by a biased sibling input).
    // Combinational-only netlists fall back to all live edges.
    std::vector<Site> sites;
    const auto collect = [&](bool dff_pins_only) {
      for (CellId id = 0; id < work.size(); ++id) {
        const Cell& c = work.cell(id);
        if (dff_pins_only && c.kind != CellKind::kDff) continue;
        for (std::size_t slot = 0; slot < c.fanins.size(); ++slot) {
          if (definite(wave[c.fanins[slot]])) continue;
          sites.push_back({id, slot});
        }
      }
    };
    collect(/*dff_pins_only=*/true);
    if (sites.empty()) collect(/*dff_pins_only=*/false);
    if (sites.empty()) return;
    Rng rng(seed);
    const std::vector<Site> chosen = rng.sample(
        std::span<const Site>(sites), static_cast<std::size_t>(inject));
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      const Site site = chosen[i];
      const CellId driver = work.cell(site.cell).fanins[site.slot];
      const std::string name =
          unique_name(work, "lc" + std::to_string(i), {"_x"});
      const CellId lc = work.add_lut(name, {driver}, 0);
      const CellId x =
          work.add_gate(CellKind::kXor, name + "_x", {driver, lc});
      work.replace_fanin(site.cell, site.slot, x);
      r.key[name] = 0;
      r.annotations.locked_constants.insert(name);
      r.cells_added += 2;
    }
  }
};

}  // namespace

std::unique_ptr<DefenseBase> make_const_lock() {
  return std::make_unique<ConstLock>();
}

}  // namespace stt::defense
