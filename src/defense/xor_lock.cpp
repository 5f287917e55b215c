// XOR/XNOR key-gate insertion — the classic random-logic-locking baseline
// (EPIC, Roy et al., DATE'08), lowered onto the LUT key representation.
//
// A key gate on net d is a single-input LUT whose configured mask is the
// key bit: BUF (0b10) passes d through, NOT (0b01) inverts. The XNOR
// flavour prepends a CMOS inverter and configures the LUT as NOT, so the
// composition is again transparent but the correct key bit is the opposite
// polarity — the structural mix prevents an attacker from reading the key
// straight off the gate flavour, exactly as XOR/XNOR mixing does in EPIC.
// To the foundry both flavours are an unconfigured 1-input LUT.
#include <sstream>

#include "defense/registry.hpp"
#include "util/rng.hpp"

namespace stt::defense {

namespace {

constexpr std::uint64_t kLut1Buf = 0b10;
constexpr std::uint64_t kLut1Not = 0b01;

struct XorOptions {
  int count = 16;
  double xnor = 0.5;
};

constexpr Knob<XorOptions> kXorKnobs[] = {
    {.name = "count", .doc = "key gates to insert (clamped to edge count)",
     .field = &XorOptions::count, .min = 1},
    {.name = "xnor", .doc = "fraction of gates using the XNOR flavour",
     .field = &XorOptions::xnor, .max = 1},
};

class XorLock final : public TunedDefense<XorOptions> {
 public:
  XorLock()
      : TunedDefense("xor",
                     "random XOR/XNOR key-gate insertion (EPIC-style "
                     "baseline)",
                     kXorKnobs) {}

  DefenseResult apply(const Netlist& original, const TechLibrary& lib,
                      const DefenseOptions& opt,
                      const Tuning& tuning) const override {
    const XorOptions knobs = tuned(tuning);

    DefenseResult r;
    r.locked = original;
    Netlist& work = r.locked;

    // Candidate sites: every fan-in edge of every cell, in (cell, slot)
    // order — gate inputs, DFF D pins and output drivers alike.
    struct Site {
      CellId cell;
      std::size_t slot;
    };
    std::vector<Site> sites;
    for (CellId id = 0; id < work.size(); ++id) {
      const Cell& c = work.cell(id);
      for (std::size_t slot = 0; slot < c.fanins.size(); ++slot) {
        sites.push_back({id, slot});
      }
    }
    if (sites.empty()) {
      throw std::invalid_argument("defense \"xor\": netlist has no edges");
    }

    Rng rng(opt.seed);
    const std::vector<Site> chosen = rng.sample(
        std::span<const Site>(sites), static_cast<std::size_t>(knobs.count));

    int xnor_gates = 0;
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      const Site site = chosen[i];
      const CellId driver = work.cell(site.cell).fanins[site.slot];
      const std::string name =
          unique_name(work, "kg" + std::to_string(i), {"_inv"});
      const bool xnor_flavour = rng.chance(knobs.xnor);
      CellId kg;
      if (xnor_flavour) {
        const CellId inv =
            work.add_gate(CellKind::kNot, name + "_inv", {driver});
        kg = work.add_lut(name, {inv}, kLut1Not);
        r.cells_added += 2;
        ++xnor_gates;
      } else {
        kg = work.add_lut(name, {driver}, kLut1Buf);
        r.cells_added += 1;
      }
      work.replace_fanin(site.cell, site.slot, kg);
      r.key[name] = work.cell(kg).lut_mask;
      r.annotations.key_gates.insert(name);
    }
    work.check();

    finish(r, original, lib, opt);
    std::ostringstream d;
    d << chosen.size() << " key gates (" << xnor_gates << " xnor)";
    r.detail = d.str();
    return r;
  }
};

}  // namespace

std::unique_ptr<DefenseBase> make_xor_lock() {
  return std::make_unique<XorLock>();
}

}  // namespace stt::defense
