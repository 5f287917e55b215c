// Latch-based logic locking (after Sweeney et al., "Latch-Based Logic
// Locking"), lowered onto the LUT key representation.
//
// On a sampled timing-path edge u -> v the defense inserts a decoy
// flip-flop dl_q capturing u and a 2-input LUT mux dl = LUT(u, dl_q) in
// front of v. The configured mask 0xA selects input 0 (u): the decoy is
// transparent and functionality is preserved. The plausible wrong
// configuration 0xC selects the flip-flop, turning the construct into a
// real latch that delays the net by one cycle — a purely sequential
// corruption that combinational-only reasoning misses. To the foundry the
// mux is an unconfigured LUT2, so which inserted latches are decoys (and
// which polarity is transparent) is part of the key.
#include <set>
#include <sstream>
#include <utility>

#include "defense/registry.hpp"
#include "graph/paths.hpp"
#include "util/rng.hpp"

namespace stt::defense {

namespace {

/// LUT2 row index is in0 + 2*in1, so f(a, b) = a is rows {1, 3} = 0xA
/// (transparent) and f(a, b) = b is rows {2, 3} = 0xC (latched).
constexpr std::uint64_t kSelectData = 0xA;

struct LatchOptions {
  int count = 8;
};

constexpr Knob<LatchOptions> kLatchKnobs[] = {
    {.name = "count", .doc = "decoy latches to insert (clamped to edge count)",
     .field = &LatchOptions::count, .min = 1},
};

class LatchLock final : public TunedDefense<LatchOptions> {
 public:
  LatchLock()
      : TunedDefense("latch",
                     "decoy-latch insertion on timing-path edges "
                     "(latch-based locking)",
                     kLatchKnobs) {}

  DefenseResult apply(const Netlist& original, const TechLibrary& lib,
                      const DefenseOptions& opt,
                      const Tuning& tuning) const override {
    const int count = tuned(tuning).count;

    DefenseResult r;
    r.locked = original;
    Netlist& work = r.locked;

    // Candidate edges come from the paper's pooled I/O paths (graph/paths):
    // consecutive path cells u -> v give the timing-relevant edges a latch
    // retimes. Deduplicate (v, slot) keeping first-occurrence order so the
    // sample is deterministic in path-pool order.
    Rng rng(opt.seed);
    const std::vector<IoPath> pool = build_path_pool(work, rng);
    struct Edge {
      CellId victim;
      std::size_t slot;
    };
    std::vector<Edge> edges;
    std::set<std::pair<CellId, std::size_t>> seen;
    for (const IoPath& path : pool) {
      for (std::size_t i = 0; i + 1 < path.cells.size(); ++i) {
        const CellId u = path.cells[i];
        const CellId v = path.cells[i + 1];
        const Cell& victim = work.cell(v);
        for (std::size_t slot = 0; slot < victim.fanins.size(); ++slot) {
          if (victim.fanins[slot] != u) continue;
          if (seen.insert({v, slot}).second) edges.push_back({v, slot});
          break;
        }
      }
    }
    if (edges.empty()) {
      throw std::invalid_argument(
          "defense \"latch\": no timing-path edges found");
    }

    const std::vector<Edge> chosen = rng.sample(
        std::span<const Edge>(edges), static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      const Edge edge = chosen[i];
      const CellId u = work.cell(edge.victim).fanins[edge.slot];
      const std::string name =
          unique_name(work, "dl" + std::to_string(i), {"_q"});
      const CellId q = work.add_dff(name + "_q", u);
      const CellId mux = work.add_lut(name, {u, q}, kSelectData);
      work.replace_fanin(edge.victim, edge.slot, mux);
      r.key[name] = kSelectData;
      r.annotations.decoy_latches.insert(name);
      r.cells_added += 2;
    }
    work.check();

    finish(r, original, lib, opt);
    std::ostringstream d;
    d << chosen.size() << " decoy latches over " << pool.size()
      << " pooled paths";
    r.detail = d.str();
    return r;
  }
};

}  // namespace

std::unique_ptr<DefenseBase> make_latch_lock() {
  return std::make_unique<LatchLock>();
}

}  // namespace stt::defense
