// The paper's three STT selection algorithms as registry defenses.
//
// Each adapter is a thin shim over run_secure_flow with the algorithm
// pinned; given the same seed/timing-margin/activity it produces the
// bit-identical hybrid netlist, key, overhead and security reports as a
// direct call (pinned by DefenseAdaptersMatchDirectFlow in
// tests/defense_test.cpp), so pre-registry campaign rows are reproducible
// through the registry path.
#include <sstream>

#include "core/flow.hpp"
#include "defense/registry.hpp"

namespace stt::defense {

namespace {

constexpr Knob<SelectionOptions> kIndependentKnobs[] = {
    {.name = "count", .doc = "number of gates to replace",
     .field = &SelectionOptions::indep_count, .min = 1},
};

constexpr Knob<SelectionOptions> kDependentKnobs[] = {
    {.name = "paths", .doc = "longest I/O paths fully replaced",
     .field = &SelectionOptions::dep_num_paths, .min = 1},
};

constexpr Knob<SelectionOptions> kParametricKnobs[] = {
    {.name = "paths", .doc = "timing paths to draw from (0 = auto-scale)",
     .field = &SelectionOptions::para_num_paths},
    {.name = "fraction", .doc = "per-path gate selection fraction",
     .field = &SelectionOptions::para_gate_fraction, .max = 1,
     .min_open = true},
    {.name = "retries", .doc = "timing-violation re-draws per path",
     .field = &SelectionOptions::para_max_retries},
};

class PaperDefense final : public TunedDefense<SelectionOptions> {
 public:
  PaperDefense(SelectionAlgorithm alg, std::string_view kind,
               std::string_view description,
               std::span<const Knob<SelectionOptions>> knobs)
      : TunedDefense(kind, description, knobs), alg_(alg) {}

  DefenseResult apply(const Netlist& original, const TechLibrary& lib,
                      const DefenseOptions& opt,
                      const Tuning& tuning) const override {
    FlowOptions fo;
    fo.algorithm = alg_;
    fo.selection = tuned(tuning);
    fo.selection.seed = opt.seed;
    fo.selection.timing_margin = opt.timing_margin;
    fo.activity = opt.activity;

    FlowResult flow = run_secure_flow(original, lib, fo);
    DefenseResult r;
    r.locked = std::move(flow.hybrid);
    r.key = flow.selection.key;
    r.selection = std::move(flow.selection);
    // Forward the flow's own sign-off verbatim (bit-identity with the
    // direct call) instead of recomputing through finish().
    r.overhead = flow.overhead;
    r.security = flow.security;
    r.cells_replaced = static_cast<int>(r.selection.replaced.size());
    count_key(r);
    std::ostringstream d;
    d << r.cells_replaced << " STT LUTs, " << r.selection.paths_considered
      << " pooled paths";
    r.detail = d.str();
    return r;
  }

 private:
  SelectionAlgorithm alg_;
};

}  // namespace

std::unique_ptr<DefenseBase> make_paper_defense(SelectionAlgorithm alg) {
  switch (alg) {
    case SelectionAlgorithm::kIndependent:
      return std::make_unique<PaperDefense>(
          alg, "independent",
          "paper IV-A.1: random independent STT-LUT replacement",
          kIndependentKnobs);
    case SelectionAlgorithm::kDependent:
      return std::make_unique<PaperDefense>(
          alg, "dependent",
          "paper IV-A.2: full timing-path dependent replacement",
          kDependentKnobs);
    case SelectionAlgorithm::kParametric:
      break;
  }
  return std::make_unique<PaperDefense>(
      alg, "parametric",
      "paper IV-A.3: parametric-aware dependent replacement",
      kParametricKnobs);
}

}  // namespace stt::defense
