#include "core/selection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "timing/sta.hpp"
#include "util/timer.hpp"

namespace stt {

std::string algorithm_name(SelectionAlgorithm alg) {
  switch (alg) {
    case SelectionAlgorithm::kIndependent: return "independent";
    case SelectionAlgorithm::kDependent: return "dependent";
    case SelectionAlgorithm::kParametric: return "parametric";
  }
  return "?";
}

namespace {

bool lut_replaceable(const Netlist& nl, CellId id) {
  const Cell& c = nl.cell(id);
  return is_replaceable_gate(c.kind) && c.fanin_count() <= kMaxLutInputs;
}

// Tracks replacements so a timing-violating draw can be reverted.
class ReplacementJournal {
 public:
  explicit ReplacementJournal(Netlist& nl) : nl_(&nl) {}

  bool replace(CellId id) {
    if (!lut_replaceable(*nl_, id)) return false;
    entries_.push_back({id, nl_->cell(id).kind});
    nl_->replace_with_lut(id);
    return true;
  }

  void undo_last() {
    const Entry e = entries_.back();
    entries_.pop_back();
    Cell& c = nl_->cell(e.id);
    c.kind = e.original;
    c.lut_mask = 0;
  }

  void commit_into(SelectionResult& result) {
    for (const auto& e : entries_) {
      result.replaced.push_back(e.id);
      result.key[std::string(nl_->cell(e.id).name)] = nl_->cell(e.id).lut_mask;
    }
    entries_.clear();
  }

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    CellId id;
    CellKind original;
  };
  Netlist* nl_;
  std::vector<Entry> entries_;
};

}  // namespace

SelectionResult GateSelector::run(Netlist& nl, SelectionAlgorithm alg,
                                  const SelectionOptions& opt) const {
  if (nl.stats().luts != 0) {
    throw std::invalid_argument("GateSelector: netlist already hybrid");
  }
  Rng rng(opt.seed ^ (static_cast<std::uint64_t>(alg) << 56));
  const Timer timer;

  // Critical-path filter: the pool must not contain the timing-critical
  // path, so replacements start from slack-rich regions.
  Sta sta(*lib_);
  const TimingResult timing0 = sta.analyze(nl);
  std::unordered_set<CellId> critical(timing0.critical_path.begin(),
                                      timing0.critical_path.end());
  const auto exclude = [&critical](const IoPath& path) {
    for (const CellId id : path.cells) {
      if (critical.count(id)) return true;
    }
    return false;
  };
  const std::vector<IoPath> pool = build_path_pool(nl, rng, opt.pool, exclude);

  SelectionResult result;
  switch (alg) {
    case SelectionAlgorithm::kIndependent:
      result = run_independent(nl, opt, rng, pool);
      break;
    case SelectionAlgorithm::kDependent:
      result = run_dependent(nl, opt, rng, pool);
      break;
    case SelectionAlgorithm::kParametric:
      result = run_parametric(nl, opt, rng, pool);
      break;
  }
  result.algorithm = alg;
  result.paths_considered = static_cast<int>(pool.size());
  result.selection_seconds = timer.seconds();
  return result;
}

SelectionResult GateSelector::run_independent(
    Netlist& nl, const SelectionOptions& opt, Rng& rng,
    const std::vector<IoPath>& pool) const {
  SelectionResult result;
  // Candidate set: replaceable gates on the pooled paths; if the pool is
  // degenerate (tiny or combinational circuits), fall back to all gates.
  std::unordered_set<CellId> seen;
  std::vector<CellId> candidates;
  for (const IoPath& path : pool) {
    for (const CellId id : path.cells) {
      if (lut_replaceable(nl, id) && seen.insert(id).second) {
        candidates.push_back(id);
      }
    }
  }
  if (static_cast<int>(candidates.size()) < opt.indep_count) {
    for (const CellId id : nl.logic_cells()) {
      if (lut_replaceable(nl, id) && seen.insert(id).second) {
        candidates.push_back(id);
      }
    }
  }
  rng.shuffle(candidates);
  ReplacementJournal journal(nl);
  for (const CellId id : candidates) {
    if (static_cast<int>(journal.size()) >= opt.indep_count) break;
    journal.replace(id);
  }
  journal.commit_into(result);
  return result;
}

SelectionResult GateSelector::run_dependent(
    Netlist& nl, const SelectionOptions& opt, Rng& rng,
    const std::vector<IoPath>& pool) const {
  SelectionResult result;
  if (pool.empty()) return result;

  // Algorithm 1: iterate over selected longest I/O paths and replace every
  // gate on their composing timing paths. Paths are drawn from the deepest
  // quartile so the chain of dependent LUTs is as long as possible.
  const std::size_t top =
      std::max<std::size_t>(1, (pool.size() + 3) / 4);
  std::vector<std::size_t> indices(top);
  for (std::size_t i = 0; i < top; ++i) indices[i] = i;
  rng.shuffle(indices);

  ReplacementJournal journal(nl);
  const int n_paths = std::min<int>(opt.dep_num_paths,
                                    static_cast<int>(indices.size()));
  for (int p = 0; p < n_paths; ++p) {
    const IoPath& path = pool[indices[p]];
    for (const auto& segment : path.segments(nl)) {
      for (const CellId id : segment) {
        if (nl.cell(id).kind != CellKind::kLut) journal.replace(id);
      }
    }
  }
  journal.commit_into(result);
  return result;
}

SelectionResult GateSelector::run_parametric(
    Netlist& nl, const SelectionOptions& opt, Rng& rng,
    const std::vector<IoPath>& pool) const {
  SelectionResult result;
  if (pool.empty()) return result;

  Sta sta(*lib_);
  const double t0 = sta.analyze(nl).critical_delay_ps;
  const double budget_ps = t0 * (1.0 + opt.timing_margin);
  const auto meets_timing = [&] {
    return sta.analyze(nl).critical_delay_ps <= budget_ps + 1e-9;
  };

  // The selection unit is the *timing path* (a PI/FF -> FF/PO combinational
  // segment): gather the segments of the pooled I/O paths and randomly pick
  // the predetermined number of them.
  std::vector<std::vector<CellId>> segments;
  for (const IoPath& path : pool) {
    for (auto& segment : path.segments(nl)) {
      if (!segment.empty()) segments.push_back(std::move(segment));
    }
  }
  rng.shuffle(segments);
  int want_paths = opt.para_num_paths;
  if (want_paths <= 0) {
    const auto gates = static_cast<long long>(nl.stats().gates);
    want_paths = static_cast<int>(std::clamp(gates / 400ll, 2ll, 16ll));
  }
  const int n_paths =
      std::min<int>(want_paths, static_cast<int>(segments.size()));

  ReplacementJournal journal(nl);
  std::unordered_set<CellId> on_targeted_path;
  std::vector<CellId> usl;

  for (int p = 0; p < n_paths; ++p) {
    const std::vector<CellId>& segment = segments[p];
    for (const CellId id : segment) on_targeted_path.insert(id);

    // Candidates on this timing path: replaceable, >= para_min_fanin inputs.
    std::vector<CellId> candidates;
    for (const CellId id : segment) {
      if (nl.cell(id).kind != CellKind::kLut && lut_replaceable(nl, id) &&
          nl.cell(id).fanin_count() >= opt.para_min_fanin) {
        candidates.push_back(id);
      }
    }
    if (candidates.empty()) continue;

    // L1: random subset, re-drawn (with a shrinking fraction, so the loop
    // terminates) until the design timing constraint holds.
    double fraction = opt.para_gate_fraction;
    std::vector<CellId> selected;
    for (int attempt = 0; attempt <= opt.para_max_retries; ++attempt) {
      const auto want = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::lround(fraction * static_cast<double>(candidates.size()))));
      rng.shuffle(candidates);
      selected.assign(candidates.begin(),
                      candidates.begin() +
                          std::min(want, candidates.size()));
      const std::size_t before = journal.size();
      for (const CellId id : selected) journal.replace(id);
      if (meets_timing()) break;
      while (journal.size() > before) journal.undo_last();
      selected.clear();
      ++result.timing_retries;
      fraction *= 0.75;
    }

    // Unselected path gates feed the USL.
    std::unordered_set<CellId> chosen(selected.begin(), selected.end());
    for (const CellId id : candidates) {
      if (!chosen.count(id)) usl.push_back(id);
    }
  }

  // USL closure: replace the immediate off-path drivers and readers of every
  // unselected gate, preventing partial truth tables through them. Each
  // neighbour is accepted only if the design still meets timing, so the
  // closure harvests as many gates as the slack allows.
  if (opt.usl_closure) {
    const std::size_t before_usl = journal.size();
    for (const CellId gate : usl) {
      const Cell& c = nl.cell(gate);
      std::vector<CellId> neighbours(c.fanins.begin(), c.fanins.end());
      neighbours.insert(neighbours.end(), c.fanouts.begin(), c.fanouts.end());
      for (const CellId n : neighbours) {
        if (on_targeted_path.count(n)) continue;
        if (nl.cell(n).kind == CellKind::kLut) continue;
        if (!journal.replace(n)) continue;
        if (meets_timing()) {
          ++result.usl_replacements;
        } else {
          journal.undo_last();
        }
      }
    }
    (void)before_usl;
  }

  journal.commit_into(result);
  return result;
}

}  // namespace stt
