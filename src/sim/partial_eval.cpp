#include "sim/partial_eval.hpp"

#include <algorithm>
#include <functional>

namespace stt {

LutKnowledgeMap unknown_luts(const Netlist& nl) {
  LutKnowledgeMap luts;
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.kind != CellKind::kLut) continue;
    LutKnowledge k;
    k.rows = num_rows(c.fanin_count());
    luts.emplace(id, k);
  }
  return luts;
}

PartialEvaluator::PartialEvaluator(const Netlist& nl,
                                   const LutKnowledgeMap& luts)
    : nl_(&nl), luts_(&luts), order_(nl.topo_order()) {}

Tri PartialEvaluator::eval_partial_lut(CellId id,
                                       std::span<const Tri> fin) const {
  const auto it = luts_->find(id);
  if (it == luts_->end()) {
    // Not tracked: treat as configured.
    return eval_cell_tri(nl_->cell(id), fin);
  }
  const LutKnowledge& st = it->second;
  // The output is known only when every input-consistent row is resolved
  // and all resolved rows agree.
  bool saw0 = false;
  bool saw1 = false;
  for (std::uint32_t row = 0; row < st.rows; ++row) {
    bool consistent = true;
    for (std::size_t i = 0; i < fin.size(); ++i) {
      const bool bit = row & (1u << i);
      if ((fin[i] == Tri::kOne && !bit) || (fin[i] == Tri::kZero && bit)) {
        consistent = false;
        break;
      }
    }
    if (!consistent) continue;
    if (!(st.known_mask & (1ull << row))) return Tri::kX;
    ((st.value_mask >> row) & 1ull) ? saw1 = true : saw0 = true;
    if (saw0 && saw1) return Tri::kX;
  }
  return saw1 ? Tri::kOne : Tri::kZero;
}

Tri PartialEvaluator::eval_cell(CellId id, std::span<const Tri> fin) const {
  const Cell& c = nl_->cell(id);
  if (c.kind == CellKind::kLut) return eval_partial_lut(id, fin);
  return eval_cell_tri(c, fin);
}

std::vector<Tri> PartialEvaluator::eval(const std::vector<Tri>& inputs) const {
  const Netlist& nl = *nl_;
  std::vector<Tri> wave(nl.size(), Tri::kX);
  std::size_t slot = 0;
  for (const CellId id : nl.inputs()) wave[id] = inputs[slot++];
  for (const CellId id : nl.dffs()) wave[id] = inputs[slot++];

  Tri fin[kMaxGateInputs];
  for (const CellId id : order_) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kInput || c.kind == CellKind::kDff) continue;
    const int n = c.fanin_count();
    for (int i = 0; i < n; ++i) fin[i] = wave[c.fanins[i]];
    wave[id] = eval_cell(id, std::span<const Tri>(fin, n));
  }
  return wave;
}

// ---------------------------------------------------------------------------
// ForceProbe
// ---------------------------------------------------------------------------

ForceProbe::ForceProbe(const PartialEvaluator& eval) : eval_(&eval) {
  const Netlist& nl = eval.netlist();
  const std::vector<CellId>& order = eval.order();
  rank_.assign(nl.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    rank_[order[i]] = static_cast<std::uint32_t>(i);
  }
  queued_.assign(nl.size(), 0);
  obs_.assign(nl.outputs().begin(), nl.outputs().end());
  for (const CellId ff : nl.dffs()) obs_.push_back(nl.cell(ff).fanins.at(0));
  obs_index_.assign(nl.size(), -1);
  for (std::size_t i = obs_.size(); i-- > 0;) {
    obs_index_[obs_[i]] = static_cast<int>(i);
  }
}

void ForceProbe::rebase(std::span<const Tri> base) {
  touched_.clear();
  lane_[0].assign(base.begin(), base.end());
  lane_[1] = lane_[0];
}

void ForceProbe::restore() {
  for (const auto& [id, v] : touched_) lane_[0][id] = lane_[1][id] = v;
  touched_.clear();
}

Tri ForceProbe::eval_at(int lane, CellId id) const {
  const Cell& c = eval_->netlist().cell(id);
  const std::vector<Tri>& wave = lane_[lane];
  Tri fin[kMaxGateInputs];
  const int n = c.fanin_count();
  for (int i = 0; i < n; ++i) fin[i] = wave[c.fanins[i]];
  return eval_->eval_cell(id, std::span<const Tri>(fin, n));
}

void ForceProbe::schedule_readers(CellId id) {
  const Netlist& nl = eval_->netlist();
  for (const CellId reader : nl.cell(id).fanouts) {
    // A DFF D pin is a sink (the state bit is a source of its own), and an
    // input has no driver to be re-evaluated from.
    const CellKind k = nl.cell(reader).kind;
    if (k == CellKind::kDff || k == CellKind::kInput) continue;
    if (queued_[reader]) continue;
    queued_[reader] = 1;
    heap_.push_back(rank_[reader]);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
}

CellId ForceProbe::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  const CellId id = eval_->order()[heap_.back()];
  heap_.pop_back();
  queued_[id] = 0;
  return id;
}

void ForceProbe::refresh(CellId cell) {
  restore();
  // Both lanes equal the base here: re-evaluate through lane 0, mirror.
  const auto commit = [this](CellId id) {
    const Tri v = eval_at(0, id);
    if (v == lane_[0][id]) return;
    lane_[0][id] = lane_[1][id] = v;
    schedule_readers(id);
  };
  commit(cell);
  while (!heap_.empty()) commit(pop());
}

void ForceProbe::force(CellId cell) {
  restore();
  ++probes_;
  // Readers are popped in rank order and every driver of a popped cell
  // ranks lower, so each cell is assigned at most once: the value it holds
  // when first touched is its base value.
  const auto assign = [this](CellId id, Tri v0, Tri v1) {
    if (v0 == lane_[0][id] && v1 == lane_[1][id]) return;
    touched_.emplace_back(id, lane_[0][id]);
    lane_[0][id] = v0;
    lane_[1][id] = v1;
    schedule_readers(id);
  };
  assign(cell, Tri::kZero, Tri::kOne);
  while (!heap_.empty()) {
    const CellId id = pop();
    ++evaluated_;
    assign(id, eval_at(0, id), eval_at(1, id));
  }
}

bool ForceProbe::masked() const {
  for (const CellId p : obs_) {
    if (lane_[0][p] == Tri::kX || lane_[0][p] != lane_[1][p]) return false;
  }
  return true;
}

int ForceProbe::first_sensitized() const {
  // Untouched cells hold the base value in both lanes, so only the touched
  // list can contain a sensitized observation point.
  int best = -1;
  for (const auto& [id, base] : touched_) {
    const int index = obs_index_[id];
    if (index < 0 || (best >= 0 && index >= best)) continue;
    const Tri v0 = lane_[0][id];
    const Tri v1 = lane_[1][id];
    if (v0 == Tri::kX || v1 == Tri::kX || v0 == v1) continue;
    best = index;
  }
  return best;
}

}  // namespace stt
