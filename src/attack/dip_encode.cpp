#include "attack/dip_encode.hpp"

#include <stdexcept>

namespace stt {

namespace {

using sat::Lit;
using sat::Var;

void encode_xor2_lits(sat::Solver& s, Var t, Lit a, Lit b) {
  s.add_ternary(sat::neg(t), a, b);
  s.add_ternary(sat::neg(t), ~a, ~b);
  s.add_ternary(sat::pos(t), ~a, b);
  s.add_ternary(sat::pos(t), a, ~b);
}

}  // namespace

DipEncoder::DipEncoder(sat::Solver& solver, const Netlist& nl,
                       std::vector<const KeyVars*> key_copies, int frames)
    : solver_(&solver),
      nl_(&nl),
      frames_(frames),
      n_(static_cast<CellId>(nl.size())),
      topo_(nl.topo_order()) {
  if (key_copies.empty()) {
    throw std::invalid_argument("DipEncoder: no key copies");
  }
  if (frames < kScan) {
    throw std::invalid_argument("DipEncoder: frames must be >= 1 (or kScan)");
  }
  const std::size_t n = nl.size();
  key_by_cell_.resize(key_copies.size());
  for (std::size_t copy = 0; copy < key_copies.size(); ++copy) {
    key_by_cell_[copy].resize(n);
    for (CellId id = 0; id < static_cast<CellId>(n); ++id) {
      const Cell& c = nl.cell(id);
      if (c.kind != CellKind::kLut) continue;
      const std::string cname(c.name);
      const auto it = key_copies[copy]->find(cname);
      if (it == key_copies[copy]->end()) {
        throw std::invalid_argument("DipEncoder: key copy missing LUT '" +
                                    cname + "'");
      }
      if (it->second.size() != num_rows(c.fanin_count())) {
        throw std::invalid_argument("DipEncoder: key row count mismatch '" +
                                    cname + "'");
      }
      key_by_cell_[copy][id] = it->second;
    }
  }
  const std::size_t slots = n * static_cast<std::size_t>(frame_count());
  vals_.resize(slots);
  copy_var_.assign(key_copies.size(), std::vector<Var>(slots, -1));
  var_stamp_.assign(slots, 0);
  needed_stamp_.assign(slots, 0);
}

bool DipEncoder::normalize_gate(const Cell& c, CellId off,
                                std::vector<EncVal>& lits, bool& invert,
                                EncVal& folded) const {
  lits.clear();
  const CellKind kind = c.kind;
  const bool is_xor = (kind == CellKind::kXor || kind == CellKind::kXnor);
  // AND-normal form: OR(x) = ~AND(~x), so OR-family fan-ins enter negated.
  const bool negate_in = (kind == CellKind::kOr || kind == CellKind::kNor);
  invert = (kind == CellKind::kNand || kind == CellKind::kOr ||
            kind == CellKind::kXnor);

  for (const CellId f : c.fanins) {
    EncVal v = vals_[off + f];
    if (negate_in) v.neg = !v.neg;
    if (v.kind == EncVal::kConst) {
      if (is_xor) {
        invert ^= v.neg;
        continue;
      }
      if (!v.neg) {  // AND absorbs on constant 0
        folded = make_const(invert);
        return true;
      }
      continue;  // neutral constant 1
    }
    bool merged = false;
    for (std::size_t i = 0; i < lits.size(); ++i) {
      if (!lits[i].same_node(v)) continue;
      if (is_xor) {
        // x ^ x = 0, x ^ ~x = 1: the pair cancels either way.
        invert ^= (lits[i].neg != v.neg);
        lits.erase(lits.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (lits[i].neg != v.neg) {
        folded = make_const(invert);  // x & ~x = 0
        return true;
      }
      merged = true;
      break;
    }
    if (!merged) lits.push_back(v);
  }

  if (lits.empty()) {
    // Empty AND is 1, empty XOR is 0 — both then xor'ed with `invert`.
    folded = make_const(is_xor ? invert : !invert);
    return true;
  }
  if (lits.size() == 1) {
    folded = lits[0];
    folded.neg ^= invert;
    return true;
  }
  return false;
}

void DipEncoder::lut_unknowns(const Cell& c, CellId off,
                              std::vector<EncVal>& unknowns,
                              std::vector<int>& positions,
                              std::uint32_t& base) const {
  unknowns.clear();
  positions.clear();
  base = 0;
  for (std::size_t i = 0; i < c.fanins.size(); ++i) {
    const EncVal v = vals_[off + c.fanins[i]];
    if (v.kind == EncVal::kConst) {
      if (v.neg) base |= (1u << i);
    } else {
      unknowns.push_back(v);
      positions.push_back(static_cast<int>(i));
    }
  }
}

DipEncoder::EncVal DipEncoder::fold_cell(CellId off, CellId id) {
  const Cell& c = nl_->cell(id);
  switch (c.kind) {
    case CellKind::kConst0:
      return make_const(false);
    case CellKind::kConst1:
      return make_const(true);
    case CellKind::kBuf:
      return vals_[off + c.fanins[0]];
    case CellKind::kNot: {
      EncVal v = vals_[off + c.fanins[0]];
      v.neg = !v.neg;
      return v;
    }
    case CellKind::kAnd:
    case CellKind::kNand:
    case CellKind::kOr:
    case CellKind::kNor:
    case CellKind::kXor:
    case CellKind::kXnor: {
      bool invert = false;
      EncVal folded;
      if (normalize_gate(c, off, lit_scratch_, invert, folded)) return folded;
      return {EncVal::kCell, false, off + id, 0};
    }
    case CellKind::kLut: {
      std::uint32_t base = 0;
      lut_unknowns(c, off, lit_scratch_, pos_scratch_, base);
      const auto it = known_.find(id);
      const auto row_known = [&](std::uint32_t row) {
        return it != known_.end() && (it->second.known_mask >> row) & 1ull;
      };
      const auto row_value = [&](std::uint32_t row) {
        return ((it->second.value_mask >> row) & 1ull) != 0;
      };
      if (lit_scratch_.empty()) {
        if (row_known(base)) return make_const(row_value(base));
        return {EncVal::kKey, false, id, base};
      }
      // The selected rows range over the unknown-input combinations; when
      // every candidate row is already resolved the LUT is a plain function
      // of its unknown inputs — constant if they agree, an alias if a
      // single unknown input decides.
      const std::uint32_t combos = 1u << lit_scratch_.size();
      bool all_known = true;
      bool all_equal = true;
      bool first_val = false;
      for (std::uint32_t m = 0; m < combos && all_known; ++m) {
        std::uint32_t row = base;
        for (std::size_t j = 0; j < pos_scratch_.size(); ++j) {
          if ((m >> j) & 1u) row |= (1u << pos_scratch_[j]);
        }
        if (!row_known(row)) {
          all_known = false;
          break;
        }
        const bool v = row_value(row);
        if (m == 0) {
          first_val = v;
        } else if (v != first_val) {
          all_equal = false;
        }
      }
      if (all_known) {
        if (all_equal) return make_const(first_val);
        if (lit_scratch_.size() == 1) {
          // Two resolved rows that differ: out follows (or inverts) the
          // single unknown input.
          EncVal v = lit_scratch_[0];
          v.neg ^= first_val;  // first_val is the row with input = 0
          return v;
        }
      }
      return {EncVal::kCell, false, off + id, 0};
    }
    default:
      throw std::logic_error("DipEncoder: unexpected cell kind in fold");
  }
}

void DipEncoder::fold_pattern(const std::vector<bool>& inputs) {
  std::size_t bit = 0;
  for (int f = 0; f < frame_count(); ++f) {
    const CellId off = static_cast<CellId>(f) * n_;
    for (const CellId id : nl_->inputs()) {
      vals_[off + id] = make_const(inputs[bit++]);
    }
    for (const CellId id : nl_->dffs()) {
      if (frames_ == kScan) {
        vals_[off + id] = make_const(inputs[bit++]);
      } else if (f == 0) {
        vals_[off + id] = make_const(false);  // reset state
      } else {
        vals_[off + id] = vals_[off - n_ + nl_->cell(id).fanins.at(0)];
      }
    }
    for (const CellId id : topo_) {
      const Cell& c = nl_->cell(id);
      if (c.kind == CellKind::kInput || c.kind == CellKind::kDff) continue;
      vals_[off + id] = fold_cell(off, id);
    }
  }
}

void DipEncoder::resolve_row(CellId lut, std::uint32_t row, bool value,
                             DipEncodeStats& stats) {
  LutKnowledge& k = known_[lut];
  if (k.rows == 0) k.rows = num_rows(nl_->cell(lut).fanin_count());
  const std::uint64_t bit = 1ull << row;
  if (k.known_mask & bit) {
    if ((((k.value_mask >> row) & 1ull) != 0) != value) {
      throw std::logic_error(
          "DipEncoder: oracle response contradicts a resolved key row");
    }
    return;
  }
  k.known_mask |= bit;
  if (value) k.value_mask |= bit;
  ++resolved_bits_;
  ++stats.key_rows_resolved;
  for (std::size_t copy = 0; copy < key_by_cell_.size(); ++copy) {
    const Var kv = key_by_cell_[copy][lut][row];
    solver_->add_unit(value ? sat::pos(kv) : sat::neg(kv));
    ++stats.clauses_added;
  }
}

void DipEncoder::mark_needed(CellId slot) {
  dfs_stack_.clear();
  dfs_stack_.push_back(slot);
  while (!dfs_stack_.empty()) {
    const CellId cur = dfs_stack_.back();
    dfs_stack_.pop_back();
    if (needed_stamp_[cur] == epoch_) continue;
    needed_stamp_[cur] = epoch_;
    const CellId off = cur - cur % n_;
    const Cell& c = nl_->cell(cur - off);
    // Follow only the literals that survive normalization — a cancelled
    // fan-in contributes nothing to the emitted clauses.
    if (c.kind == CellKind::kLut) {
      std::uint32_t base = 0;
      lut_unknowns(c, off, lit_scratch_, pos_scratch_, base);
      for (const EncVal& v : lit_scratch_) {
        if (v.kind == EncVal::kCell) dfs_stack_.push_back(v.node);
      }
    } else {
      bool invert = false;
      EncVal folded;
      normalize_gate(c, off, lit_scratch_, invert, folded);
      for (const EncVal& v : lit_scratch_) {
        if (v.kind == EncVal::kCell) dfs_stack_.push_back(v.node);
      }
    }
  }
}

sat::Var DipEncoder::copy_out_var(std::size_t copy, CellId slot,
                                  DipEncodeStats& stats) {
  if (var_stamp_[slot] != epoch_) {
    var_stamp_[slot] = epoch_;
    for (std::size_t k = 0; k < copy_var_.size(); ++k) {
      copy_var_[k][slot] = solver_->new_var();
      ++stats.vars_added;
    }
  }
  return copy_var_[copy][slot];
}

sat::Lit DipEncoder::lit_of(std::size_t copy, const EncVal& v) const {
  if (v.kind == EncVal::kKey) {
    return Lit(key_by_cell_[copy][v.node][v.row], v.neg);
  }
  if (v.kind == EncVal::kCell) {
    return Lit(copy_var_[copy][v.node], v.neg);
  }
  throw std::logic_error("DipEncoder: constant has no literal");
}

void DipEncoder::emit_cell(CellId slot, DipEncodeStats& stats) {
  const CellId off = slot - slot % n_;
  const CellId id = slot - off;
  const Cell& c = nl_->cell(id);
  ++stats.cells_encoded;

  if (c.kind == CellKind::kLut) {
    std::uint32_t base = 0;
    lut_unknowns(c, off, lit_scratch_, pos_scratch_, base);
    const std::vector<EncVal> unknowns = lit_scratch_;
    const std::vector<int> positions = pos_scratch_;
    const auto it = known_.find(id);
    const std::uint32_t combos = 1u << unknowns.size();
    for (std::size_t copy = 0; copy < copy_var_.size(); ++copy) {
      const Var out = copy_out_var(copy, slot, stats);
      std::vector<Lit> premise(unknowns.size());
      for (std::uint32_t m = 0; m < combos; ++m) {
        std::uint32_t row = base;
        for (std::size_t j = 0; j < unknowns.size(); ++j) {
          const Lit l = lit_of(copy, unknowns[j]);
          if ((m >> j) & 1u) {
            row |= (1u << positions[j]);
            premise[j] = ~l;
          } else {
            premise[j] = l;
          }
        }
        const bool known =
            it != known_.end() && ((it->second.known_mask >> row) & 1ull);
        std::vector<Lit> clause = premise;
        if (known) {
          const bool v = ((it->second.value_mask >> row) & 1ull) != 0;
          clause.push_back(v ? sat::pos(out) : sat::neg(out));
          solver_->add_clause(clause);
          ++stats.clauses_added;
        } else {
          const Var kv = key_by_cell_[copy][id][row];
          clause.push_back(sat::neg(kv));
          clause.push_back(sat::pos(out));
          solver_->add_clause(clause);
          clause = premise;
          clause.push_back(sat::pos(kv));
          clause.push_back(sat::neg(out));
          solver_->add_clause(clause);
          stats.clauses_added += 2;
        }
      }
    }
    return;
  }

  bool invert = false;
  EncVal folded;
  if (normalize_gate(c, off, lit_scratch_, invert, folded)) {
    throw std::logic_error("DipEncoder: folded cell reached emission");
  }
  const std::vector<EncVal> lits = lit_scratch_;
  const bool is_xor = (c.kind == CellKind::kXor || c.kind == CellKind::kXnor);
  for (std::size_t copy = 0; copy < copy_var_.size(); ++copy) {
    const Var out = copy_out_var(copy, slot, stats);
    if (is_xor) {
      // XNOR folds into the chain by complementing the first literal.
      Lit acc = lit_of(copy, lits[0]);
      if (invert) acc = ~acc;
      for (std::size_t i = 1; i < lits.size(); ++i) {
        Var t = out;
        if (i + 1 < lits.size()) {
          t = solver_->new_var();
          ++stats.vars_added;
        }
        encode_xor2_lits(*solver_, t, acc, lit_of(copy, lits[i]));
        stats.clauses_added += 4;
        acc = sat::pos(t);
      }
    } else {
      const Lit o = invert ? sat::neg(out) : sat::pos(out);
      std::vector<Lit> big;
      big.reserve(lits.size() + 1);
      for (const EncVal& v : lits) {
        const Lit l = lit_of(copy, v);
        solver_->add_binary(~o, l);
        ++stats.clauses_added;
        big.push_back(~l);
      }
      big.push_back(o);
      solver_->add_clause(big);
      ++stats.clauses_added;
    }
  }
}

DipEncodeStats DipEncoder::add_io_pair(const std::vector<bool>& inputs,
                                       const std::vector<bool>& response,
                                       bool units_only) {
  const std::size_t n_pi = nl_->inputs().size();
  const std::size_t n_po = nl_->outputs().size();
  const std::size_t n_ff = nl_->dffs().size();
  const bool scan = frames_ == kScan;
  const int frames = frame_count();
  const std::size_t n_in = scan ? n_pi + n_ff : n_pi * frames;
  const std::size_t n_out = scan ? n_po + n_ff : n_po * frames;
  if (inputs.size() != n_in || response.size() != n_out) {
    throw std::invalid_argument("DipEncoder: I/O arity mismatch");
  }
  DipEncodeStats stats;
  ++epoch_;
  fold_pattern(inputs);

  // Gather the folded observed values: each frame's POs, then (scan pair)
  // the flip-flop D pins.
  std::vector<std::pair<EncVal, bool>> pinned;  // complex outputs only
  std::size_t bit = 0;
  const auto consume = [&](CellId slot) {
    const EncVal v = vals_[slot];
    const bool value = response[bit++];
    switch (v.kind) {
      case EncVal::kConst:
        if (v.neg != value) {
          throw std::logic_error(
              "DipEncoder: oracle response contradicts a folded constant");
        }
        break;
      case EncVal::kKey:
        resolve_row(v.node, v.row, value != v.neg, stats);
        break;
      case EncVal::kCell:
        ++stats.complex_outputs;
        if (!units_only) pinned.emplace_back(v, value);
        break;
    }
  };
  for (int f = 0; f < frames; ++f) {
    const CellId off = static_cast<CellId>(f) * n_;
    for (const CellId id : nl_->outputs()) consume(off + id);
  }
  if (scan) {
    for (const CellId id : nl_->dffs()) consume(nl_->cell(id).fanins.at(0));
  }
  if (units_only || pinned.empty()) return stats;

  for (const auto& [v, value] : pinned) mark_needed(v.node);
  for (int f = 0; f < frames; ++f) {
    const CellId off = static_cast<CellId>(f) * n_;
    for (const CellId id : topo_) {
      const CellId slot = off + id;
      if (needed_stamp_[slot] != epoch_) continue;
      const EncVal v = vals_[slot];
      if (v.kind == EncVal::kCell && v.node == slot) emit_cell(slot, stats);
    }
  }
  for (const auto& [v, value] : pinned) {
    for (std::size_t copy = 0; copy < copy_var_.size(); ++copy) {
      const Lit l = lit_of(copy, v);
      solver_->add_unit(value ? l : ~l);
      ++stats.clauses_added;
    }
  }
  return stats;
}

}  // namespace stt
