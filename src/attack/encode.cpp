#include "attack/encode.hpp"

#include <stdexcept>

namespace stt {

namespace {

using sat::Lit;
using sat::Solver;
using sat::Var;

void encode_and(Solver& s, Var out, const std::vector<Var>& in, bool invert) {
  // out(^invert) <-> AND(in)
  const Lit o = invert ? sat::neg(out) : sat::pos(out);
  std::vector<Lit> big;
  for (const Var x : in) {
    s.add_binary(~o, sat::pos(x));
    big.push_back(sat::neg(x));
  }
  big.push_back(o);
  s.add_clause(big);
}

void encode_or(Solver& s, Var out, const std::vector<Var>& in, bool invert) {
  const Lit o = invert ? sat::neg(out) : sat::pos(out);
  std::vector<Lit> big;
  for (const Var x : in) {
    s.add_binary(o, sat::neg(x));
    big.push_back(sat::pos(x));
  }
  big.push_back(~o);
  s.add_clause(big);
}

void encode_xor2(Solver& s, Var t, Var a, Var b) {
  s.add_ternary(sat::neg(t), sat::pos(a), sat::pos(b));
  s.add_ternary(sat::neg(t), sat::neg(a), sat::neg(b));
  s.add_ternary(sat::pos(t), sat::neg(a), sat::pos(b));
  s.add_ternary(sat::pos(t), sat::pos(a), sat::neg(b));
}

void encode_xor(Solver& s, Var out, const std::vector<Var>& in, bool invert) {
  // Chain: t_1 = in0 ^ in1, t_i = t_{i-1} ^ in_{i+1}; final equals out
  // (or its inverse for XNOR, via an auxiliary inverter variable).
  Var acc = in[0];
  for (std::size_t i = 1; i < in.size(); ++i) {
    const bool last = (i + 1 == in.size());
    Var t;
    if (last && !invert) {
      t = out;
    } else {
      t = s.new_var();
    }
    encode_xor2(s, t, acc, in[i]);
    acc = t;
  }
  if (in.size() == 1) {
    // Degenerate single-input XOR: buffer semantics.
    s.add_binary(sat::neg(out), invert ? sat::neg(acc) : sat::pos(acc));
    s.add_binary(sat::pos(out), invert ? sat::pos(acc) : sat::neg(acc));
    return;
  }
  if (invert) {
    s.add_binary(sat::neg(out), sat::neg(acc));
    s.add_binary(sat::pos(out), sat::pos(acc));
  }
}

// One clause per truth-table row: (inputs == row) -> out == mask[row].
void encode_lut_const(Solver& s, Var out, const std::vector<Var>& in,
                      std::uint64_t mask) {
  const int k = static_cast<int>(in.size());
  for (std::uint32_t row = 0; row < num_rows(k); ++row) {
    std::vector<Lit> clause;
    clause.reserve(in.size() + 1);
    for (int i = 0; i < k; ++i) {
      // Negation of "input i takes its row value".
      clause.push_back((row & (1u << i)) ? sat::neg(in[i]) : sat::pos(in[i]));
    }
    clause.push_back(((mask >> row) & 1ull) ? sat::pos(out) : sat::neg(out));
    s.add_clause(clause);
  }
}

// Row multiplexer with key variables: (inputs == row) -> out == key[row].
void encode_lut_symbolic(Solver& s, Var out, const std::vector<Var>& in,
                         const std::vector<Var>& key) {
  const int k = static_cast<int>(in.size());
  for (std::uint32_t row = 0; row < num_rows(k); ++row) {
    std::vector<Lit> base;
    base.reserve(in.size() + 2);
    for (int i = 0; i < k; ++i) {
      base.push_back((row & (1u << i)) ? sat::neg(in[i]) : sat::pos(in[i]));
    }
    auto c1 = base;
    c1.push_back(sat::neg(key[row]));
    c1.push_back(sat::pos(out));
    s.add_clause(c1);
    auto c2 = base;
    c2.push_back(sat::pos(key[row]));
    c2.push_back(sat::neg(out));
    s.add_clause(c2);
  }
}

}  // namespace

EncodedCircuit encode_comb(sat::Solver& solver, const Netlist& nl,
                           const EncodeOptions& opt) {
  EncodedCircuit enc;
  enc.cell_var.assign(nl.size(), -1);

  const std::size_t n_in = nl.inputs().size() + nl.dffs().size();
  if (opt.share_inputs) {
    if (opt.share_inputs->size() != n_in) {
      throw std::invalid_argument("encode_comb: shared input count mismatch");
    }
    enc.input_vars = *opt.share_inputs;
  } else {
    enc.input_vars.reserve(n_in);
    for (std::size_t i = 0; i < n_in; ++i) {
      enc.input_vars.push_back(solver.new_var());
    }
  }
  {
    std::size_t slot = 0;
    for (const CellId id : nl.inputs()) enc.cell_var[id] = enc.input_vars[slot++];
    for (const CellId id : nl.dffs()) enc.cell_var[id] = enc.input_vars[slot++];
  }

  // Key taint: a cell depends on the key iff it is a LUT or any fanin does;
  // an input is tainted iff its variable differs from the prior copy's.
  // With share_key_free_cells, untainted cells reuse the prior copy's
  // variables instead of being re-encoded.
  std::vector<char> tainted;
  if (opt.share_key_free_cells) {
    if (!opt.share_inputs) {
      throw std::invalid_argument(
          "encode_comb: share_key_free_cells requires share_inputs");
    }
    if (opt.share_key_free_cells->size() != nl.size()) {
      throw std::invalid_argument(
          "encode_comb: shared cell count mismatch");
    }
    tainted.assign(nl.size(), 0);
    for (const CellId id : nl.topo_order()) {
      const Cell& c = nl.cell(id);
      if (c.kind == CellKind::kInput || c.kind == CellKind::kDff) {
        tainted[id] = enc.cell_var[id] != (*opt.share_key_free_cells)[id];
        continue;
      }
      char t = (c.kind == CellKind::kLut) ? 1 : 0;
      for (const CellId f : c.fanins) t |= tainted[f];
      tainted[id] = t;
    }
  }

  for (const CellId id : nl.topo_order()) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kInput || c.kind == CellKind::kDff) continue;
    if (opt.share_key_free_cells && !tainted[id]) {
      enc.cell_var[id] = (*opt.share_key_free_cells)[id];
      continue;
    }
    const Var out = solver.new_var();
    enc.cell_var[id] = out;
    std::vector<Var> in;
    in.reserve(c.fanins.size());
    for (const CellId f : c.fanins) in.push_back(enc.cell_var[f]);

    switch (c.kind) {
      case CellKind::kConst0:
        solver.add_unit(sat::neg(out));
        break;
      case CellKind::kConst1:
        solver.add_unit(sat::pos(out));
        break;
      case CellKind::kBuf:
        solver.add_binary(sat::neg(out), sat::pos(in[0]));
        solver.add_binary(sat::pos(out), sat::neg(in[0]));
        break;
      case CellKind::kNot:
        solver.add_binary(sat::neg(out), sat::neg(in[0]));
        solver.add_binary(sat::pos(out), sat::pos(in[0]));
        break;
      case CellKind::kAnd:
        encode_and(solver, out, in, false);
        break;
      case CellKind::kNand:
        encode_and(solver, out, in, true);
        break;
      case CellKind::kOr:
        encode_or(solver, out, in, false);
        break;
      case CellKind::kNor:
        encode_or(solver, out, in, true);
        break;
      case CellKind::kXor:
        encode_xor(solver, out, in, false);
        break;
      case CellKind::kXnor:
        encode_xor(solver, out, in, true);
        break;
      case CellKind::kLut: {
        if (!opt.symbolic_keys) {
          encode_lut_const(solver, out, in, c.lut_mask);
          break;
        }
        std::vector<Var> key;
        const std::string cname(c.name);
        if (opt.share_keys) {
          const auto it = opt.share_keys->find(cname);
          if (it == opt.share_keys->end()) {
            throw std::invalid_argument("encode_comb: shared key missing '" +
                                        cname + "'");
          }
          key = it->second;
        } else {
          for (std::uint32_t r = 0; r < num_rows(c.fanin_count()); ++r) {
            key.push_back(solver.new_var());
          }
        }
        enc.key_vars[cname] = key;
        encode_lut_symbolic(solver, out, in, key);
        break;
      }
      default:
        throw std::logic_error("encode_comb: unexpected cell kind");
    }
  }

  for (const CellId id : nl.outputs()) {
    enc.output_vars.push_back(enc.cell_var[id]);
  }
  for (const CellId id : nl.dffs()) {
    enc.output_vars.push_back(enc.cell_var[nl.cell(id).fanins.at(0)]);
  }
  return enc;
}

sat::Var add_miter(sat::Solver& solver, const std::vector<sat::Var>& a,
                   const std::vector<sat::Var>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("add_miter: output arity mismatch");
  }
  std::vector<sat::Lit> any_diff;
  const sat::Var m = solver.new_var();
  any_diff.push_back(sat::neg(m));
  for (std::size_t i = 0; i < a.size(); ++i) {
    const sat::Var x = a[i];
    const sat::Var y = b[i];
    // Cone-shared output (key-free logic encoded once): can never differ.
    if (x == y) continue;
    const sat::Var d = solver.new_var();
    // d <-> (a_i XOR b_i)
    solver.add_ternary(sat::neg(d), sat::pos(x), sat::pos(y));
    solver.add_ternary(sat::neg(d), sat::neg(x), sat::neg(y));
    solver.add_ternary(sat::pos(d), sat::neg(x), sat::pos(y));
    solver.add_ternary(sat::pos(d), sat::pos(x), sat::neg(y));
    any_diff.push_back(sat::pos(d));
    // d -> m, so a model with m=false has equal outputs.
    solver.add_binary(sat::neg(d), sat::pos(m));
  }
  solver.add_clause(any_diff);  // m -> some output differs
  return m;
}

bool comb_equivalent(const Netlist& a, const Netlist& b,
                     std::int64_t conflict_budget, bool* proven) {
  if (a.inputs().size() != b.inputs().size() ||
      a.dffs().size() != b.dffs().size() ||
      a.outputs().size() != b.outputs().size()) {
    if (proven) *proven = true;
    return false;
  }
  sat::Solver solver;
  const EncodedCircuit ea = encode_comb(solver, a);
  EncodeOptions opt_b;
  opt_b.share_inputs = &ea.input_vars;
  const EncodedCircuit eb = encode_comb(solver, b, opt_b);
  const sat::Var m = add_miter(solver, ea.output_vars, eb.output_vars);
  solver.set_conflict_budget(conflict_budget);
  const sat::Lit assume[] = {sat::pos(m)};
  const sat::Result r = solver.solve(assume);
  if (proven) *proven = (r != sat::Result::kUnknown);
  return r == sat::Result::kUnsat;
}

}  // namespace stt
