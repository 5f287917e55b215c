#include "sim/scoap.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <unordered_map>

namespace stt {

namespace {

constexpr double kInfCost = 1e17;

double cap(double v) { return std::min(v, kInfCost); }

// Truth mask of a combinational cell (configured view).
std::uint64_t func_mask(const Cell& c) {
  switch (c.kind) {
    case CellKind::kConst0:
      return 0;
    case CellKind::kConst1:
      return full_mask(0);
    case CellKind::kLut:
      return c.lut_mask;
    default:
      return gate_truth_mask(c.kind, c.fanin_count());
  }
}

// A cube over a cell's inputs: input i is assigned when bit i of `care` is
// set (to bit i of `value`) and a don't-care otherwise.
struct Cube {
  std::uint8_t care;
  std::uint8_t value;
};

// Truth-table rows (bit r = row r) in which input i is 0.
constexpr std::uint64_t kZeroRows[kMaxLutInputs] = {
    0x5555555555555555ull, 0x3333333333333333ull, 0x0F0F0F0F0F0F0F0Full,
    0x00FF00FF00FF00FFull, 0x0000FFFF0000FFFFull, 0x00000000FFFFFFFFull};

constexpr int kMaxCubes = 729;  // 3^kMaxLutInputs

// Cube ranges of one table: justify 0, justify 1, then sensitize input i.
constexpr int kJustify0 = 0;
constexpr int kJustify1 = 1;
constexpr int sensitize(int i) { return 2 + i; }
constexpr int kRanges = 2 + kMaxLutInputs;

// Prime cubes of every distinct (fan-in, truth mask) function met during
// one compute_scoap call. A cube's cost is 1 plus the controllability of
// each assigned input; costs are non-negative and float addition is
// monotone, so a cube that assigns a superset of a valid cube's inputs
// never costs less. The minimum over the prime (minimal) cubes is
// therefore the minimum over every valid cube.
class PrimeCubeTables {
 public:
  /// Index of the table for a narrow combinational cell's function.
  std::uint32_t table_for(const Cell& c) {
    const int k = c.fanin_count();
    if (c.kind == CellKind::kLut) return table(k, c.lut_mask);
    // Fixed-function cells: one table per (kind, fan-in), found without
    // deriving and hashing the truth mask.
    std::uint32_t& slot = gate_table_[static_cast<int>(c.kind)][k];
    if (slot == 0) slot = table(k, func_mask(c)) + 1;
    return slot - 1;
  }

  std::span<const Cube> cubes(std::uint32_t table, int range) const {
    const auto& b = bounds_[table];
    return {pool_.data() + b[range], pool_.data() + b[range + 1]};
  }

 private:
  static constexpr int kKinds = static_cast<int>(CellKind::kLut) + 1;

  // Index of the table for a k-input function, built on first use.
  std::uint32_t table(int k, std::uint64_t mask) {
    mask &= full_mask(k);
    const auto [it, inserted] = index_[k].try_emplace(
        mask, static_cast<std::uint32_t>(bounds_.size()));
    if (inserted) build(k, mask);
    return it->second;
  }

  void build(int k, std::uint64_t mask) {
    // Cube codes are base-3 numbers, digit i: 0/1 = input i fixed to that
    // value, 2 = don't-care.
    int n = 1;
    std::array<int, kMaxLutInputs> pow3{};
    for (int i = 0; i < k; ++i) {
      pow3[i] = n;
      n *= 3;
    }
    std::array<Cube, kMaxCubes> cube{};
    std::array<std::uint64_t, kMaxCubes> rows{};
    for (int code = 0; code < n; ++code) {
      std::uint64_t r = full_mask(k);
      int t = code;
      for (int i = 0; i < k; ++i, t /= 3) {
        const int digit = t % 3;
        if (digit == 2) continue;
        cube[code].care |= static_cast<std::uint8_t>(1u << i);
        cube[code].value |= static_cast<std::uint8_t>(digit << i);
        r &= digit ? ~kZeroRows[i] : kZeroRows[i];
      }
      rows[code] = r;
    }
    // Keep the valid cubes from which no single assignment can be dropped.
    std::array<bool, kMaxCubes> valid{};
    const auto keep_primes = [&] {
      for (int code = 0; code < n; ++code) {
        if (!valid[code]) continue;
        bool prime = true;
        for (unsigned m = cube[code].care; m != 0 && prime; m &= m - 1) {
          const int i = __builtin_ctz(m);
          const int digit = (cube[code].value >> i) & 1;
          prime = !valid[code + (2 - digit) * pow3[i]];
        }
        if (prime) pool_.push_back(cube[code]);
      }
    };
    std::array<std::uint32_t, kRanges + 1> b{};
    const auto close_range = [&](int range) {
      b[range + 1] = static_cast<std::uint32_t>(pool_.size());
    };
    b[kJustify0] = static_cast<std::uint32_t>(pool_.size());
    for (int code = 0; code < n; ++code) {
      valid[code] = (rows[code] & mask) == 0;
    }
    keep_primes();
    close_range(kJustify0);
    for (int code = 0; code < n; ++code) {
      valid[code] = (rows[code] & ~mask) == 0;
    }
    keep_primes();
    close_range(kJustify1);
    for (int i = 0; i < kMaxLutInputs; ++i) {
      if (i < k) {
        // Rows r (input i = 0) where flipping input i flips the output.
        const std::uint64_t flips =
            (mask ^ (mask >> (1u << i))) & kZeroRows[i];
        for (int code = 0; code < n; ++code) {
          valid[code] = !((cube[code].care >> i) & 1u) &&
                        (rows[code] & kZeroRows[i] & ~flips) == 0;
        }
        keep_primes();
      }
      close_range(sensitize(i));
    }
    bounds_.push_back(b);
  }

  std::vector<Cube> pool_;
  std::vector<std::array<std::uint32_t, kRanges + 1>> bounds_;
  std::unordered_map<std::uint64_t, std::uint32_t> index_[kMaxLutInputs + 1];
  // Table index + 1 per (kind, fan-in) of a fixed-function cell; 0 = none.
  std::array<std::array<std::uint32_t, kMaxLutInputs + 1>, kKinds>
      gate_table_{};
};

// 1 + the controllability of every assigned input, summed in input order.
double cube_cost(Cube q, const CellId* fanins, const std::vector<double>& cc0,
                 const std::vector<double>& cc1) {
  double cost = 1;
  for (unsigned m = q.care; m != 0; m &= m - 1) {
    const int i = __builtin_ctz(m);
    cost += ((q.value >> i) & 1u) ? cc1[fanins[i]] : cc0[fanins[i]];
  }
  return cap(cost);
}

double cheapest(std::span<const Cube> cubes, const CellId* fanins,
                const std::vector<double>& cc0,
                const std::vector<double>& cc1) {
  double best = kInfCost;
  for (const Cube q : cubes) {
    best = std::min(best, cube_cost(q, fanins, cc0, cc1));
  }
  return best;
}

// The cells still to visit in the current sweep and in the next one, as
// bit sets over topological positions. A sweep visits its set in position
// order (ascending forward, descending backward); a mark at a position the
// sweep has not reached yet joins this sweep, any other the next.
class SweepSets {
 public:
  explicit SweepSets(std::size_t n)
      : cur_((n + 63) / 64, ~0ull), next_(cur_.size(), 0) {
    if (n % 64 != 0) cur_.back() = (1ull << (n % 64)) - 1;
  }

  template <typename Visit>
  void sweep(bool forward, Visit&& visit) {
    forward_ = forward;
    const std::size_t words = cur_.size();
    for (std::size_t k = 0; k < words; ++k) {
      const std::size_t w = forward ? k : words - 1 - k;
      while (cur_[w] != 0) {
        const int bit = forward ? __builtin_ctzll(cur_[w])
                                : 63 - __builtin_clzll(cur_[w]);
        cur_[w] &= ~(1ull << bit);
        at_ = static_cast<std::uint32_t>(w * 64 + bit);
        visit(at_);
      }
    }
    cur_.swap(next_);
  }

  void mark(std::uint32_t pos) {
    const bool ahead = forward_ ? pos > at_ : pos < at_;
    (ahead ? cur_ : next_)[pos / 64] |= 1ull << (pos % 64);
  }

 private:
  std::vector<std::uint64_t> cur_, next_;
  std::uint32_t at_ = 0;
  bool forward_ = true;
};

}  // namespace

double ScoapResult::resolvability(const Netlist& nl, CellId id) const {
  const Cell& c = nl.cell(id);
  double justify = 0;
  for (const CellId f : c.fanins) {
    justify += std::min(cc0[f], cc1[f]);
  }
  return cap(justify + co[id]);
}

ScoapResult compute_scoap(const Netlist& nl, const ScoapOptions& opt) {
  ScoapResult r;
  r.cc0.assign(nl.size(), kInfCost);
  r.cc1.assign(nl.size(), kInfCost);
  r.co.assign(nl.size(), kInfCost);

  const auto order = nl.topo_order();
  std::vector<std::uint32_t> pos(nl.size());
  for (std::uint32_t p = 0; p < order.size(); ++p) pos[order[p]] = p;

  // Cube table per narrow combinational cell whose function is known.
  PrimeCubeTables tables;
  std::vector<std::uint32_t> table_of(nl.size(), 0);
  for (const CellId id : order) {
    const Cell& c = nl.cell(id);
    if (!is_combinational(c.kind) || c.fanin_count() > kMaxLutInputs ||
        (opt.attacker_view && c.kind == CellKind::kLut)) {
      continue;
    }
    table_of[id] = tables.table_for(c);
  }

  // Both passes are Gauss-Seidel sweeps in topological order, capped at
  // max_iterations and stopped early by a sweep that changes nothing. A
  // cell's update reads only its fan-ins (forward) or its own CO
  // (backward), so only cells whose inputs changed since their last visit
  // are visited; the others would recompute their current value.

  // ---- controllability: forward relaxation --------------------------------
  SweepSets sets(order.size());
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    bool changed = false;
    ++r.sweeps;
    sets.sweep(/*forward=*/true, [&](std::uint32_t p) {
      const CellId id = order[p];
      const Cell& c = nl.cell(id);
      ++r.evaluations;
      double new0 = r.cc0[id];
      double new1 = r.cc1[id];
      switch (c.kind) {
        case CellKind::kInput:
          new0 = new1 = 1;
          break;
        case CellKind::kConst0:
          new0 = 0;
          break;
        case CellKind::kConst1:
          new1 = 0;
          break;
        case CellKind::kDff:
          if (!c.fanins.empty()) {
            new0 = cap(r.cc0[c.fanins[0]] + opt.sequential_increment);
            new1 = cap(r.cc1[c.fanins[0]] + opt.sequential_increment);
          }
          break;
        default: {
          if (opt.attacker_view && c.kind == CellKind::kLut) {
            new0 = new1 = opt.unknown_lut_cost;
            break;
          }
          if (c.fanin_count() > kMaxLutInputs) {
            // Wide standard gates: closed-form SCOAP rules.
            double sum0 = 0, sum1 = 0, min0 = kInfCost, min1 = kInfCost,
                   summin = 0;
            for (const CellId f : c.fanins) {
              sum0 += r.cc0[f];
              sum1 += r.cc1[f];
              min0 = std::min(min0, r.cc0[f]);
              min1 = std::min(min1, r.cc1[f]);
              summin += std::min(r.cc0[f], r.cc1[f]);
            }
            switch (c.kind) {
              case CellKind::kAnd:
                new1 = cap(sum1 + 1);
                new0 = cap(min0 + 1);
                break;
              case CellKind::kNand:
                new0 = cap(sum1 + 1);
                new1 = cap(min0 + 1);
                break;
              case CellKind::kOr:
                new0 = cap(sum0 + 1);
                new1 = cap(min1 + 1);
                break;
              case CellKind::kNor:
                new1 = cap(sum0 + 1);
                new0 = cap(min1 + 1);
                break;
              default:  // XOR/XNOR: parity, both values cost every input
                new0 = new1 = cap(summin + 1);
                break;
            }
            break;
          }
          // Minimize over *cubes* (each input 0/1/don't-care): a cube is a
          // valid justification of value v when every completion produces
          // v, and only the assigned inputs are charged. This yields the
          // textbook values (e.g. CC0(AND2) = min(CC0 inputs) + 1).
          const CellId* fanins = c.fanins.data();
          new0 = cheapest(tables.cubes(table_of[id], kJustify0), fanins,
                          r.cc0, r.cc1);
          new1 = cheapest(tables.cubes(table_of[id], kJustify1), fanins,
                          r.cc0, r.cc1);
          break;
        }
      }
      if (new0 < r.cc0[id] || new1 < r.cc1[id]) {
        r.cc0[id] = std::min(r.cc0[id], new0);
        r.cc1[id] = std::min(r.cc1[id], new1);
        changed = true;
        for (const CellId reader : c.fanouts) sets.mark(pos[reader]);
      }
    });
    if (!changed) break;
  }

  // ---- observability: backward relaxation ---------------------------------
  for (const CellId id : nl.outputs()) r.co[id] = 0;
  sets = SweepSets(order.size());
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    bool changed = false;
    ++r.sweeps;
    // Observability of a cell's *inputs* through that cell.
    const auto lower = [&](CellId f, double v) {
      if (v < r.co[f]) {
        r.co[f] = v;
        changed = true;
        sets.mark(pos[f]);
      }
    };
    sets.sweep(/*forward=*/false, [&](std::uint32_t p) {
      const CellId id = order[p];
      const Cell& c = nl.cell(id);
      ++r.evaluations;
      if (c.kind == CellKind::kDff) {
        if (!c.fanins.empty()) {
          lower(c.fanins[0], cap(r.co[id] + opt.sequential_increment));
        }
        return;
      }
      if (!is_combinational(c.kind) || c.fanins.empty()) return;
      if (opt.attacker_view && c.kind == CellKind::kLut) {
        // Propagation through an unknown function is blocked for a testing
        // attacker: charge the unknown-LUT penalty.
        for (const CellId f : c.fanins) {
          lower(f, cap(r.co[id] + opt.unknown_lut_cost));
        }
        return;
      }
      if (c.fanin_count() > kMaxLutInputs) {
        // Wide standard gates: sensitize by fixing the side inputs to the
        // gate's non-controlling value (AND/NAND: 1, OR/NOR: 0, XOR: any).
        for (int i = 0; i < c.fanin_count(); ++i) {
          double side = 1;
          for (int j = 0; j < c.fanin_count(); ++j) {
            if (j == i) continue;
            const CellId f = c.fanins[j];
            switch (c.kind) {
              case CellKind::kAnd:
              case CellKind::kNand:
                side += r.cc1[f];
                break;
              case CellKind::kOr:
              case CellKind::kNor:
                side += r.cc0[f];
                break;
              default:
                side += std::min(r.cc0[f], r.cc1[f]);
                break;
            }
          }
          lower(c.fanins[i], cap(r.co[id] + side));
        }
        return;
      }
      // Cheapest side-input *cube* under which the output is sensitive to
      // input i for every completion of the unassigned inputs.
      const CellId* fanins = c.fanins.data();
      for (int i = 0; i < c.fanin_count(); ++i) {
        const double best = cheapest(tables.cubes(table_of[id], sensitize(i)),
                                     fanins, r.cc0, r.cc1);
        lower(fanins[i], cap(r.co[id] + best));
      }
    });
    if (!changed) break;
  }
  return r;
}

}  // namespace stt
