// Templated interpreter body shared by every lane-width kernel TU.
//
// Include from a kernel translation unit after defining:
//   STT_SIMK_NS    — a namespace unique to the TU (prevents the linker
//                    from merging instantiations built for different ISAs)
//   STT_SIMK_LANE  — words per lane: 1, 4 (AVX2) or 8 (AVX-512)
//
// The lane type is a GNU vector extension (`vector_size`), so the wide
// bitwise algebra lowers to single ymm/zmm operations under the TU's
// -m<isa> flags without relying on the autovectorizer; on compilers or
// targets without vector extensions everything falls back to plain
// uint64_t loops with identical results.
//
// Evaluation walks the instruction stream (or a subset of it, such as one
// LUT's fan-out cone) once per word span, one opcode run at a time: the
// lowering groups the stream by (level, opcode), so a run of same-opcode
// instructions is one call into a loop specialized for that opcode, with
// no dispatch per instruction. Wide batch spans walk the netlist's own
// topological order instead (Stream::order): its runs are short, but each
// dispatch is spread over many words. Per instruction, the accumulator of the
// fan-in reduction (AND/OR/XOR trees, LUT minterm matching) lives in one
// lane register, so a gate's intermediate values stay resident in vector
// registers and only the final result is stored to the wave. A span whose
// width is not a whole number of lanes is finished by the width-1
// instantiation of the same code, which is how misaligned batch widths
// stay exact.

#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "sim/kernels.hpp"

#if !defined(STT_SIMK_NS) || !defined(STT_SIMK_LANE)
#error "define STT_SIMK_NS and STT_SIMK_LANE before including kernels_impl.h"
#endif

#ifndef STT_SIMK_ALWAYS_INLINE
#if defined(__GNUC__) || defined(__clang__)
#define STT_SIMK_ALWAYS_INLINE static inline __attribute__((always_inline))
#else
#define STT_SIMK_ALWAYS_INLINE static inline
#endif
#endif

namespace stt::simk {
namespace STT_SIMK_NS {

inline constexpr std::size_t kLaneWords = STT_SIMK_LANE;

template <std::size_t C>
struct LaneOf {
#if defined(__GNUC__) || defined(__clang__)
  typedef std::uint64_t type __attribute__((vector_size(C * 8)));
#else
  struct type {
    std::uint64_t w[C];
    friend type operator&(type a, type b) {
      for (std::size_t k = 0; k < C; ++k) a.w[k] &= b.w[k];
      return a;
    }
    friend type operator|(type a, type b) {
      for (std::size_t k = 0; k < C; ++k) a.w[k] |= b.w[k];
      return a;
    }
    friend type operator^(type a, type b) {
      for (std::size_t k = 0; k < C; ++k) a.w[k] ^= b.w[k];
      return a;
    }
    friend type operator~(type a) {
      for (std::size_t k = 0; k < C; ++k) a.w[k] = ~a.w[k];
      return a;
    }
  };
#endif
};
template <>
struct LaneOf<1> {
  using type = std::uint64_t;
};

template <std::size_t C>
using Lane = typename LaneOf<C>::type;

template <std::size_t C>
static inline Lane<C> lane_load(const std::uint64_t* p) {
  Lane<C> v;
  std::memcpy(&v, p, sizeof(v));  // rows are only 8-byte aligned
  return v;
}

template <std::size_t C>
static inline void lane_store(std::uint64_t* p, Lane<C> v) {
  std::memcpy(p, &v, sizeof(v));
}

/// Broadcast a 64-bit mask into every word of the lane.
template <std::size_t C>
static inline Lane<C> lane_splat(std::uint64_t s) {
  if constexpr (C == 1) {
    return s;
  } else {
    Lane<C> v{};
    for (std::size_t k = 0; k < C; ++k) v[k] = s;
    return v;
  }
}

/// Evaluate one instruction of opcode kOp over words [w0, w0+nw), nw a
/// multiple of C. The opcode is a template argument, so each opcode run
/// compiles to a tight loop with no dispatch per instruction.
template <std::size_t C, Op kOp>
STT_SIMK_ALWAYS_INLINE void eval_instr(const Instr* ins,
                                       const std::uint32_t* fanins,
                                       std::uint64_t* wave, std::size_t stride,
                                       std::size_t w0, std::size_t nw) {
  const Lane<C> zeros = lane_splat<C>(0);
  const Lane<C> ones = lane_splat<C>(~0ull);
  std::uint64_t* const out = wave + ins->out * stride + w0;
  const std::uint32_t* const f = fanins + ins->fanin_begin;
  const auto row = [&](std::size_t i) -> const std::uint64_t* {
    return wave + f[i] * stride + w0;
  };
  // Two-input gates: out = op(a, b), one lane at a time.
  const auto binary = [&](auto op) {
    const std::uint64_t *a = row(0), *b = row(1);
    for (std::size_t w = 0; w < nw; w += C) {
      lane_store<C>(out + w, op(lane_load<C>(a + w), lane_load<C>(b + w)));
    }
  };
  // Wide gates: fold every fan-in into one lane register.
  const auto fold = [&](auto op, bool invert) {
    const int n = static_cast<int>(ins->fanin_count);
    for (std::size_t w = 0; w < nw; w += C) {
      Lane<C> acc = lane_load<C>(row(0) + w);
      for (int i = 1; i < n; ++i) acc = op(acc, lane_load<C>(row(i) + w));
      lane_store<C>(out + w, invert ? ~acc : acc);
    }
  };
  const auto and_ = [](Lane<C> a, Lane<C> b) { return a & b; };
  const auto or_ = [](Lane<C> a, Lane<C> b) { return a | b; };
  const auto xor_ = [](Lane<C> a, Lane<C> b) { return a ^ b; };
  if constexpr (kOp == Op::kConst0 || kOp == Op::kConst1) {
    const Lane<C> v = kOp == Op::kConst0 ? zeros : ones;
    for (std::size_t w = 0; w < nw; w += C) lane_store<C>(out + w, v);
  } else if constexpr (kOp == Op::kBuf || kOp == Op::kNot) {
    const std::uint64_t* a = row(0);
    for (std::size_t w = 0; w < nw; w += C) {
      const Lane<C> v = lane_load<C>(a + w);
      lane_store<C>(out + w, kOp == Op::kNot ? ~v : v);
    }
  } else if constexpr (kOp == Op::kAnd2) {
    binary(and_);
  } else if constexpr (kOp == Op::kNand2) {
    binary([](Lane<C> a, Lane<C> b) { return ~(a & b); });
  } else if constexpr (kOp == Op::kOr2) {
    binary(or_);
  } else if constexpr (kOp == Op::kNor2) {
    binary([](Lane<C> a, Lane<C> b) { return ~(a | b); });
  } else if constexpr (kOp == Op::kXor2) {
    binary(xor_);
  } else if constexpr (kOp == Op::kXnor2) {
    binary([](Lane<C> a, Lane<C> b) { return ~(a ^ b); });
  } else if constexpr (kOp == Op::kAndN || kOp == Op::kNandN) {
    fold(and_, kOp == Op::kNandN);
  } else if constexpr (kOp == Op::kOrN || kOp == Op::kNorN) {
    fold(or_, kOp == Op::kNorN);
  } else if constexpr (kOp == Op::kXorN || kOp == Op::kXnorN) {
    fold(xor_, kOp == Op::kXnorN);
  } else if constexpr (kOp == Op::kLut1) {
    // Closed form: out = (m1 & a) | (m0 & ~a).
    const std::uint64_t* a = row(0);
    const Lane<C> m0 = lane_splat<C>(ins->mask & 1u ? ~0ull : 0ull);
    const Lane<C> m1 = lane_splat<C>(ins->mask & 2u ? ~0ull : 0ull);
    for (std::size_t w = 0; w < nw; w += C) {
      const Lane<C> av = lane_load<C>(a + w);
      lane_store<C>(out + w, (m1 & av) | (m0 & ~av));
    }
  } else if constexpr (kOp == Op::kLut2) {
    // Closed form over the four minterm masks.
    const std::uint64_t *a = row(0), *b = row(1);
    const Lane<C> m0 = lane_splat<C>(ins->mask & 1u ? ~0ull : 0ull);
    const Lane<C> m1 = lane_splat<C>(ins->mask & 2u ? ~0ull : 0ull);
    const Lane<C> m2 = lane_splat<C>(ins->mask & 4u ? ~0ull : 0ull);
    const Lane<C> m3 = lane_splat<C>(ins->mask & 8u ? ~0ull : 0ull);
    for (std::size_t w = 0; w < nw; w += C) {
      const Lane<C> av = lane_load<C>(a + w);
      const Lane<C> bv = lane_load<C>(b + w);
      lane_store<C>(out + w, (m0 & ~av & ~bv) | (m1 & av & ~bv) |
                                 (m2 & ~av & bv) | (m3 & av & bv));
    }
  } else {
    static_assert(kOp == Op::kLutN);
    // Sparse-row OR-of-minterms; when more than half the rows are
    // asserted, evaluate the complement function and invert. The
    // minterm accumulator stays in one lane register per word span.
    const int n = static_cast<int>(ins->fanin_count);
    const std::uint64_t full = n >= 6 ? ~0ull : ((1ull << (1u << n)) - 1ull);
    std::uint64_t m = ins->mask;
    const bool inv = 2 * std::popcount(m) > (1 << n);
    if (inv) m = ~m & full;
    for (std::size_t w = 0; w < nw; w += C) {
      Lane<C> acc = zeros;
      std::uint64_t rows = m;
      while (rows) {
        const unsigned r = static_cast<unsigned>(std::countr_zero(rows));
        rows &= rows - 1;
        Lane<C> match = ones;
        for (int i = 0; i < n; ++i) {
          const Lane<C> v = lane_load<C>(row(i) + w);
          match = match & ((r >> i) & 1u ? v : ~v);
        }
        acc = acc | match;
      }
      lane_store<C>(out + w, inv ? ~acc : acc);
    }
  }
}

/// Evaluate stream positions [b, e) — instructions, or (kSubset) entries
/// of the `order` list — that all carry opcode kOp. kOneWord fixes the
/// span to a single one-word row (eval_word, step), so every row address
/// folds to `wave[row]` and the word loops vanish.
template <std::size_t C, bool kSubset, bool kOneWord, Op kOp>
static void run_group(const Stream& s, std::uint32_t b, std::uint32_t e,
                      std::uint64_t* wave, std::size_t stride, std::size_t w0,
                      std::size_t nw) {
  for (std::uint32_t k = b; k < e; ++k) {
    const Instr* ins = s.instrs + (kSubset ? s.order[k] : k);
    if constexpr (kOneWord) {
      eval_instr<1, kOp>(ins, s.fanins, wave, 1, 0, 1);
    } else {
      eval_instr<C, kOp>(ins, s.fanins, wave, stride, w0, nw);
    }
  }
}

using GroupFn = void (*)(const Stream&, std::uint32_t, std::uint32_t,
                         std::uint64_t*, std::size_t, std::size_t,
                         std::size_t);

/// One run_group instantiation per opcode, indexed by the opcode value.
template <std::size_t C, bool kSubset, bool kOneWord, std::size_t... I>
constexpr std::array<GroupFn, kNumOps> group_table(
    std::index_sequence<I...>) {
  return {&run_group<C, kSubset, kOneWord, static_cast<Op>(I)>...};
}

/// Evaluate words [w0, w0+nw) with nw a multiple of C: every opcode run of
/// the stream, or (kSubset) of its `order` list, dispatching once per run.
template <std::size_t C, bool kSubset, bool kOneWord = false>
static void run_span(const Stream& s, const std::uint64_t* pi,
                     const std::uint64_t* ff, std::uint64_t* wave,
                     std::size_t stride, std::size_t w0, std::size_t nw) {
  static constexpr std::array<GroupFn, kNumOps> kGroups =
      group_table<C, kSubset, kOneWord>(std::make_index_sequence<kNumOps>{});
  // Seed the combinational sources: PI and flip-flop output rows.
  for (std::size_t i = 0; i < s.n_inputs; ++i) {
    std::memcpy(wave + s.inputs[i] * stride + w0, pi + i * stride + w0,
                nw * sizeof(std::uint64_t));
  }
  for (std::size_t j = 0; j < s.n_dffs; ++j) {
    std::memcpy(wave + s.dffs[j] * stride + w0, ff + j * stride + w0,
                nw * sizeof(std::uint64_t));
  }
  const std::size_t n = kSubset ? s.n_order : s.n_instrs;
  const auto op_at = [&](std::size_t k) {
    return s.instrs[kSubset ? s.order[k] : k].op;
  };
  for (std::size_t b = 0, e = 0; b < n; b = e) {
    const Op op = op_at(b);
    for (e = b + 1; e < n && op_at(e) == op; ++e) {
    }
    kGroups[static_cast<std::size_t>(op)](s, static_cast<std::uint32_t>(b),
                                          static_cast<std::uint32_t>(e), wave,
                                          stride, w0, nw);
  }
}

template <bool kSubset>
static void run_words(const Stream& s, const std::uint64_t* pi,
                      const std::uint64_t* ff, std::uint64_t* wave,
                      std::size_t stride, std::size_t w0, std::size_t nw) {
  const std::size_t main_words = nw - nw % kLaneWords;
  if (main_words != 0) {
    run_span<kLaneWords, kSubset>(s, pi, ff, wave, stride, w0, main_words);
  }
  if (main_words != nw) {
    run_span<1, kSubset>(s, pi, ff, wave, stride, w0 + main_words,
                         nw - main_words);
  }
}

static void run(const Stream& s, const std::uint64_t* pi,
                const std::uint64_t* ff, std::uint64_t* wave,
                std::size_t stride, std::size_t w0, std::size_t nw) {
  if (stride == 1 && nw == 1) {  // one word per row: w0 is 0
    if (s.order != nullptr) {
      run_span<1, true, true>(s, pi, ff, wave, 1, 0, 1);
    } else {
      run_span<1, false, true>(s, pi, ff, wave, 1, 0, 1);
    }
  } else if (s.order != nullptr) {
    run_words<true>(s, pi, ff, wave, stride, w0, nw);
  } else {
    run_words<false>(s, pi, ff, wave, stride, w0, nw);
  }
}

}  // namespace STT_SIMK_NS
}  // namespace stt::simk
