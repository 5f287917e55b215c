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
// Evaluation walks the topologically ordered instruction stream (or a
// topologically ordered subset of it, such as one LUT's fan-out cone) once
// per word span. Per instruction, the accumulator of the fan-in reduction
// (AND/OR/XOR trees, LUT minterm matching) lives in one lane register, so
// a gate's intermediate values stay resident in vector registers and only
// the final result is stored to the wave. A span whose width is not a
// whole number of lanes is finished by the width-1 instantiation of the
// same code, which is how misaligned batch widths stay exact.

#include <bit>
#include <cstring>

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

/// Evaluate one instruction over words [w0, w0+nw), nw a multiple of C.
/// Forced inline: each run_span instantiation gets its own copy of the
/// dispatch switch.
template <std::size_t C>
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
  switch (ins->op) {
    case Op::kConst0:
      for (std::size_t w = 0; w < nw; w += C) lane_store<C>(out + w, zeros);
      break;
    case Op::kConst1:
      for (std::size_t w = 0; w < nw; w += C) lane_store<C>(out + w, ones);
      break;
    case Op::kBuf: {
      const std::uint64_t* a = row(0);
      for (std::size_t w = 0; w < nw; w += C) {
        lane_store<C>(out + w, lane_load<C>(a + w));
      }
      break;
    }
    case Op::kNot: {
      const std::uint64_t* a = row(0);
      for (std::size_t w = 0; w < nw; w += C) {
        lane_store<C>(out + w, ~lane_load<C>(a + w));
      }
      break;
    }
    case Op::kAnd2: {
      const std::uint64_t *a = row(0), *b = row(1);
      for (std::size_t w = 0; w < nw; w += C) {
        lane_store<C>(out + w, lane_load<C>(a + w) & lane_load<C>(b + w));
      }
      break;
    }
    case Op::kNand2: {
      const std::uint64_t *a = row(0), *b = row(1);
      for (std::size_t w = 0; w < nw; w += C) {
        lane_store<C>(out + w, ~(lane_load<C>(a + w) & lane_load<C>(b + w)));
      }
      break;
    }
    case Op::kOr2: {
      const std::uint64_t *a = row(0), *b = row(1);
      for (std::size_t w = 0; w < nw; w += C) {
        lane_store<C>(out + w, lane_load<C>(a + w) | lane_load<C>(b + w));
      }
      break;
    }
    case Op::kNor2: {
      const std::uint64_t *a = row(0), *b = row(1);
      for (std::size_t w = 0; w < nw; w += C) {
        lane_store<C>(out + w, ~(lane_load<C>(a + w) | lane_load<C>(b + w)));
      }
      break;
    }
    case Op::kXor2: {
      const std::uint64_t *a = row(0), *b = row(1);
      for (std::size_t w = 0; w < nw; w += C) {
        lane_store<C>(out + w, lane_load<C>(a + w) ^ lane_load<C>(b + w));
      }
      break;
    }
    case Op::kXnor2: {
      const std::uint64_t *a = row(0), *b = row(1);
      for (std::size_t w = 0; w < nw; w += C) {
        lane_store<C>(out + w, ~(lane_load<C>(a + w) ^ lane_load<C>(b + w)));
      }
      break;
    }
    case Op::kAndN:
    case Op::kNandN: {
      const int n = static_cast<int>(ins->fanin_count);
      for (std::size_t w = 0; w < nw; w += C) {
        Lane<C> acc = lane_load<C>(row(0) + w);
        for (int i = 1; i < n; ++i) acc = acc & lane_load<C>(row(i) + w);
        lane_store<C>(out + w, ins->op == Op::kNandN ? ~acc : acc);
      }
      break;
    }
    case Op::kOrN:
    case Op::kNorN: {
      const int n = static_cast<int>(ins->fanin_count);
      for (std::size_t w = 0; w < nw; w += C) {
        Lane<C> acc = lane_load<C>(row(0) + w);
        for (int i = 1; i < n; ++i) acc = acc | lane_load<C>(row(i) + w);
        lane_store<C>(out + w, ins->op == Op::kNorN ? ~acc : acc);
      }
      break;
    }
    case Op::kXorN:
    case Op::kXnorN: {
      const int n = static_cast<int>(ins->fanin_count);
      for (std::size_t w = 0; w < nw; w += C) {
        Lane<C> acc = lane_load<C>(row(0) + w);
        for (int i = 1; i < n; ++i) acc = acc ^ lane_load<C>(row(i) + w);
        lane_store<C>(out + w, ins->op == Op::kXnorN ? ~acc : acc);
      }
      break;
    }
    case Op::kLut1: {
      // Closed form: out = (m1 & a) | (m0 & ~a).
      const std::uint64_t* a = row(0);
      const Lane<C> m0 = lane_splat<C>(ins->mask & 1u ? ~0ull : 0ull);
      const Lane<C> m1 = lane_splat<C>(ins->mask & 2u ? ~0ull : 0ull);
      for (std::size_t w = 0; w < nw; w += C) {
        const Lane<C> av = lane_load<C>(a + w);
        lane_store<C>(out + w, (m1 & av) | (m0 & ~av));
      }
      break;
    }
    case Op::kLut2: {
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
      break;
    }
    case Op::kLutN: {
      // Sparse-row OR-of-minterms; when more than half the rows are
      // asserted, evaluate the complement function and invert. The
      // minterm accumulator stays in one lane register per word span.
      const int n = static_cast<int>(ins->fanin_count);
      const std::uint64_t full =
          n >= 6 ? ~0ull : ((1ull << (1u << n)) - 1ull);
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
      break;
    }
  }
}

/// Evaluate words [w0, w0+nw) with nw a multiple of C: every instruction,
/// or (kSubset) only the stream's `order` list. Separate instantiations
/// keep the whole-stream walk free of the subset's indirection.
template <std::size_t C, bool kSubset>
static void run_span(const Stream& s, const std::uint64_t* pi,
                     const std::uint64_t* ff, std::uint64_t* wave,
                     std::size_t stride, std::size_t w0, std::size_t nw) {
  // Seed the combinational sources: PI and flip-flop output rows.
  for (std::size_t i = 0; i < s.n_inputs; ++i) {
    std::memcpy(wave + s.inputs[i] * stride + w0, pi + i * stride + w0,
                nw * sizeof(std::uint64_t));
  }
  for (std::size_t j = 0; j < s.n_dffs; ++j) {
    std::memcpy(wave + s.dffs[j] * stride + w0, ff + j * stride + w0,
                nw * sizeof(std::uint64_t));
  }
  if constexpr (kSubset) {
    for (std::size_t k = 0; k < s.n_order; ++k) {
      eval_instr<C>(s.instrs + s.order[k], s.fanins, wave, stride, w0, nw);
    }
  } else {
    for (const Instr* ins = s.instrs; ins != s.instrs + s.n_instrs; ++ins) {
      eval_instr<C>(ins, s.fanins, wave, stride, w0, nw);
    }
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
  if (s.order != nullptr) {
    run_words<true>(s, pi, ff, wave, stride, w0, nw);
  } else {
    run_words<false>(s, pi, ff, wave, stride, w0, nw);
  }
}

}  // namespace STT_SIMK_NS
}  // namespace stt::simk
