// The compiled-sim instruction set and its lane-width kernel family.
//
// `CompiledSim` lowers a netlist into this IR once; evaluation is then a
// pure function of (instruction stream, stimulus) executed by one of three
// kernels that differ only in how many 64-bit words they move per step:
//
//   * scalar  — one word per step (the portable baseline, every target);
//   * avx2    — 4-word lanes compiled with -mavx2 (256-bit vectors);
//   * avx512  — 8-word lanes compiled with -mavx512f (512-bit vectors).
//
// All three instantiate the same templated interpreter
// (`kernels_impl.h`), so they are bit-identical by construction: gate
// kernels are pure 64-bit bitwise algebra and widening the lane only
// changes how many words one register operation covers. Each ISA's
// instantiation lives in its own translation unit compiled with that
// ISA's flags *and* in its own namespace, so the linker can never merge a
// wider instantiation into a build that must run on narrower hardware.
//
// Which kernel actually runs is decided at runtime (`sim/isa.hpp`): a
// one-time CPUID probe, overridable via --sim-isa / STTLOCK_SIM_ISA.
#pragma once

#include <cstddef>
#include <cstdint>

namespace stt::simk {

/// Opcodes: cell kinds pre-specialized by fan-in so the kernels do no
/// per-gate arity analysis.
enum class Op : std::uint8_t {
  kConst0, kConst1, kBuf, kNot,
  kAnd2, kNand2, kOr2, kNor2, kXor2, kXnor2,
  kAndN, kNandN, kOrN, kNorN, kXorN, kXnorN,
  kLut1, kLut2, kLutN,
};

inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kLutN) + 1;

struct Instr {
  std::uint32_t out;          ///< wave row written (== CellId)
  std::uint32_t fanin_begin;  ///< first index into the CSR fan-in array
  std::uint16_t fanin_count;
  Op op;
  std::uint64_t mask;  ///< LUT truth table, pre-masked to full_mask(n)
};

/// Borrowed, non-owning view of a lowered netlist: everything a kernel
/// needs to evaluate, with no dependency on the netlist types. The
/// instructions are in a topological order grouped by (level, opcode), so
/// same-opcode instructions sit next to each other: the kernels dispatch
/// once per maximal same-opcode run of positions, not once per
/// instruction.
struct Stream {
  const Instr* instrs = nullptr;
  std::size_t n_instrs = 0;
  /// Optional order: when set, position k of the stream is instruction
  /// instrs[order[k]] instead of instrs[k]. The positions must form a
  /// topological order. Either every instruction in another topological
  /// order (the netlist's own, for wide spans), or a subset in ascending
  /// indices, so still grouped. A subset stream either re-runs part of a
  /// wave that already holds a full evaluation, seeding no sources
  /// (n_inputs = n_dffs = 0), or evaluates a fan-in-closed subset from
  /// freshly seeded sources.
  const std::uint32_t* order = nullptr;
  std::size_t n_order = 0;
  const std::uint32_t* fanins = nullptr;  ///< CSR fan-in wave rows
  const std::uint32_t* inputs = nullptr;  ///< PI wave rows, seeded from pi[]
  std::size_t n_inputs = 0;
  const std::uint32_t* dffs = nullptr;  ///< FF wave rows, seeded from ff[]
  std::size_t n_dffs = 0;
};

/// Evaluate words [w0, w0+nw) of every wave row the stream writes (all of
/// them, or the `order` subset). `pi`, `ff` and `wave` are
/// blocked row-major with `stride` words per row. Any nw is accepted: the
/// lane main loop covers whole lanes and a scalar tail finishes the rest,
/// so misaligned batch widths never read or write out of bounds.
using KernelFn = void (*)(const Stream& s, const std::uint64_t* pi,
                          const std::uint64_t* ff, std::uint64_t* wave,
                          std::size_t stride, std::size_t w0, std::size_t nw);

KernelFn scalar_kernel();  ///< always available
KernelFn avx2_kernel();    ///< nullptr when not compiled in
KernelFn avx512_kernel();  ///< nullptr when not compiled in

}  // namespace stt::simk
