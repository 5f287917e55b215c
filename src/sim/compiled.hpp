// Compiled batch simulation engine: the hot path of every expensive loop.
//
// `CompiledSim` lowers a `Netlist` once into a flat instruction stream —
// topologically ordered opcodes specialized by (kind, fan-in), fan-in wave
// indices packed into one contiguous CSR array, LUT truth-table masks inline
// in the instruction (the IR lives in sim/kernels.hpp) — and evaluates into
// caller-provided scratch buffers, so the hot path performs zero heap
// allocations. Three entry points:
//
//  * `eval_word`  — one 64-pattern word per net, the classic lane layout;
//  * `eval_batch` — W words per net in a *blocked* wave layout (the value of
//    net r, word w lives at `wave[r * W + w]`), which amortizes instruction
//    decode and fan-in index loads across a block of words per instruction;
//  * `eval_batch` with a `ParallelFor` — fans word blocks out across worker
//    threads; lanes are independent, so results are bit-identical for every
//    batch width and thread count.
//
// Execution is SIMD-wide: every entry point dispatches to the widest kernel
// the host supports (scalar 64-bit words, AVX2 4-word lanes, AVX-512 8-word
// lanes — see sim/isa.hpp for the one-time CPUID probe and the
// --sim-isa / STTLOCK_SIM_ISA override). The kernels instantiate one shared
// interpreter template, so results are bit-identical across ISAs; the batch
// block size is lane-width-aware (`words_per_block`) so wide lanes amortize
// instruction decode over several vector iterations.
//
// LUT masks can be re-patched in place (`set_lut_mask`) without re-lowering,
// which is what the key-guessing attack loops (brute force, ML, DPA) need:
// compile once, mutate the candidate key, re-evaluate.
//
// The engine snapshots the netlist at construction: later edits to the
// netlist (masks included) are not seen; patch masks with `set_lut_mask` or
// lower a fresh `CompiledSim`. Sequential simulation is `step`: one clock of
// 64 parallel trajectories whose state the caller owns.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/isa.hpp"
#include "sim/kernels.hpp"

namespace stt {

/// Minimal parallel-execution interface so the sim layer can fan work out
/// across the runtime ThreadPool without linking against it (stt_runtime
/// already depends on stt_attack -> stt_sim). `run` must invoke fn(i) for
/// every i in [0, n) and return only when all invocations finished.
/// `ThreadPoolParallelFor` (src/runtime/parallel.hpp) is the adapter.
class ParallelFor {
 public:
  virtual ~ParallelFor() = default;
  virtual void run(std::size_t n,
                   const std::function<void(std::size_t)>& fn) = 0;
  /// Worker count hint used to size work blocks; 1 when unknown (a serial
  /// fallback is always a correct interpretation).
  virtual std::size_t concurrency() const { return 1; }
};

class CompiledSim {
 public:
  /// Words per instruction-stream pass of the scalar kernel; the historical
  /// block size. Wide kernels use `words_per_block()` instead, which scales
  /// with the lane width so each instruction still amortizes its decode
  /// over several vector iterations.
  static constexpr std::size_t kWordsPerBlock = 8;

  /// 64-bit words per SIMD lane of the currently active kernel (1 scalar,
  /// 4 AVX2, 8 AVX-512). May change when set_sim_isa intervenes.
  static std::size_t lane_words() { return sim_lane_words(active_sim_isa()); }

  /// `w` rounded up to a whole number of active-ISA lanes: the unit in
  /// which lane-aware callers (ScanOracle) reserve wave scratch.
  static std::size_t padded_words(std::size_t w) {
    const std::size_t lane = lane_words();
    return (w + lane - 1) / lane * lane;
  }

  /// Minimum words per instruction-stream pass when `eval_batch` fans
  /// blocks out across a `ParallelFor`: the load-balancing grain.
  /// Lane-width-aware — four lanes per block for the wide kernels, the
  /// historical 8-word block for the scalar one — so a wide lane never
  /// straddles a block boundary. Serial `eval_batch` calls ignore the
  /// grain and run one pass over the whole batch: streaming each wave row
  /// end to end is markedly faster than revisiting rows block by block
  /// (sequential prefetch, one row-address computation per instruction).
  static std::size_t words_per_block(SimIsa isa) {
    const std::size_t lane = sim_lane_words(isa);
    return lane == 1 ? kWordsPerBlock : 4 * lane;
  }

  /// Pin the `eval_batch` block size to `words` for benchmarking and
  /// tuning (0 restores the automatic policy above). Results are
  /// bit-identical for every block size; only the memory-access schedule
  /// changes. Also settable via the STTLOCK_SIM_BLOCK environment
  /// variable, read once at first use.
  static void set_batch_block_override(std::size_t words);
  static std::size_t batch_block_override();

  /// Lower `nl` into the instruction stream. The engine keeps no reference
  /// to `nl`.
  explicit CompiledSim(const Netlist& nl);

  /// Rows in a wave buffer: one per netlist cell, indexed by CellId, so
  /// existing per-cell consumers (activity counting, DPA's wave[target])
  /// keep their indexing.
  std::size_t wave_size() const { return n_cells_; }

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_dffs() const { return dffs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }

  /// Combinational-source / sink id lists (same order as the netlist's).
  std::span<const CellId> input_cells() const { return inputs_; }
  std::span<const CellId> dff_cells() const { return dffs_; }
  std::span<const CellId> output_cells() const { return outputs_; }
  /// D-pin drivers, ordered as dff_cells(): wave[next_state_cells()[j]] is
  /// flip-flop j's next state.
  std::span<const CellId> next_state_cells() const { return ns_cells_; }

  /// Patch the truth table of a compiled LUT in place (O(1), no re-lower).
  /// Throws std::invalid_argument if `id` is not a LUT instruction.
  void set_lut_mask(CellId id, std::uint64_t mask);
  std::uint64_t lut_mask(CellId id) const;

  /// Evaluate one word of 64 patterns into `wave` (size wave_size()); no
  /// allocation. `pi[i]` feeds input_cells()[i], `ff[j]` dff_cells()[j].
  void eval_word(std::span<const std::uint64_t> pi,
                 std::span<const std::uint64_t> ff,
                 std::span<std::uint64_t> wave) const;

  /// One clock of 64 trajectories: `eval_word` with `state` as the
  /// flip-flop outputs, then latch the next state (the D-pin values) into
  /// `state` (size num_dffs()). `wave` keeps the cycle's per-cell values,
  /// primary outputs included.
  void step(std::span<const std::uint64_t> pi,
            std::span<std::uint64_t> state,
            std::span<std::uint64_t> wave) const;

  /// Evaluate W words in the blocked layout: element (row r, word w) of
  /// `wave` (size wave_size()*W) is wave[r*W + w]; `pi` (num_inputs()*W)
  /// and `ff` (num_dffs()*W) use the same layout. With `par`, word blocks
  /// run concurrently; results are bit-identical regardless of batch
  /// width, thread count, and active SIMD ISA (misaligned widths are
  /// finished by the scalar tail of the same kernel).
  void eval_batch(std::size_t W, std::span<const std::uint64_t> pi,
                  std::span<const std::uint64_t> ff,
                  std::span<std::uint64_t> wave,
                  ParallelFor* par = nullptr) const;

  /// Gather primary-output rows of a blocked wave into `out`
  /// (num_outputs()*W, blocked layout).
  void gather_outputs(std::size_t W, std::span<const std::uint64_t> wave,
                      std::span<std::uint64_t> out) const;
  /// Gather next-state rows of a blocked wave into `out` (num_dffs()*W).
  void gather_next_state(std::size_t W, std::span<const std::uint64_t> wave,
                         std::span<std::uint64_t> out) const;

 private:
  static simk::Op opcode_for(const Cell& cell);

  std::size_t n_cells_ = 0;
  std::vector<simk::Instr> instrs_;      ///< topological order
  std::vector<std::uint32_t> fanins_;    ///< CSR fan-in wave rows
  std::vector<std::uint32_t> instr_of_;  ///< CellId -> instr index or -1
  std::vector<CellId> inputs_, dffs_, outputs_, ns_cells_;
  simk::Stream stream_;  ///< borrowed view over the vectors above
};

}  // namespace stt
