// Compiled batch simulation engine: the hot path of every expensive loop.
//
// `CompiledSim` lowers a `Netlist` once into a flat instruction stream —
// opcodes specialized by (kind, fan-in) in a topological order grouped by
// (level, opcode), so the kernels dispatch once per same-opcode run, fan-in
// wave indices packed into one contiguous CSR array, LUT truth-table masks
// inline in the instruction (the IR lives in sim/kernels.hpp) — and
// evaluates into caller-provided scratch buffers, so the hot path performs
// zero heap allocations. Four entry points:
//
//  * `eval_word`  — one 64-pattern word per net, the classic lane layout;
//  * `eval_batch` — W words per net in a *blocked* wave layout (the value of
//    net r, word w lives at `wave[r * W + w]`), which amortizes instruction
//    decode and fan-in index loads across a block of words per instruction;
//    wide blocks walk the netlist's own topological order, which keeps
//    fan-in rows in cache, instead of the grouped stream;
//  * `eval_batch` with a `ParallelFor` — fans word blocks out across worker
//    threads; lanes are independent, so results are bit-identical for every
//    batch width and thread count;
//  * `eval_cone`  — re-runs only a `Cone` (the fan-out of one or more LUTs,
//    from `cone_of`) over a blocked wave that already holds a full
//    evaluation of the same stimulus: after a mask patch, the wave is then
//    what a fresh `eval_batch` would give, at the cost of the cone alone.
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
// compile once, mutate the candidate key, re-evaluate — brute force and ML
// re-evaluate only the cone of the LUTs they changed.
//
// The engine snapshots the netlist at construction: later edits to the
// netlist (masks included) are not seen; patch masks with `set_lut_mask` or
// lower a fresh `CompiledSim`. Sequential simulation is `step`: one clock of
// 64 parallel trajectories whose state the caller owns; a caller that needs
// only the state trajectory steps the `next_state_cone()` alone.
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

  /// Block width, in words per row, from which `eval_batch` walks the
  /// netlist's own topological order instead of the grouped stream. A
  /// narrow block is bound by dispatch, which the grouped stream pays once
  /// per opcode run; a wide block is bound by memory, and the netlist's
  /// order evaluates a gate soon after its fan-ins, while their rows are
  /// still in cache. Both orders give the same values.
  static constexpr std::size_t kLocalityWords = 64;

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

  /// Lower `nl` into the instruction stream: O(cells + fan-ins), under a
  /// `sim/lower` trace span. The engine keeps no reference to `nl`.
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
  /// finished by the scalar tail of the same kernel). Blocks of at least
  /// `kLocalityWords` words walk the netlist's own topological order
  /// instead of the grouped stream (see there).
  void eval_batch(std::size_t W, std::span<const std::uint64_t> pi,
                  std::span<const std::uint64_t> ff,
                  std::span<std::uint64_t> wave,
                  ParallelFor* par = nullptr) const;

  /// A subset of the instruction stream, in stream order. `cone_of` builds
  /// the combinational fan-out cone of one or more LUTs: every instruction
  /// whose value can change when their masks change, the LUTs' own
  /// included. `next_state_cone` builds the fan-in cone of the D pins.
  /// Both stop at flip-flops: a D-pin driver can be in a cone, a
  /// flip-flop's output row never is. A cone holds instruction indices,
  /// not copies, so it sees later `set_lut_mask` patches; it is immutable,
  /// and valid only with the engine that built it.
  class Cone {
   public:
    /// One scan-response bit the cone rewrites.
    struct Response {
      CellId row;            ///< wave row
      std::uint32_t column;  ///< output_cells() index, then num_outputs() +
                             ///< next_state_cells() index
    };

    /// Wave rows the cone rewrites, in evaluation order.
    std::span<const CellId> cells() const { return cells_; }
    /// The primary-output and next-state rows among cells(), one entry per
    /// response column (a row observed by two columns appears twice), in
    /// column order.
    std::span<const Response> responses() const { return responses_; }

   private:
    friend class CompiledSim;
    const simk::Instr* stream_ = nullptr;  ///< the building engine's stream
    /// Closed over fan-ins (next_state_cone): evaluable from freshly
    /// seeded sources, with no earlier evaluation in the wave.
    bool fanin_closed_ = false;
    std::vector<std::uint32_t> instrs_;
    std::vector<CellId> cells_;
    std::vector<Response> responses_;
  };

  /// The cone of `lut`, or the union of the cones of `luts`, built in one
  /// forward pass over the instruction stream. Throws
  /// std::invalid_argument if an id is not a LUT instruction.
  Cone cone_of(CellId lut) const;
  Cone cone_of(std::span<const CellId> luts) const;

  /// The combinational fan-in cone of every D pin: each instruction some
  /// next state depends on. Its responses() are the next-state columns
  /// whose D-pin driver is an instruction.
  Cone next_state_cone() const;

  /// `step` over `cone` (from `next_state_cone()`) alone: the same next
  /// state in `state`, at the cost of the cone. Of `wave`, only the PI and
  /// flip-flop rows and the cone's rows are written. Throws
  /// std::invalid_argument on a size mismatch, another engine's cone, or
  /// a cone not closed over its fan-ins (one from `cone_of`, whose values
  /// would depend on stale wave rows).
  void step(const Cone& cone, std::span<const std::uint64_t> pi,
            std::span<std::uint64_t> state,
            std::span<std::uint64_t> wave) const;

  /// Every scan-response bit in column order, numbered as in
  /// Cone::responses(): what a whole-circuit evaluation rewrites.
  std::vector<Cone::Response> responses() const;

  /// Re-evaluate `cone` in place over a blocked W-word wave. When `wave`
  /// holds a full evaluation of some stimulus and only the cone's LUTs were
  /// patched since, the result is bit-identical to `eval_batch` of that
  /// stimulus under the current masks. Counts W words in `sim.words`, like
  /// the `eval_batch` it stands in for. Throws std::invalid_argument on a
  /// wave size mismatch or a cone built by another engine.
  void eval_cone(std::size_t W, const Cone& cone,
                 std::span<std::uint64_t> wave) const;

  /// Gather primary-output rows of a blocked wave into `out`
  /// (num_outputs()*W, blocked layout).
  void gather_outputs(std::size_t W, std::span<const std::uint64_t> wave,
                      std::span<std::uint64_t> out) const;
  /// Gather next-state rows of a blocked wave into `out` (num_dffs()*W).
  void gather_next_state(std::size_t W, std::span<const std::uint64_t> wave,
                         std::span<std::uint64_t> out) const;

 private:
  /// Test-only view of the two instruction orders (compiled_sim_test).
  friend struct CompiledSimOrders;

  static simk::Op opcode_for(const Cell& cell);
  /// Instruction index of LUT `id`; throws std::invalid_argument naming
  /// `who` when `id` is not a LUT instruction.
  std::uint32_t lut_instr(CellId id, const char* who) const;
  /// A cone over stream positions `instrs` (ascending); `hit` marks the
  /// wave rows it rewrites, for its responses.
  Cone make_cone(std::vector<std::uint32_t> instrs,
                 const std::vector<char>& hit, bool fanin_closed) const;
  /// The kernel view of `cone`: its positions, with the PI and
  /// flip-flop rows seeded only when `seed_sources`.
  simk::Stream sub_stream(const Cone& cone, bool seed_sources) const;
  /// Evaluate `stream` over one word per row after checking the sizes;
  /// errors name `who`.
  void run_word(const simk::Stream& stream, const char* who,
                std::span<const std::uint64_t> pi,
                std::span<const std::uint64_t> ff,
                std::span<std::uint64_t> wave) const;
  /// Copy the D-pin rows of a one-word `wave` into `state`.
  void latch(std::span<std::uint64_t> state,
             std::span<const std::uint64_t> wave) const;

  std::size_t n_cells_ = 0;
  std::vector<simk::Instr> instrs_;      ///< grouped by (level, opcode)
  std::vector<std::uint32_t> fanins_;    ///< CSR fan-in wave rows
  std::vector<std::uint32_t> instr_of_;  ///< CellId -> instr index or -1
  /// Instruction indices in the netlist's topological order.
  std::vector<std::uint32_t> local_order_;
  std::vector<CellId> inputs_, dffs_, outputs_, ns_cells_;
  simk::Stream stream_;        ///< borrowed view over the vectors above
  simk::Stream local_stream_;  ///< stream_ walked in local_order_
};

}  // namespace stt
