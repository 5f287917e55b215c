#include "sim/compiled.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "util/strings.hpp"

namespace stt {

namespace {

constexpr std::uint32_t kNoInstr = static_cast<std::uint32_t>(-1);

/// Per-ISA word accounting: `sim.words` is the true pattern-word count
/// (one word = 64 patterns regardless of lane width — ProgressMeter's
/// Mevals/s and campaign obs read it), while `sim.isa.<name>` and
/// `sim.lane_words.<K>` attribute the same words to the kernel that
/// evaluated them, so metrics snapshots show which ISA ran.
struct WordCounters {
  obs::Counter* words;
  obs::Counter* isa_words;
  obs::Counter* lane_words;
};

WordCounters counters_for(SimIsa isa) {
  static obs::Counter& words = obs::Metrics::global().counter("sim.words");
  static const auto per_isa = [] {
    std::array<std::pair<obs::Counter*, obs::Counter*>, 3> c{};
    for (const SimIsa i :
         {SimIsa::kScalar, SimIsa::kAvx2, SimIsa::kAvx512}) {
      auto& m = obs::Metrics::global();
      c[static_cast<int>(i)] = {
          &m.counter(std::string("sim.isa.") + sim_isa_name(i)),
          &m.counter("sim.lane_words." +
                     std::to_string(sim_lane_words(i)))};
    }
    return c;
  }();
  const auto& [isa_words, lane_words] = per_isa[static_cast<int>(isa)];
  return {&words, isa_words, lane_words};
}

/// Attribute `n` evaluated pattern words to `isa`.
void count_words(SimIsa isa, std::size_t n) {
  const WordCounters wc = counters_for(isa);
  wc.words->add(static_cast<std::uint64_t>(n));
  wc.isa_words->add(static_cast<std::uint64_t>(n));
  wc.lane_words->add(static_cast<std::uint64_t>(n));
}

/// Block-size pin (0 = automatic policy). Seeded once from the
/// STTLOCK_SIM_BLOCK environment variable; set_batch_block_override takes
/// precedence afterwards.
std::atomic<std::size_t>& block_override_slot() {
  static std::atomic<std::size_t> slot{
      static_cast<std::size_t>(env_int("STTLOCK_SIM_BLOCK").value_or(0))};
  return slot;
}

simk::KernelFn kernel_for(SimIsa isa) {
  switch (isa) {
    case SimIsa::kAvx2:
      if (simk::KernelFn k = simk::avx2_kernel()) return k;
      break;
    case SimIsa::kAvx512:
      if (simk::KernelFn k = simk::avx512_kernel()) return k;
      break;
    case SimIsa::kScalar:
      break;
  }
  return simk::scalar_kernel();
}

}  // namespace

void CompiledSim::set_batch_block_override(std::size_t words) {
  block_override_slot().store(words, std::memory_order_relaxed);
}

std::size_t CompiledSim::batch_block_override() {
  return block_override_slot().load(std::memory_order_relaxed);
}

simk::Op CompiledSim::opcode_for(const Cell& cell) {
  using simk::Op;
  const int n = cell.fanin_count();
  switch (cell.kind) {
    case CellKind::kConst0:
      return Op::kConst0;
    case CellKind::kConst1:
      return Op::kConst1;
    case CellKind::kBuf:
      return Op::kBuf;
    case CellKind::kNot:
      return Op::kNot;
    case CellKind::kAnd:
      return n == 2 ? Op::kAnd2 : Op::kAndN;
    case CellKind::kNand:
      return n == 2 ? Op::kNand2 : Op::kNandN;
    case CellKind::kOr:
      return n == 2 ? Op::kOr2 : Op::kOrN;
    case CellKind::kNor:
      return n == 2 ? Op::kNor2 : Op::kNorN;
    case CellKind::kXor:
      return n == 2 ? Op::kXor2 : Op::kXorN;
    case CellKind::kXnor:
      return n == 2 ? Op::kXnor2 : Op::kXnorN;
    case CellKind::kLut:
      return n == 1 ? Op::kLut1 : n == 2 ? Op::kLut2 : Op::kLutN;
    default:
      throw std::invalid_argument("CompiledSim: not a combinational cell");
  }
}

CompiledSim::CompiledSim(const Netlist& nl)
    : n_cells_(nl.size()),
      inputs_(nl.inputs().begin(), nl.inputs().end()),
      dffs_(nl.dffs().begin(), nl.dffs().end()),
      outputs_(nl.outputs().begin(), nl.outputs().end()) {
  STTLOCK_SPAN("sim", "lower");
  ns_cells_.reserve(dffs_.size());
  for (const CellId id : dffs_) ns_cells_.push_back(nl.cell(id).fanins.at(0));

  // Stream order: a counting sort of the instructions by (level, opcode),
  // where PI and flip-flop rows are level 0 and an instruction sits one
  // level above its deepest fan-in. Every fan-in is on a lower level, so
  // the order is topological; grouping each level by opcode turns the
  // stream into long same-opcode runs the kernels dispatch on once.
  // Within a bucket the netlist's topological order is kept.
  const std::vector<CellId> topo = nl.topo_order();
  std::vector<std::uint32_t> level(n_cells_, 0);
  std::vector<std::uint32_t> bucket(n_cells_, 0);
  std::vector<std::uint32_t> starts;  // bucket sizes, then first slots
  std::size_t n_instrs = 0;
  for (const CellId id : topo) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kInput || c.kind == CellKind::kDff) continue;
    std::uint32_t lv = 1;
    for (const CellId f : c.fanins) lv = std::max(lv, level[f] + 1);
    level[id] = lv;
    bucket[id] = static_cast<std::uint32_t>((lv - 1) * simk::kNumOps +
                                            static_cast<std::size_t>(
                                                opcode_for(c)));
    if (bucket[id] >= starts.size()) starts.resize(bucket[id] + 1, 0);
    ++starts[bucket[id]];
    ++n_instrs;
  }
  std::uint32_t next = 0;
  for (std::uint32_t& s : starts) next += std::exchange(s, next);
  std::vector<CellId> order(n_instrs);
  for (const CellId id : topo) {
    const CellKind kind = nl.cell(id).kind;
    if (kind == CellKind::kInput || kind == CellKind::kDff) continue;
    order[starts[bucket[id]]++] = id;
  }

  instr_of_.assign(n_cells_, kNoInstr);
  instrs_.reserve(n_instrs);
  for (const CellId id : order) {
    const Cell& c = nl.cell(id);
    simk::Instr ins;
    ins.out = id;
    ins.fanin_begin = static_cast<std::uint32_t>(fanins_.size());
    ins.fanin_count = static_cast<std::uint16_t>(c.fanin_count());
    ins.op = opcode_for(c);
    ins.mask = c.kind == CellKind::kLut
                   ? (c.lut_mask & full_mask(c.fanin_count()))
                   : 0;
    for (const CellId f : c.fanins) fanins_.push_back(f);
    instr_of_[id] = static_cast<std::uint32_t>(instrs_.size());
    instrs_.push_back(ins);
  }
  local_order_.reserve(n_instrs);
  for (const CellId id : topo) {
    if (instr_of_[id] != kNoInstr) local_order_.push_back(instr_of_[id]);
  }
  // The vectors never reallocate after lowering (set_lut_mask mutates
  // elements in place), so these views stay valid for the engine's
  // lifetime.
  stream_.instrs = instrs_.data();
  stream_.n_instrs = instrs_.size();
  stream_.fanins = fanins_.data();
  stream_.inputs = inputs_.data();
  stream_.n_inputs = inputs_.size();
  stream_.dffs = dffs_.data();
  stream_.n_dffs = dffs_.size();
  local_stream_ = stream_;
  local_stream_.order = local_order_.data();
  local_stream_.n_order = local_order_.size();
}

std::uint32_t CompiledSim::lut_instr(CellId id, const char* who) const {
  const std::uint32_t idx = id < instr_of_.size() ? instr_of_[id] : kNoInstr;
  if (idx == kNoInstr) {
    throw std::invalid_argument(std::string("CompiledSim::") + who +
                                ": not an instruction");
  }
  const simk::Op op = instrs_[idx].op;
  if (op != simk::Op::kLut1 && op != simk::Op::kLut2 &&
      op != simk::Op::kLutN) {
    throw std::invalid_argument(std::string("CompiledSim::") + who +
                                ": cell is not a LUT");
  }
  return idx;
}

void CompiledSim::set_lut_mask(CellId id, std::uint64_t mask) {
  simk::Instr& ins = instrs_[lut_instr(id, "set_lut_mask")];
  ins.mask = mask & full_mask(ins.fanin_count);
}

std::uint64_t CompiledSim::lut_mask(CellId id) const {
  const std::uint32_t idx = id < instr_of_.size() ? instr_of_[id] : kNoInstr;
  if (idx == kNoInstr) {
    throw std::invalid_argument("CompiledSim::lut_mask: not an instruction");
  }
  return instrs_[idx].mask;
}

void CompiledSim::eval_word(std::span<const std::uint64_t> pi,
                            std::span<const std::uint64_t> ff,
                            std::span<std::uint64_t> wave) const {
  run_word(stream_, "eval_word", pi, ff, wave);
}

void CompiledSim::step(std::span<const std::uint64_t> pi,
                       std::span<std::uint64_t> state,
                       std::span<std::uint64_t> wave) const {
  run_word(stream_, "step", pi, state, wave);
  latch(state, wave);
}

void CompiledSim::step(const Cone& cone, std::span<const std::uint64_t> pi,
                       std::span<std::uint64_t> state,
                       std::span<std::uint64_t> wave) const {
  if (cone.stream_ != instrs_.data()) {
    throw std::invalid_argument(
        "CompiledSim::step: cone built by another engine");
  }
  if (!cone.fanin_closed_) {
    throw std::invalid_argument(
        "CompiledSim::step: cone is not closed over its fan-ins");
  }
  run_word(sub_stream(cone, /*seed_sources=*/true), "step", pi, state, wave);
  latch(state, wave);
}

void CompiledSim::run_word(const simk::Stream& stream, const char* who,
                           std::span<const std::uint64_t> pi,
                           std::span<const std::uint64_t> ff,
                           std::span<std::uint64_t> wave) const {
  if (pi.size() != inputs_.size() || ff.size() != dffs_.size()) {
    throw std::invalid_argument(std::string("CompiledSim::") + who +
                                ": stimulus size mismatch");
  }
  if (wave.size() != n_cells_) {
    throw std::invalid_argument(std::string("CompiledSim::") + who +
                                ": wave size mismatch");
  }
  const SimIsa isa = active_sim_isa();
  count_words(isa, 1);
  kernel_for(isa)(stream, pi.data(), ff.data(), wave.data(), /*stride=*/1,
                  /*w0=*/0, /*nw=*/1);
}

void CompiledSim::latch(std::span<std::uint64_t> state,
                        std::span<const std::uint64_t> wave) const {
  for (std::size_t j = 0; j < ns_cells_.size(); ++j) {
    state[j] = wave[ns_cells_[j]];
  }
}

simk::Stream CompiledSim::sub_stream(const Cone& cone,
                                     bool seed_sources) const {
  simk::Stream sub = stream_;
  sub.order = cone.instrs_.data();
  sub.n_order = cone.instrs_.size();
  if (!seed_sources) {
    sub.n_inputs = 0;
    sub.n_dffs = 0;
  }
  return sub;
}

void CompiledSim::eval_batch(std::size_t W, std::span<const std::uint64_t> pi,
                             std::span<const std::uint64_t> ff,
                             std::span<std::uint64_t> wave,
                             ParallelFor* par) const {
  if (W == 0) return;
  if (pi.size() != inputs_.size() * W || ff.size() != dffs_.size() * W) {
    throw std::invalid_argument(
        "CompiledSim::eval_batch: stimulus size mismatch");
  }
  if (wave.size() != n_cells_ * W) {
    throw std::invalid_argument("CompiledSim::eval_batch: wave size mismatch");
  }
  STTLOCK_SPAN("sim-batch", "eval_batch");
  // Resolve the kernel once per batch so every block of this call runs the
  // same ISA even if set_sim_isa intervenes concurrently.
  const SimIsa isa = active_sim_isa();
  const simk::KernelFn kernel = kernel_for(isa);
  // Block-size policy: serial calls stream every wave row end to end in
  // one pass; parallel calls split the batch into about four blocks per
  // worker (never smaller than the lane-aware grain, rounded up to whole
  // lanes so only the final block can have a scalar tail). Any block size
  // yields bit-identical results — lanes are independent.
  std::size_t block = batch_block_override();
  if (block == 0) {
    if (par == nullptr) {
      block = W;
    } else {
      const std::size_t jobs = std::max<std::size_t>(1, par->concurrency());
      const std::size_t targets = jobs == 1 ? 1 : 4 * jobs;
      const std::size_t lane = sim_lane_words(isa);
      block = std::max(words_per_block(isa), (W + targets - 1) / targets);
      block = (block + lane - 1) / lane * lane;
    }
  }
  count_words(isa, W);
  // Narrow blocks walk the grouped stream, wide ones the netlist's
  // topological order (see kLocalityWords).
  const simk::Stream& stream =
      block >= kLocalityWords ? local_stream_ : stream_;
  const std::size_t n_blocks = (W + block - 1) / block;
  const auto run_block = [&](std::size_t b) {
    const std::size_t w0 = b * block;
    const std::size_t nw = std::min(block, W - w0);
    kernel(stream, pi.data(), ff.data(), wave.data(), W, w0, nw);
  };
  if (par != nullptr && n_blocks > 1) {
    par->run(n_blocks, run_block);
  } else {
    for (std::size_t b = 0; b < n_blocks; ++b) run_block(b);
  }
}

CompiledSim::Cone CompiledSim::cone_of(CellId lut) const {
  return cone_of(std::span<const CellId>(&lut, 1));
}

CompiledSim::Cone CompiledSim::cone_of(std::span<const CellId> luts) const {
  std::vector<char> hit(n_cells_, 0);
  std::size_t first = instrs_.size();
  for (const CellId id : luts) {
    first = std::min<std::size_t>(first, lut_instr(id, "cone_of"));
    hit[id] = 1;
  }
  // Nothing before the earliest seed in stream order reads a seed.
  // Flip-flop rows are never instruction outputs, so no mark crosses one.
  std::vector<std::uint32_t> instrs;
  for (std::size_t i = first; i < instrs_.size(); ++i) {
    const simk::Instr& ins = instrs_[i];
    bool in = hit[ins.out] != 0;
    for (std::uint32_t k = 0; k < ins.fanin_count && !in; ++k) {
      in = hit[fanins_[ins.fanin_begin + k]] != 0;
    }
    if (!in) continue;
    hit[ins.out] = 1;
    instrs.push_back(static_cast<std::uint32_t>(i));
  }
  return make_cone(std::move(instrs), hit, /*fanin_closed=*/false);
}

CompiledSim::Cone CompiledSim::next_state_cone() const {
  std::vector<char> hit(n_cells_, 0);
  for (const CellId id : ns_cells_) hit[id] = 1;
  // Walk the stream backwards: an instruction is in the cone when a marked
  // row reads it, and then marks its own fan-ins. Flip-flop and PI rows
  // are never instruction outputs, so the walk stops at them.
  std::vector<std::uint32_t> instrs;
  for (std::size_t i = instrs_.size(); i-- > 0;) {
    const simk::Instr& ins = instrs_[i];
    if (!hit[ins.out]) continue;
    for (std::uint32_t k = 0; k < ins.fanin_count; ++k) {
      hit[fanins_[ins.fanin_begin + k]] = 1;
    }
    instrs.push_back(static_cast<std::uint32_t>(i));
  }
  std::reverse(instrs.begin(), instrs.end());
  // Only instruction rows may count as the cone's: a fan-in mark on a PI
  // or flip-flop row must not turn it into a response.
  std::vector<char> rows(n_cells_, 0);
  for (const std::uint32_t i : instrs) rows[instrs_[i].out] = 1;
  return make_cone(std::move(instrs), rows, /*fanin_closed=*/true);
}

CompiledSim::Cone CompiledSim::make_cone(std::vector<std::uint32_t> instrs,
                                         const std::vector<char>& hit,
                                         bool fanin_closed) const {
  Cone cone;
  cone.stream_ = instrs_.data();
  cone.fanin_closed_ = fanin_closed;
  cone.cells_.reserve(instrs.size());
  for (const std::uint32_t i : instrs) cone.cells_.push_back(instrs_[i].out);
  cone.instrs_ = std::move(instrs);
  for (const Cone::Response& r : responses()) {
    if (hit[r.row]) cone.responses_.push_back(r);
  }
  return cone;
}

std::vector<CompiledSim::Cone::Response> CompiledSim::responses() const {
  std::vector<Cone::Response> all;
  all.reserve(outputs_.size() + ns_cells_.size());
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    all.push_back({outputs_[o], static_cast<std::uint32_t>(o)});
  }
  for (std::size_t j = 0; j < ns_cells_.size(); ++j) {
    all.push_back(
        {ns_cells_[j], static_cast<std::uint32_t>(outputs_.size() + j)});
  }
  return all;
}

void CompiledSim::eval_cone(std::size_t W, const Cone& cone,
                            std::span<std::uint64_t> wave) const {
  if (cone.stream_ != instrs_.data()) {
    throw std::invalid_argument(
        "CompiledSim::eval_cone: cone built by another engine");
  }
  if (W == 0) return;
  if (wave.size() != n_cells_ * W) {
    throw std::invalid_argument("CompiledSim::eval_cone: wave size mismatch");
  }
  STTLOCK_SPAN("sim-batch", "eval_cone");
  const SimIsa isa = active_sim_isa();
  count_words(isa, W);
  if (cone.instrs_.empty()) return;
  kernel_for(isa)(sub_stream(cone, /*seed_sources=*/false), nullptr, nullptr,
                  wave.data(), W, /*w0=*/0, W);
}

void CompiledSim::gather_outputs(std::size_t W,
                                 std::span<const std::uint64_t> wave,
                                 std::span<std::uint64_t> out) const {
  if (wave.size() != n_cells_ * W || out.size() != outputs_.size() * W) {
    throw std::invalid_argument("CompiledSim::gather_outputs: size mismatch");
  }
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    const std::uint64_t* src = wave.data() + outputs_[o] * W;
    std::uint64_t* dst = out.data() + o * W;
    for (std::size_t w = 0; w < W; ++w) dst[w] = src[w];
  }
}

void CompiledSim::gather_next_state(std::size_t W,
                                    std::span<const std::uint64_t> wave,
                                    std::span<std::uint64_t> out) const {
  if (wave.size() != n_cells_ * W || out.size() != ns_cells_.size() * W) {
    throw std::invalid_argument(
        "CompiledSim::gather_next_state: size mismatch");
  }
  for (std::size_t j = 0; j < ns_cells_.size(); ++j) {
    const std::uint64_t* src = wave.data() + ns_cells_[j] * W;
    std::uint64_t* dst = out.data() + j * W;
    for (std::size_t w = 0; w < W; ++w) dst[w] = src[w];
  }
}

}  // namespace stt
