// Observability: tracing spans, metrics, and profiling hooks.
//
// Two independent facilities share this header:
//
//  * Tracing. `Span` is a scoped RAII timer; when the global
//    `TraceRecorder` is active, the span's lifetime is recorded into a
//    thread-local buffer and can be exported as Chrome `chrome://tracing`
//    JSON (load the file via chrome://tracing or https://ui.perfetto.dev).
//    When the recorder is idle a span costs one relaxed atomic load, so
//    the `STTLOCK_SPAN(...)` hooks stay in release builds.
//
//  * Metrics. `Metrics` is a registry of named counters/gauges/histograms.
//    Counters are sharded across cache lines so hot paths (simulation
//    words, oracle queries) can bump them from many threads without
//    contention. A snapshot is a plain sorted map; snapshots of *stable*
//    instruments are byte-identical across `--jobs` counts, mirroring the
//    campaign determinism contract, while *runtime* instruments (steal
//    counts, queue waits) are scheduling-dependent and are kept out of
//    deterministic output.
//
// Configure with -DENABLE_OBS=OFF to compile the whole subsystem down to
// no-ops: `STTLOCK_SPAN` expands to nothing and the classes below become
// empty stubs with identical signatures, so call sites never #ifdef.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace stt::obs {

#if defined(STTLOCK_OBS_DISABLED)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

// ---------------------------------------------------------------------------
// Snapshot types. These are real in both build modes so reporting code and
// tests compile unchanged; with ENABLE_OBS=OFF every snapshot is empty.
// ---------------------------------------------------------------------------

/// Power-of-two bucketed histogram: bucket b counts values v with
/// bit_width(v) == b, i.e. bucket 0 holds zeros, bucket b>0 holds
/// [2^(b-1), 2^b). No min/max fields — everything here is additive, so
/// snapshots can be diffed and merged exactly.
struct HistogramSnapshot {
  static constexpr int kBuckets = 65;  // bit_width of a uint64 is 0..64
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kBuckets> buckets{};
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// after - before, element-wise; instruments absent from `before` pass
/// through. Gauges subtract too (they are deltas of a level, which is only
/// meaningful for monotone gauges — the campaign does not diff gauges).
MetricsSnapshot snapshot_diff(const MetricsSnapshot& after,
                              const MetricsSnapshot& before);

/// into += from, element-wise. Addition is commutative and associative, so
/// merging per-thread or per-process snapshots in any order yields the same
/// result — this is what makes stable metrics `--jobs`-independent.
void snapshot_merge(MetricsSnapshot& into, const MetricsSnapshot& from);

/// Deterministic JSON rendering (sorted keys, trimmed histogram buckets).
/// `indent` prefixes every line with that many spaces (for embedding).
std::string metrics_json(const MetricsSnapshot& snap, int indent = 0);

#if !defined(STTLOCK_OBS_DISABLED)

// ---------------------------------------------------------------------------
// Metrics (enabled build)
// ---------------------------------------------------------------------------

class Counter;
class Histogram;

namespace detail {
/// Small per-thread index used to spread writers across instrument shards;
/// assigned round-robin on first use, then a plain thread_local load.
unsigned shard_index() noexcept;

/// Accumulator behind `ScopedCapture`: per-instrument sums keyed by the
/// instrument's address (instruments are never deallocated, so the pointer
/// is a stable identity). Names are resolved only once at capture end, via
/// `Metrics::attribute_stable`, keeping the hot-path hook allocation-light
/// and lookup-free.
struct CaptureFrame {
  std::map<const Counter*, std::uint64_t> counters;
  std::map<const Histogram*, HistogramSnapshot> histograms;
};

/// Innermost active capture frame of this thread (nullptr = none). Checked
/// with a plain thread_local load on every Counter::add / Histogram::record,
/// so idle cost is one predictable branch. `constinit` tells other
/// translation units there is no dynamic initializer, so they load the
/// variable directly rather than through GCC's TLS wrapper call, under
/// which UBSan reports a false null-pointer load.
extern constinit thread_local CaptureFrame* t_capture;

void capture_add(const Counter* c, std::uint64_t v);
void capture_record(const Histogram* h, std::uint64_t v);
}  // namespace detail

/// Monotone event counter, sharded to keep concurrent writers off each
/// other's cache lines. `add` is a single relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t v = 1) noexcept {
    shards_[detail::shard_index() % kShards].n.fetch_add(
        v, std::memory_order_relaxed);
    if (detail::t_capture != nullptr) detail::capture_add(this, v);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.n.load(std::memory_order_relaxed);
    return total;
  }

 private:
  static constexpr int kShards = 16;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> n{0};
  };
  friend class Metrics;
  void reset() noexcept {
    for (auto& s : shards_) s.n.store(0, std::memory_order_relaxed);
  }
  std::array<Shard, kShards> shards_{};
};

/// Instantaneous level (last-writer-wins `set`, plus relative `add`).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t v) noexcept { v_.fetch_add(v, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  friend class Metrics;
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }
  std::atomic<std::int64_t> v_{0};
};

/// Power-of-two bucketed histogram; `record` is two relaxed adds on a
/// thread-hashed shard.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept;
  HistogramSnapshot snapshot() const noexcept;

 private:
  static constexpr int kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets> buckets{};
  };
  friend class Metrics;
  void reset() noexcept;
  std::array<Shard, kShards> shards_{};
};

/// Registry of named instruments. Lookup takes a mutex, so hot call sites
/// should cache the returned reference (instruments are never deallocated
/// or invalidated; `reset()` zeroes them in place):
///
///   static obs::Counter& words = obs::Metrics::global().counter("sim.words");
///   words.add(64);
///
/// `stable` tags whether the instrument's value is deterministic across
/// `--jobs` counts; `snapshot(/*include_runtime=*/false)` returns only the
/// stable subset, which is what deterministic campaign output embeds.
class Metrics {
 public:
  static Metrics& global();

  Counter& counter(std::string_view name, bool stable = true);
  Gauge& gauge(std::string_view name, bool stable = false);
  Histogram& histogram(std::string_view name, bool stable = true);

  /// Current value of a counter, or 0 when no such counter exists yet.
  /// Non-creating, for read-side consumers such as ProgressMeter.
  std::uint64_t counter_value(std::string_view name) const;

  MetricsSnapshot snapshot(bool include_runtime = true) const;

  /// Resolve a capture frame's per-instrument sums to names, keeping only
  /// *stable* instruments with a nonzero delta. The result is exactly what
  /// the capturing thread added while the frame was installed — other
  /// threads' concurrent bumps never appear, which is what makes per-stage
  /// deltas deterministic for the campaign's single-threaded stage bodies.
  MetricsSnapshot attribute_stable(const detail::CaptureFrame& frame) const;

  /// Zero every registered instrument in place (references stay valid).
  void reset();

 private:
  template <typename T>
  struct Entry {
    std::unique_ptr<T> instrument;
    bool stable = false;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry<Counter>, std::less<>> counters_;
  std::map<std::string, Entry<Gauge>, std::less<>> gauges_;
  std::map<std::string, Entry<Histogram>, std::less<>> histograms_;
};

/// RAII capture of every stable-instrument bump made by *this thread* while
/// the object is alive. The campaign driver wraps each grid-stage body
/// (circuit generation, defense, attack) in one of these; the resulting
/// deltas are additive, so `report.obs` is their sum with each stage counted
/// exactly once — reproducible across --jobs, resume, and shard merges.
///
/// Captures shadow, not nest: while an inner capture is installed the outer
/// one sees nothing. Stage bodies never nest captures, so this never
/// matters in practice, and shadowing keeps the hook a single pointer test.
class ScopedCapture {
 public:
  ScopedCapture();
  ~ScopedCapture();
  ScopedCapture(const ScopedCapture&) = delete;
  ScopedCapture& operator=(const ScopedCapture&) = delete;

  /// Deactivate the capture and resolve the accumulated deltas against the
  /// global registry (stable instruments only, zero deltas omitted).
  /// Idempotent; call at most once per interesting stage.
  MetricsSnapshot stable_delta();

 private:
  detail::CaptureFrame frame_;
  detail::CaptureFrame* prev_ = nullptr;
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// Tracing (enabled build)
// ---------------------------------------------------------------------------

/// Collects completed spans into per-thread buffers while active.
/// `start()` clears previous events and opens a new epoch; `stop()` freezes
/// collection; `chrome_json()` renders everything gathered so far as a
/// Chrome trace-event document (complete events, `"ph":"X"`).
class TraceRecorder {
 public:
  static TraceRecorder& global();

  void start();
  void stop() { active_.store(false, std::memory_order_relaxed); }
  bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }
  std::string chrome_json() const;
  std::size_t event_count() const;

 private:
  friend class Span;
  struct Event {
    std::string name;
    const char* cat;
    std::uint64_t id;
    std::int64_t ts_us;
    std::int64_t dur_us;
    int tid;
  };
  struct Buffer {
    std::mutex mu;
    std::vector<Event> events;
    int tid = 0;
    std::uint64_t epoch = 0;
  };
  Buffer& local_buffer();
  std::int64_t now_us() const;

  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::int64_t> epoch_start_ns_{0};
  mutable std::mutex registry_mu_;
  std::vector<std::shared_ptr<Buffer>> buffers_;
  int next_tid_ = 1;
};

/// Scoped trace span. Construction when the recorder is idle is a single
/// relaxed load (the name argument is not copied); when active, the span's
/// [start, end) interval lands in the current thread's buffer at
/// destruction. Spans carry a process-unique id so results can reference
/// their root span (`AttackBase::span_id`).
class Span {
 public:
  Span(const char* cat, const char* name) : Span(cat, name, nullptr) {}
  Span(const char* cat, const std::string& name) : Span(cat, nullptr, &name) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Unique id of this span, or 0 when the recorder was idle at creation.
  std::uint64_t id() const noexcept { return id_; }

 private:
  Span(const char* cat, const char* lit, const std::string* dyn);
  const char* cat_ = nullptr;
  std::string name_;
  std::int64_t start_us_ = -1;  // -1 = recorder idle, span inert
  std::uint64_t id_ = 0;
  std::uint64_t epoch_ = 0;
};

#else  // STTLOCK_OBS_DISABLED -------------------------------------------------

class Counter {
 public:
  void add(std::uint64_t = 1) noexcept {}
  std::uint64_t value() const noexcept { return 0; }
};

class Gauge {
 public:
  void set(std::int64_t) noexcept {}
  void add(std::int64_t) noexcept {}
  std::int64_t value() const noexcept { return 0; }
};

class Histogram {
 public:
  void record(std::uint64_t) noexcept {}
  HistogramSnapshot snapshot() const noexcept { return {}; }
};

class Metrics {
 public:
  static Metrics& global();
  Counter& counter(std::string_view, bool = true) { return counter_; }
  Gauge& gauge(std::string_view, bool = false) { return gauge_; }
  Histogram& histogram(std::string_view, bool = true) { return histogram_; }
  std::uint64_t counter_value(std::string_view) const { return 0; }
  MetricsSnapshot snapshot(bool = true) const { return {}; }
  void reset() {}

 private:
  Counter counter_;
  Gauge gauge_;
  Histogram histogram_;
};

class ScopedCapture {
 public:
  MetricsSnapshot stable_delta() { return {}; }
};

class TraceRecorder {
 public:
  static TraceRecorder& global();
  void start() {}
  void stop() {}
  bool active() const noexcept { return false; }
  std::string chrome_json() const { return "{\"traceEvents\":[]}\n"; }
  std::size_t event_count() const { return 0; }
};

class Span {
 public:
  Span(const char*, const char*) {}
  Span(const char*, const std::string&) {}
  std::uint64_t id() const noexcept { return 0; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif  // STTLOCK_OBS_DISABLED

}  // namespace stt::obs

// Scoped-span statement macro. Usage:
//
//   STTLOCK_SPAN("flow-stage", "selection");          // literal name
//   STTLOCK_SPAN("job", record.name);                 // dynamic name
//
// Expands to a block-scoped obs::Span with a line-unique identifier; with
// ENABLE_OBS=OFF it expands to nothing (arguments are not evaluated).
#define STTLOCK_OBS_CAT2(a, b) a##b
#define STTLOCK_OBS_CAT(a, b) STTLOCK_OBS_CAT2(a, b)
#if defined(STTLOCK_OBS_DISABLED)
#define STTLOCK_SPAN(cat, name) \
  do {                          \
  } while (0)
#else
#define STTLOCK_SPAN(cat, name) \
  ::stt::obs::Span STTLOCK_OBS_CAT(stt_obs_span_, __LINE__)((cat), (name))
#endif
