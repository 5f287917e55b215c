#include "obs/obs.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "util/strings.hpp"

namespace stt::obs {

// ---------------------------------------------------------------------------
// Snapshot algebra + JSON (both build modes)
// ---------------------------------------------------------------------------

MetricsSnapshot snapshot_diff(const MetricsSnapshot& after,
                              const MetricsSnapshot& before) {
  MetricsSnapshot out = after;
  for (const auto& [name, v] : before.counters) {
    auto it = out.counters.find(name);
    if (it != out.counters.end()) it->second -= std::min(it->second, v);
  }
  for (const auto& [name, v] : before.gauges) {
    auto it = out.gauges.find(name);
    if (it != out.gauges.end()) it->second -= v;
  }
  for (const auto& [name, h] : before.histograms) {
    auto it = out.histograms.find(name);
    if (it == out.histograms.end()) continue;
    it->second.count -= std::min(it->second.count, h.count);
    it->second.sum -= std::min(it->second.sum, h.sum);
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b)
      it->second.buckets[b] -= std::min(it->second.buckets[b], h.buckets[b]);
  }
  return out;
}

void snapshot_merge(MetricsSnapshot& into, const MetricsSnapshot& from) {
  for (const auto& [name, v] : from.counters) into.counters[name] += v;
  for (const auto& [name, v] : from.gauges) into.gauges[name] += v;
  for (const auto& [name, h] : from.histograms) {
    HistogramSnapshot& dst = into.histograms[name];
    dst.count += h.count;
    dst.sum += h.sum;
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b)
      dst.buckets[b] += h.buckets[b];
  }
}

std::string metrics_json(const MetricsSnapshot& snap, int indent) {
  const std::string pad(static_cast<std::size_t>(std::max(indent, 0)), ' ');
  std::ostringstream os;
  os << pad << "{\n";
  os << pad << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    os << (first ? "" : ",") << "\n"
       << pad << "    \"" << json_escape(name) << "\": " << v;
    first = false;
  }
  os << (first ? "" : "\n" + pad + "  ") << "},\n";
  os << pad << "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    os << (first ? "" : ",") << "\n"
       << pad << "    \"" << json_escape(name) << "\": " << v;
    first = false;
  }
  os << (first ? "" : "\n" + pad + "  ") << "},\n";
  os << pad << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    int last = -1;
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b)
      if (h.buckets[b] != 0) last = b;
    os << (first ? "" : ",") << "\n"
       << pad << "    \"" << json_escape(name) << "\": {\"count\": " << h.count
       << ", \"sum\": " << h.sum << ", \"buckets\": [";
    for (int b = 0; b <= last; ++b) os << (b ? "," : "") << h.buckets[b];
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n" + pad + "  ") << "}\n";
  os << pad << "}";
  return os.str();
}

#if !defined(STTLOCK_OBS_DISABLED)

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

namespace detail {
unsigned shard_index() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

constinit thread_local CaptureFrame* t_capture = nullptr;

void capture_add(const Counter* c, std::uint64_t v) {
  t_capture->counters[c] += v;
}

void capture_record(const Histogram* h, std::uint64_t v) {
  HistogramSnapshot& s = t_capture->histograms[h];
  s.count += 1;
  s.sum += v;
  s.buckets[static_cast<std::size_t>(std::bit_width(v))] += 1;
}
}  // namespace detail

void Histogram::record(std::uint64_t v) noexcept {
  Shard& s = shards_[detail::shard_index() % kShards];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  s.buckets[static_cast<std::size_t>(std::bit_width(v))].fetch_add(
      1, std::memory_order_relaxed);
  if (detail::t_capture != nullptr) detail::capture_record(this, v);
}

ScopedCapture::ScopedCapture() : prev_(detail::t_capture), active_(true) {
  detail::t_capture = &frame_;
}

ScopedCapture::~ScopedCapture() {
  if (active_) detail::t_capture = prev_;
}

MetricsSnapshot ScopedCapture::stable_delta() {
  if (active_) {
    detail::t_capture = prev_;
    active_ = false;
  }
  return Metrics::global().attribute_stable(frame_);
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot out;
  for (const auto& s : shards_) {
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b)
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (auto& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

Metrics& Metrics::global() {
  static Metrics m;
  return m;
}

Counter& Metrics::counter(std::string_view name, bool stable) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name),
                           Entry<Counter>{std::make_unique<Counter>(), stable})
             .first;
  }
  return *it->second.instrument;
}

Gauge& Metrics::gauge(std::string_view name, bool stable) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name),
                         Entry<Gauge>{std::make_unique<Gauge>(), stable})
             .first;
  }
  return *it->second.instrument;
}

Histogram& Metrics::histogram(std::string_view name, bool stable) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      Entry<Histogram>{std::make_unique<Histogram>(), stable})
             .first;
  }
  return *it->second.instrument;
}

std::uint64_t Metrics::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.instrument->value();
}

MetricsSnapshot Metrics::snapshot(bool include_runtime) const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  for (const auto& [name, e] : counters_)
    if (e.stable || include_runtime) out.counters[name] = e.instrument->value();
  for (const auto& [name, e] : gauges_)
    if (e.stable || include_runtime) out.gauges[name] = e.instrument->value();
  for (const auto& [name, e] : histograms_)
    if (e.stable || include_runtime)
      out.histograms[name] = e.instrument->snapshot();
  return out;
}

MetricsSnapshot Metrics::attribute_stable(
    const detail::CaptureFrame& frame) const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  for (const auto& [name, e] : counters_) {
    if (!e.stable) continue;
    auto it = frame.counters.find(e.instrument.get());
    if (it != frame.counters.end() && it->second != 0)
      out.counters[name] = it->second;
  }
  for (const auto& [name, e] : histograms_) {
    if (!e.stable) continue;
    auto it = frame.histograms.find(e.instrument.get());
    if (it != frame.histograms.end() && it->second.count != 0)
      out.histograms[name] = it->second;
  }
  return out;
}

void Metrics::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : counters_) e.instrument->reset();
  for (auto& [name, e] : gauges_) e.instrument->reset();
  for (auto& [name, e] : histograms_) e.instrument->reset();
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder r;
  return r;
}

void TraceRecorder::start() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  // Open a new epoch: previously buffered events become stale and are
  // dropped lazily (buffers carry the epoch they were cleared for).
  epoch_.fetch_add(1, std::memory_order_relaxed);
  epoch_start_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now().time_since_epoch())
                            .count(),
                        std::memory_order_relaxed);
  for (auto& buf : buffers_) {
    std::lock_guard<std::mutex> blk(buf->mu);
    buf->events.clear();
    buf->epoch = epoch_.load(std::memory_order_relaxed);
  }
  active_.store(true, std::memory_order_relaxed);
}

std::int64_t TraceRecorder::now_us() const {
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return (now_ns - epoch_start_ns_.load(std::memory_order_relaxed)) / 1000;
}

TraceRecorder::Buffer& TraceRecorder::local_buffer() {
  thread_local std::shared_ptr<Buffer> local;
  if (!local) {
    local = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(registry_mu_);
    local->tid = next_tid_++;
    local->epoch = epoch_.load(std::memory_order_relaxed);
    buffers_.push_back(local);
  }
  return *local;
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  std::size_t n = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> blk(buf->mu);
    if (buf->epoch == epoch) n += buf->events.size();
  }
  return n;
}

std::string TraceRecorder::chrome_json() const {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> blk(buf->mu);
      if (buf->epoch != epoch) continue;
      events.insert(events.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.id < b.id;
  });
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\"" << e.cat
       << "\",\"ph\":\"X\",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us
       << ",\"pid\":1,\"tid\":" << e.tid << ",\"args\":{\"id\":" << e.id
       << "}}";
  }
  os << (first ? "" : "\n") << "],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_next_span_id{1};
}  // namespace

Span::Span(const char* cat, const char* lit, const std::string* dyn) {
  TraceRecorder& rec = TraceRecorder::global();
  if (!rec.active()) return;  // the idle-path cost: one relaxed load
  cat_ = cat;
  name_ = dyn ? *dyn : std::string(lit);
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  epoch_ = rec.epoch_.load(std::memory_order_relaxed);
  start_us_ = rec.now_us();
}

Span::~Span() {
  if (start_us_ < 0) return;
  TraceRecorder& rec = TraceRecorder::global();
  const std::int64_t end_us = rec.now_us();
  TraceRecorder::Buffer& buf = rec.local_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  if (buf.epoch != epoch_) return;  // recorder restarted mid-span
  buf.events.push_back(
      TraceRecorder::Event{std::move(name_), cat_, id_, start_us_,
                           std::max<std::int64_t>(end_us - start_us_, 0),
                           buf.tid});
}

#else  // STTLOCK_OBS_DISABLED

Metrics& Metrics::global() {
  static Metrics m;
  return m;
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder r;
  return r;
}

#endif  // STTLOCK_OBS_DISABLED

}  // namespace stt::obs
