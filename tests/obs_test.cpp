// Observability layer: counters/gauges/histograms, snapshot algebra,
// trace spans, and the determinism contract the campaign report relies on
// (stable metrics byte-identical across --jobs values).
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <string>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/campaign.hpp"
#include "runtime/report.hpp"
#include "runtime/thread_pool.hpp"

namespace stt {
namespace {

TEST(ObsCounter, SumsAcrossConcurrentWriters) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at configure time";
  obs::Counter& c = obs::Metrics::global().counter("test.counter.sum");
  const std::uint64_t base = c.value();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value() - base,
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(ObsMetrics, GaugeSetAddValue) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at configure time";
  obs::Gauge& g = obs::Metrics::global().gauge("test.gauge");
  g.set(42);
  g.add(-2);
  EXPECT_EQ(g.value(), 40);
}

TEST(ObsMetrics, HistogramPowerOfTwoBuckets) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at configure time";
  obs::Histogram& h = obs::Metrics::global().histogram("test.histo");
  const obs::HistogramSnapshot before = h.snapshot();
  h.record(0);   // bit_width 0 -> bucket 0
  h.record(1);   // bucket 1
  h.record(2);   // bucket 2
  h.record(3);   // bucket 2
  h.record(4);   // bucket 3
  const obs::HistogramSnapshot after = h.snapshot();
  EXPECT_EQ(after.count - before.count, 5u);
  EXPECT_EQ(after.sum - before.sum, 10u);
  EXPECT_EQ(after.buckets[0] - before.buckets[0], 1u);
  EXPECT_EQ(after.buckets[1] - before.buckets[1], 1u);
  EXPECT_EQ(after.buckets[2] - before.buckets[2], 2u);
  EXPECT_EQ(after.buckets[3] - before.buckets[3], 1u);
}

TEST(ObsMetrics, SnapshotDiffMergeRoundTrip) {
  obs::MetricsSnapshot a;
  a.counters["x"] = 10;
  a.counters["y"] = 3;
  a.histograms["h"].count = 4;
  a.histograms["h"].sum = 20;
  a.histograms["h"].buckets[2] = 4;
  obs::MetricsSnapshot b;
  b.counters["x"] = 7;
  b.histograms["h"].count = 1;
  b.histograms["h"].sum = 5;
  b.histograms["h"].buckets[2] = 1;

  obs::MetricsSnapshot d = obs::snapshot_diff(a, b);
  EXPECT_EQ(d.counters["x"], 3u);
  EXPECT_EQ(d.counters["y"], 3u);
  EXPECT_EQ(d.histograms["h"].count, 3u);

  obs::MetricsSnapshot merged = b;
  obs::snapshot_merge(merged, d);
  EXPECT_EQ(obs::metrics_json(merged), obs::metrics_json(a));
}

TEST(ObsMetrics, StableSnapshotExcludesRuntimeInstruments) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at configure time";
  obs::Metrics::global().counter("test.stable.ctr", /*stable=*/true).add(1);
  obs::Metrics::global().counter("test.runtime.ctr", /*stable=*/false).add(1);
  const obs::MetricsSnapshot stable =
      obs::Metrics::global().snapshot(/*include_runtime=*/false);
  const obs::MetricsSnapshot full =
      obs::Metrics::global().snapshot(/*include_runtime=*/true);
  EXPECT_TRUE(stable.counters.count("test.stable.ctr"));
  EXPECT_FALSE(stable.counters.count("test.runtime.ctr"));
  EXPECT_TRUE(full.counters.count("test.runtime.ctr"));
}

TEST(ObsMetrics, JsonIsSortedAndDeterministic) {
  obs::MetricsSnapshot s;
  s.counters["zebra"] = 1;
  s.counters["alpha"] = 2;
  s.gauges["g"] = -5;
  const std::string json = obs::metrics_json(s);
  const auto a = json.find("alpha");
  const auto z = json.find("zebra");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);
  EXPECT_EQ(json, obs::metrics_json(s));
}

TEST(ObsTrace, SpanIsInertWhileRecorderIdle) {
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.stop();
  const std::size_t before = rec.event_count();
  {
    obs::Span s("test", "idle_span");
    EXPECT_EQ(s.id(), 0u);
  }
  EXPECT_EQ(rec.event_count(), before);
}

TEST(ObsTrace, RecordsNestedSpansIntoChromeJson) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at configure time";
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.start();
  {
    obs::Span outer("test", "outer");
    EXPECT_NE(outer.id(), 0u);
    { obs::Span inner("test", std::string("inner")); }
  }
  rec.stop();
  EXPECT_EQ(rec.event_count(), 2u);
  const std::string json = rec.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
}

TEST(ObsTrace, SpansAcrossPoolThreadsAllLand) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at configure time";
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.start();
  constexpr int kTasks = 64;
  {
    ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([] { obs::Span s("test", "pool_task"); });
    }
    pool.wait_idle();
  }
  rec.stop();
  EXPECT_EQ(rec.event_count(), static_cast<std::size_t>(kTasks));
}

TEST(ObsTrace, RestartDropsSpansFromThePreviousEpoch) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at configure time";
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.start();
  auto stale = std::make_unique<obs::Span>("test", "stale");
  rec.start();  // new epoch; the live span above is now stale
  stale.reset();
  { obs::Span fresh("test", "fresh"); }
  rec.stop();
  EXPECT_EQ(rec.event_count(), 1u);
  const std::string json = rec.chrome_json();
  EXPECT_EQ(json.find("\"stale\""), std::string::npos);
  EXPECT_NE(json.find("\"fresh\""), std::string::npos);
}

TEST(ObsTrace, DisabledBuildCompilesSpanMacroToNothing) {
  // The macro must be an expression-statement in both modes; under
  // ENABLE_OBS=OFF it must not evaluate its arguments.
  int evaluations = 0;
  auto name = [&evaluations] {
    ++evaluations;
    return "macro_span";
  };
  {
    STTLOCK_SPAN("test", name());
  }
  if (obs::kEnabled) {
    EXPECT_EQ(evaluations, 1);
  } else {
    EXPECT_EQ(evaluations, 0);
  }
}

// The campaign report's "obs" block is the stable-metrics delta of the
// run; it must be byte-identical between a serial and a parallel campaign
// even though runtime instruments (queue waits, steals) differ wildly.
TEST(ObsCampaign, StableMetricsDeltaIdenticalAcrossJobs) {
  CampaignSpec spec;
  spec.benchmarks = {"s641"};
  spec.defenses = {{"independent", {}}, {"dependent", {}}};
  spec.trials = 2;
  spec.attacks = {"sat"};
  spec.lint = false;

  spec.jobs = 1;
  const CampaignReport serial = run_campaign(spec);
  spec.jobs = 8;
  const CampaignReport parallel = run_campaign(spec);

  EXPECT_EQ(obs::metrics_json(serial.obs), obs::metrics_json(parallel.obs));
  EXPECT_EQ(campaign_json(serial, /*include_profile=*/false),
            campaign_json(parallel, /*include_profile=*/false));
  if (obs::kEnabled) {
    EXPECT_TRUE(serial.obs.counters.count("sat.dips"));
    EXPECT_TRUE(serial.obs.counters.count("flow.runs"));
    EXPECT_FALSE(serial.obs.counters.count("pool.tasks"));
  }
}

}  // namespace
}  // namespace stt
