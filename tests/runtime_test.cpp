// Tests for the campaign engine: thread-pool lifecycle, job-graph
// dependency ordering / failure containment / cancellation, seed
// derivation, retry policy, and the campaign determinism contract
// (--jobs 1 vs --jobs 8 byte-identical results).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "runtime/campaign.hpp"
#include "runtime/job.hpp"
#include "runtime/report.hpp"
#include "runtime/thread_pool.hpp"
#include "util/strings.hpp"

namespace stt {
namespace {

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(pool.stats().executed, 100u);
  EXPECT_EQ(pool.stats().discarded, 0u);
}

TEST(ThreadPoolTest, DrainShutdownFinishesPendingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1);
      });
    }
    pool.shutdown(ThreadPool::Shutdown::kDrain);
    EXPECT_EQ(pool.stats().executed, 50u);
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DiscardShutdownUnderPendingWorkDoesNotHang) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      counter.fetch_add(1);
    });
  }
  pool.shutdown(ThreadPool::Shutdown::kDiscard);
  const auto stats = pool.stats();
  // Everything is accounted for: ran or was discarded, nothing lost.
  EXPECT_EQ(stats.executed + stats.discarded, 200u);
  EXPECT_EQ(static_cast<std::uint64_t>(counter.load()), stats.executed);
  // wait_idle() must return immediately after a discarding shutdown.
  pool.wait_idle();
  // Submitting after shutdown is an error, not a silent drop.
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrains) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 30; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 30);
}

TEST(JobGraphTest, RespectsDependencyOrdering) {
  // Diamond: a -> {b, c} -> d. Record a global arrival index per job.
  ThreadPool pool(4);
  JobGraph graph;
  std::atomic<int> clock{0};
  int order[4] = {-1, -1, -1, -1};
  const JobId a = graph.add("a", [&](JobContext&) { order[0] = clock++; });
  const JobId b =
      graph.add("b", [&](JobContext&) { order[1] = clock++; }, {a});
  const JobId c =
      graph.add("c", [&](JobContext&) { order[2] = clock++; }, {a});
  const JobId d =
      graph.add("d", [&](JobContext&) { order[3] = clock++; }, {b, c});
  graph.run(pool);
  EXPECT_EQ(graph.state(a), JobState::kSucceeded);
  EXPECT_EQ(graph.state(d), JobState::kSucceeded);
  EXPECT_LT(order[0], order[1]);
  EXPECT_LT(order[0], order[2]);
  EXPECT_LT(order[1], order[3]);
  EXPECT_LT(order[2], order[3]);
}

TEST(JobGraphTest, FailureCancelsOnlyTransitiveDependents) {
  ThreadPool pool(2);
  JobGraph graph;
  std::atomic<bool> sibling_ran{false};
  const JobId bad =
      graph.add("bad", [](JobContext&) { throw std::runtime_error("boom"); });
  const JobId child = graph.add("child", [](JobContext&) {}, {bad});
  const JobId grandchild = graph.add("grandchild", [](JobContext&) {}, {child});
  const JobId sibling =
      graph.add("sibling", [&](JobContext&) { sibling_ran = true; });
  graph.run(pool);
  EXPECT_EQ(graph.state(bad), JobState::kFailed);
  EXPECT_EQ(graph.record(bad).error, "boom");
  EXPECT_EQ(graph.state(child), JobState::kCancelled);
  EXPECT_NE(graph.record(child).error.find("bad"), std::string::npos);
  EXPECT_EQ(graph.state(grandchild), JobState::kCancelled);
  EXPECT_EQ(graph.state(sibling), JobState::kSucceeded);
  EXPECT_TRUE(sibling_ran.load());
}

TEST(JobGraphTest, CancelBeforeRunPropagatesToDependents) {
  ThreadPool pool(2);
  JobGraph graph;
  std::atomic<bool> ran{false};
  const JobId a = graph.add("a", [&](JobContext&) { ran = true; });
  const JobId b = graph.add("b", [&](JobContext&) { ran = true; }, {a});
  const JobId other = graph.add("other", [](JobContext&) {});
  graph.cancel(a);
  graph.run(pool);
  EXPECT_EQ(graph.state(a), JobState::kCancelled);
  EXPECT_EQ(graph.state(b), JobState::kCancelled);
  EXPECT_EQ(graph.state(other), JobState::kSucceeded);
  EXPECT_FALSE(ran.load());
}

TEST(JobGraphTest, CooperativeCancellationDuringRun) {
  ThreadPool pool(2);
  JobGraph graph;
  std::atomic<bool> started{false};
  std::atomic<bool> observed_cancel{false};
  const JobId spinner = graph.add("spinner", [&](JobContext& ctx) {
    started = true;
    while (!ctx.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    observed_cancel = true;
  });
  std::thread canceller([&] {
    while (!started) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    graph.cancel(spinner);
  });
  graph.run(pool);
  canceller.join();
  EXPECT_TRUE(observed_cancel.load());
  EXPECT_EQ(graph.state(spinner), JobState::kCancelled);
}

TEST(CampaignSeedTest, DistinguishesEveryCoordinate) {
  const std::uint64_t base = campaign_seed(1, "s641", 1, 0, 0, 0);
  EXPECT_NE(base, campaign_seed(2, "s641", 1, 0, 0, 0));   // master
  EXPECT_NE(base, campaign_seed(1, "s1238", 1, 0, 0, 0));  // benchmark
  EXPECT_NE(base, campaign_seed(1, "s641", 0, 0, 0, 0));   // stage
  EXPECT_NE(base, campaign_seed(1, "s641", 1, 1, 0, 0));   // defense
  EXPECT_NE(base, campaign_seed(1, "s641", 1, 0, 1, 0));   // trial
  EXPECT_NE(base, campaign_seed(1, "s641", 1, 0, 0, 1));   // attempt
  // Stable across calls and processes (pure function of its inputs).
  EXPECT_EQ(base, campaign_seed(1, "s641", 1, 0, 0, 0));
}

TEST(RetryTest, SeedBackoffRetriesUntilSuccess) {
  std::vector<std::uint64_t> seeds_seen;
  const auto outcome = run_with_seed_backoff(
      5, [](int attempt) { return 100u + static_cast<unsigned>(attempt); },
      [&seeds_seen](std::uint64_t seed, int attempt) {
        seeds_seen.push_back(seed);
        if (attempt < 2) throw std::runtime_error("infeasible");
      });
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 3);
  ASSERT_EQ(seeds_seen.size(), 3u);
  // Each attempt re-derives a fresh seed — backoff in seed space.
  EXPECT_EQ(seeds_seen[0], 100u);
  EXPECT_EQ(seeds_seen[1], 101u);
  EXPECT_EQ(seeds_seen[2], 102u);
}

TEST(RetryTest, BoundedAttemptsRecordLastError) {
  const auto outcome = run_with_seed_backoff(
      3, [](int) { return 0u; },
      [](std::uint64_t, int) { throw std::runtime_error("always"); });
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(outcome.error, "always");
}

CampaignSpec small_spec(unsigned jobs) {
  CampaignSpec spec;
  spec.benchmarks = {"s641", "s820"};  // the two smallest Table I circuits
  spec.defenses = {{"independent", {}}, {"parametric", {}}};
  spec.trials = 2;
  spec.jobs = jobs;
  return spec;
}

TEST(CampaignTest, ParallelRunIsByteIdenticalToSerial) {
  const CampaignReport serial = run_campaign(small_spec(1));
  const CampaignReport parallel = run_campaign(small_spec(8));
  ASSERT_EQ(serial.rows.size(), 8u);
  ASSERT_EQ(parallel.rows.size(), 8u);
  // The deterministic views must match byte for byte; the runtime profile
  // is excluded by construction.
  EXPECT_EQ(campaign_results_csv(serial), campaign_results_csv(parallel));
  EXPECT_EQ(campaign_json(serial, /*include_profile=*/false),
            campaign_json(parallel, /*include_profile=*/false));
  EXPECT_EQ(parallel.profile.threads, 8u);
  for (const TrialRecord& row : serial.rows) {
    EXPECT_TRUE(row.ok) << row.benchmark << ": " << row.error;
    EXPECT_GT(row.num_luts, 0);
  }
}

TEST(CampaignTest, TrialsGetDistinctSeeds) {
  const CampaignReport report = run_campaign(small_spec(2));
  // Same benchmark+defense, different trials -> different seeds and
  // (with overwhelming probability) different selections.
  const TrialRecord* t0 = nullptr;
  const TrialRecord* t1 = nullptr;
  for (const TrialRecord& row : report.rows) {
    if (row.benchmark == "s641" && row.defense == "parametric") {
      (row.trial == 0 ? t0 : t1) = &row;
    }
  }
  ASSERT_NE(t0, nullptr);
  ASSERT_NE(t1, nullptr);
  EXPECT_NE(t0->selection_seed, t1->selection_seed);
  EXPECT_NE(t0->circuit_seed, t1->circuit_seed);
}

TEST(CampaignTest, UnknownBenchmarkThrowsBeforeRunning) {
  CampaignSpec spec = small_spec(1);
  spec.benchmarks = {"not_a_circuit"};
  EXPECT_THROW(run_campaign(spec), std::invalid_argument);
}

TEST(CampaignTest, ReportsProgressOncePerRow) {
  CampaignSpec spec = small_spec(4);
  std::atomic<std::size_t> ticks{0};
  std::size_t last_total = 0;
  std::mutex m;
  spec.on_progress = [&](std::size_t done, std::size_t total,
                         const std::string&) {
    std::lock_guard lock(m);
    ++ticks;
    EXPECT_LE(done, total);
    last_total = total;
  };
  const CampaignReport report = run_campaign(spec);
  EXPECT_EQ(ticks.load(), report.rows.size());
  EXPECT_EQ(last_total, report.rows.size());
}

TEST(CampaignTest, DefenseAttackMatrixIsByteIdenticalAcrossJobs) {
  CampaignSpec spec;
  spec.benchmarks = {"s641"};
  spec.defenses = {{"xor", {{"count", "4"}}}, {"latch", {{"count", "3"}}}};
  spec.attacks = {"sat", "none"};
  spec.trials = 1;
  spec.jobs = 1;
  const CampaignReport serial = run_campaign(spec);
  spec.jobs = 8;
  const CampaignReport parallel = run_campaign(spec);
  ASSERT_EQ(serial.rows.size(), 4u);
  EXPECT_EQ(campaign_results_csv(serial), campaign_results_csv(parallel));
  EXPECT_EQ(campaign_json(serial, /*include_profile=*/false),
            campaign_json(parallel, /*include_profile=*/false));
  for (const TrialRecord& row : serial.rows) {
    EXPECT_TRUE(row.ok) << row.defense << ": " << row.error;
    EXPECT_GT(row.key_cells, 0);
    EXPECT_GT(row.key_bits, 0);
    EXPECT_FALSE(row.defense_tuning.empty());
    // Annotated lint: by-design constructs must not read as defects.
    EXPECT_TRUE(row.lint_ran);
    EXPECT_EQ(row.lint_errors, 0) << row.defense;
    if (row.attack == "sat") {
      EXPECT_TRUE(row.attack_ran);
    } else {
      EXPECT_FALSE(row.attack_ran);
    }
  }
  // The results CSV carries the defense kind in its "algorithm" column
  // plus the accounting columns.
  const std::string csv = campaign_results_csv(serial);
  EXPECT_NE(csv.find("defense_tuning"), std::string::npos);
  EXPECT_NE(csv.find("key_bits"), std::string::npos);
  EXPECT_NE(csv.find("count=4"), std::string::npos);
  EXPECT_NE(csv.find("latch"), std::string::npos);
}

TEST(CampaignTest, BadTuningValueFailsBeforeAnyJob) {
  CampaignSpec spec = small_spec(1);
  spec.defenses = {{"xor", {{"count", "abc"}}}};
  std::size_t progressed = 0;
  spec.on_progress = [&](std::size_t, std::size_t, const std::string&) {
    ++progressed;
  };
  try {
    run_campaign(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("\"xor\""), std::string::npos) << msg;
    EXPECT_NE(msg.find("\"count\""), std::string::npos) << msg;
    EXPECT_NE(msg.find("\"abc\""), std::string::npos) << msg;
  }
  EXPECT_EQ(progressed, 0u);
}

TEST(CampaignTest, UnknownDefenseAttackOrTuningThrowsWithKnownKinds) {
  CampaignSpec bad_defense = small_spec(1);
  bad_defense.defenses = {{"nope", {}}};
  try {
    run_campaign(bad_defense);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nope"), std::string::npos);
    EXPECT_NE(msg.find("xor"), std::string::npos);  // lists the valid kinds
    EXPECT_NE(msg.find("parametric"), std::string::npos);
  }

  CampaignSpec bad_attack = small_spec(1);
  bad_attack.attacks = {"sat", "bogus"};
  try {
    run_campaign(bad_attack);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos);
    EXPECT_NE(msg.find("sat"), std::string::npos);
  }

  CampaignSpec bad_tuning = small_spec(1);
  bad_tuning.defenses = {{"xor", {{"zap", "1"}}}};
  EXPECT_THROW(run_campaign(bad_tuning), std::invalid_argument);

  CampaignSpec no_defense = small_spec(1);
  no_defense.defenses.clear();
  EXPECT_THROW(run_campaign(no_defense), std::invalid_argument);
}

TEST(CampaignReportTest, CsvShapesAreConsistent) {
  CampaignSpec spec = small_spec(2);
  spec.benchmarks = {"s641"};
  spec.attacks = {"sat", "static"};
  const CampaignReport report = run_campaign(spec);
  const std::string results = campaign_results_csv(report);
  const std::string timing = campaign_timing_csv(report);
  // header + one line per row, newline-terminated
  const auto lines = [](const std::string& s) {
    return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
  };
  EXPECT_EQ(lines(results), report.rows.size() + 1);
  EXPECT_EQ(lines(timing), report.rows.size() + 1);
  EXPECT_NE(results.find("benchmark"), std::string::npos);
  // The timing view is keyed by the full grid key (header included), so a
  // group's sat and static rows are told apart.
  EXPECT_EQ(timing.rfind("benchmark,defense,defense_tuning,attack,trial,", 0),
            0u);
  std::set<std::string> keys;
  for (const std::string& line : split(timing, '\n')) {
    const std::vector<std::string> cells = split(line, ',');
    if (cells.size() < 5) continue;  // the trailing empty line
    keys.insert(cells[0] + "," + cells[1] + "," + cells[2] + "," + cells[3] +
                "," + cells[4]);
  }
  EXPECT_EQ(keys.size(), report.rows.size() + 1);
  const std::string summary = campaign_summary_text(report);
  EXPECT_NE(summary.find("independent"), std::string::npos);
  EXPECT_NE(summary.find("parametric"), std::string::npos);
}

}  // namespace
}  // namespace stt
