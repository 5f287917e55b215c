#include "runtime/job.hpp"

#include <optional>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace stt {

bool JobContext::cancelled() const { return graph_->is_cancel_requested(id_); }

JobId JobGraph::add(std::string name, Body body,
                    const std::vector<JobId>& deps) {
  if (!body) throw std::invalid_argument("JobGraph::add: empty body");
  std::lock_guard lock(nodes_mutex_);
  if (running_) {
    throw std::logic_error("JobGraph::add: graph is already running");
  }
  const JobId id = nodes_.size();
  Node node;
  node.record.name = std::move(name);
  node.body = std::move(body);
  node.deps_remaining = deps.size();
  nodes_.push_back(std::move(node));
  for (const JobId dep : deps) {
    if (dep >= id) throw std::out_of_range("JobGraph::add: bad dependency id");
    nodes_[dep].dependents.push_back(id);
  }
  return id;
}

void JobGraph::cancel(JobId id) {
  std::lock_guard lock(nodes_mutex_);
  if (id >= nodes_.size()) throw std::out_of_range("JobGraph::cancel");
  nodes_[id].cancel_requested = true;
  // Before run() there is no pool to notify; readiness handling in run()
  // turns the request into a kCancelled settle. During a run, a pending or
  // queued job must settle now so the graph can terminate.
  if (running_) {
    const JobState state = nodes_[id].record.state;
    if (state == JobState::kPending || state == JobState::kReady) {
      cancel_locked(id, "cancelled", *run_pool_);
    }
  }
}

void JobGraph::run(ThreadPool& pool) {
  std::unique_lock lock(nodes_mutex_);
  if (running_) throw std::logic_error("JobGraph::run: already running");
  if (settled_ != 0) throw std::logic_error("JobGraph::run: graph already ran");
  running_ = true;
  run_pool_ = &pool;
  for (JobId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].deps_remaining != 0) continue;
    if (nodes_[id].cancel_requested) {
      settle(id, JobState::kCancelled, "cancelled", pool);
    } else {
      make_ready(id, pool);
    }
  }
  settled_cv_.wait(lock, [this] { return settled_ == nodes_.size(); });
  running_ = false;
  run_pool_ = nullptr;
}

std::size_t JobGraph::size() const {
  std::lock_guard lock(nodes_mutex_);
  return nodes_.size();
}

JobState JobGraph::state(JobId id) const {
  std::lock_guard lock(nodes_mutex_);
  return nodes_.at(id).record.state;
}

JobRecord JobGraph::record(JobId id) const {
  std::lock_guard lock(nodes_mutex_);
  return nodes_.at(id).record;
}

std::size_t JobGraph::count(JobState state) const {
  std::lock_guard lock(nodes_mutex_);
  std::size_t n = 0;
  for (const Node& node : nodes_) {
    if (node.record.state == state) ++n;
  }
  return n;
}

void JobGraph::make_ready(JobId id, ThreadPool& pool) {
  Node& node = nodes_[id];
  node.record.state = JobState::kReady;
  node.ready_stamp = Timer::now_seconds();
  pool.submit([this, id, &pool] { execute(id, pool); });
}

void JobGraph::settle(JobId id, JobState state, const std::string& error,
                      ThreadPool& pool) {
  Node& node = nodes_[id];
  node.record.state = state;
  node.record.error = error;
  ++settled_;
  if (settled_ == nodes_.size()) settled_cv_.notify_all();
  for (const JobId dep_id : node.dependents) {
    Node& dependent = nodes_[dep_id];
    if (dependent.record.state != JobState::kPending) continue;
    if (state == JobState::kSucceeded) {
      if (--dependent.deps_remaining == 0) {
        if (dependent.cancel_requested) {
          settle(dep_id, JobState::kCancelled, "cancelled", pool);
        } else {
          make_ready(dep_id, pool);
        }
      }
    } else {
      cancel_locked(dep_id,
                    "dependency '" + node.record.name + "' " +
                        (state == JobState::kFailed ? "failed" : "cancelled"),
                    pool);
    }
  }
}

void JobGraph::cancel_locked(JobId id, const std::string& cause,
                             ThreadPool& pool) {
  Node& node = nodes_[id];
  node.cancel_requested = true;
  switch (node.record.state) {
    case JobState::kPending:
    case JobState::kReady:
      // A kReady job may already sit in a pool queue; execute() observes
      // the settled state and becomes a no-op.
      settle(id, JobState::kCancelled, cause, pool);
      break;
    case JobState::kRunning:
      // Cooperative only: the body may poll JobContext::cancelled().
      break;
    default:
      break;  // already settled
  }
}

void JobGraph::execute(JobId id, ThreadPool& pool) {
  std::optional<obs::Span> span;
  {
    std::lock_guard lock(nodes_mutex_);
    Node& node = nodes_[id];
    if (node.record.state != JobState::kReady) return;  // cancelled in queue
    node.record.state = JobState::kRunning;
    node.record.queue_ms = (Timer::now_seconds() - node.ready_stamp) * 1e3;
    span.emplace("job", node.record.name);
    // Queue wait is wall-clock and thus run-dependent: runtime-only.
    static obs::Histogram& queue_wait =
        obs::Metrics::global().histogram("jobs.queue_wait_us", /*stable=*/false);
    queue_wait.record(
        static_cast<std::uint64_t>(node.record.queue_ms * 1e3));
  }
  // Jobs executed per process depends on resume/shard state (skipped grid
  // points never become jobs), so this is runtime accounting, not part of
  // the deterministic stable-metrics block.
  static obs::Counter& executed =
      obs::Metrics::global().counter("jobs.executed", /*stable=*/false);
  executed.add(1);
  JobContext ctx(this, id);
  Timer timer;
  bool failed = false;
  std::string error;
  try {
    nodes_[id].body(ctx);  // body is immutable while the graph runs
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  } catch (...) {
    failed = true;
    error = "unknown exception";
  }
  std::lock_guard lock(nodes_mutex_);
  Node& node = nodes_[id];
  node.record.run_ms = timer.millis();
  if (failed) {
    settle(id, JobState::kFailed, error, pool);
  } else if (node.cancel_requested) {
    settle(id, JobState::kCancelled, "cancelled while running", pool);
  } else {
    settle(id, JobState::kSucceeded, "", pool);
  }
}

bool JobGraph::is_cancel_requested(JobId id) const {
  std::lock_guard lock(nodes_mutex_);
  return nodes_.at(id).cancel_requested;
}

}  // namespace stt
