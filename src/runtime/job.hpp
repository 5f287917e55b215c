// Dependency-aware job graph executed on a ThreadPool.
//
// A Job is a named unit of work with an arbitrary set of prerequisite
// jobs. The graph tracks, per job, the scheduling timeline the campaign
// reports care about (time spent ready-but-queued vs running) and a
// terminal state:
//
//   kPending --(deps met)--> kReady --(worker picks up)--> kRunning
//     kRunning --> kSucceeded | kFailed (body threw)
//     any pre-running state --> kCancelled (explicit cancel(), or a
//                               dependency failed / was cancelled)
//
// Failure containment is the point: one failed job cancels exactly its
// transitive dependents, never its siblings, and run() always returns
// with every job settled — a campaign with one infeasible grid point
// still completes the other rows.
//
// Cooperative cancellation: a running job is never interrupted, but its
// body can poll JobContext::cancelled() at convenient boundaries.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace stt {

using JobId = std::size_t;

enum class JobState {
  kPending,    ///< waiting on dependencies
  kReady,      ///< queued on the pool
  kRunning,    ///< body executing
  kSucceeded,  ///< body returned
  kFailed,     ///< body threw; error() holds the message
  kCancelled,  ///< cancelled before running
};

class JobGraph;

/// Handed to every job body; exposes the cooperative cancellation flag.
class JobContext {
 public:
  bool cancelled() const;
  JobId id() const { return id_; }

 private:
  friend class JobGraph;
  JobContext(const JobGraph* graph, JobId id) : graph_(graph), id_(id) {}
  const JobGraph* graph_;
  JobId id_;
};

struct JobRecord {
  std::string name;
  JobState state = JobState::kPending;
  std::string error;      ///< exception message when kFailed; cancel cause
  double queue_ms = 0;    ///< kReady -> kRunning latency
  double run_ms = 0;      ///< kRunning -> settled
  std::size_t attempt = 0;  ///< set by callers that resubmit (campaign retry)
};

class JobGraph {
 public:
  using Body = std::function<void(JobContext&)>;

  /// Add a job; `deps` must all be ids returned by earlier add() calls.
  /// Must not be called while run() is in flight.
  JobId add(std::string name, Body body, const std::vector<JobId>& deps = {});

  /// Cancel a job (and, transitively, its dependents). Jobs already
  /// running are flagged for cooperative cancellation but not interrupted;
  /// jobs already settled are left untouched.
  void cancel(JobId id);

  /// Execute the whole graph on `pool`, blocking until every job settles.
  /// Reentrant-safe for *distinct* graphs sharing one pool.
  void run(ThreadPool& pool);

  std::size_t size() const;
  JobState state(JobId id) const;
  JobRecord record(JobId id) const;

  /// Count of jobs per terminal state, for summaries.
  std::size_t count(JobState state) const;

 private:
  friend class JobContext;

  struct Node {
    JobRecord record;
    Body body;
    std::vector<JobId> dependents;
    std::size_t deps_remaining = 0;
    bool cancel_requested = false;
    double ready_stamp = 0;  ///< Timer seconds when the job became ready
  };

  // All require nodes_mutex_ held.
  void make_ready(JobId id, ThreadPool& pool);
  void settle(JobId id, JobState state, const std::string& error,
              ThreadPool& pool);
  void cancel_locked(JobId id, const std::string& cause, ThreadPool& pool);

  void execute(JobId id, ThreadPool& pool);
  bool is_cancel_requested(JobId id) const;

  mutable std::mutex nodes_mutex_;
  std::condition_variable settled_cv_;
  std::vector<Node> nodes_;
  std::size_t settled_ = 0;
  bool running_ = false;
  ThreadPool* run_pool_ = nullptr;  ///< valid only while run() is in flight
};

}  // namespace stt
