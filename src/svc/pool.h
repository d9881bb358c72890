// Fixed-size thread pool with a FIFO job queue: the service's workers.
//
// Every dispatched service batch becomes one pool job; workers drain the
// queue until the pool is destroyed. Cancellation is NOT the pool's concern:
// each job gets a util::CancelToken, folds it into its Deadline, and stops
// itself at the engines' existing deadline-poll sites, so a "cancelled" job
// simply returns quickly rather than being torn down.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/stopwatch.h"

namespace verdict::svc {

/// Worker count to use when the caller passes jobs = 0: every hardware
/// thread, with a floor of 2 so a busy batch never starves the next one.
[[nodiscard]] std::size_t default_jobs();

/// Handle to one submitted job (ThreadPool::submit_cancellable): lets a
/// caller that is NOT the worker — a server connection thread whose client
/// hung up, a drain path, a deadline reaper — cancel the job cooperatively
/// and wait for it to finish. cancel() trips the handle's CancelToken, which
/// the job is expected to fold into its Deadline (the engines' existing poll
/// sites then stop it); a job cancelled before a worker picks it up still
/// runs, observes the tripped token immediately, and returns fast.
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  void cancel() const;
  [[nodiscard]] bool done() const;
  /// Blocks until the job function returned.
  void wait() const;
  [[nodiscard]] const util::CancelToken& token() const;

 private:
  friend class ThreadPool;
  struct State;
  std::shared_ptr<State> state_;
};

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = default_jobs()).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains nothing: pending jobs that never started are dropped, running
  /// jobs are joined. Callers that need results must wait on them (their
  /// handles / their own latch) before destroying the pool.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job that receives a per-job CancelToken and returns a handle
  /// for cancelling/awaiting it from outside the pool. The job's exceptions
  /// are swallowed — a handle only answers "finished?", results travel
  /// through the closure's own channel. Throws std::runtime_error after
  /// shutdown began.
  JobHandle submit_cancellable(std::function<void(const util::CancelToken&)> job);

  [[nodiscard]] std::size_t num_threads() const { return threads_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace verdict::svc
