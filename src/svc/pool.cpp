#include "svc/pool.h"

#include <stdexcept>

namespace verdict::svc {

struct JobHandle::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  util::CancelToken token;
};

void JobHandle::cancel() const {
  if (state_) state_->token.request_cancel();
}

bool JobHandle::done() const {
  if (!state_) return true;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

void JobHandle::wait() const {
  if (!state_) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
}

const util::CancelToken& JobHandle::token() const {
  static const util::CancelToken kNullToken;
  return state_ ? state_->token : kNullToken;
}

std::size_t default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 2 ? static_cast<std::size_t>(hw) : 2;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = default_jobs();
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    queue_.clear();
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

JobHandle ThreadPool::submit_cancellable(
    std::function<void(const util::CancelToken&)> job) {
  JobHandle handle;
  handle.state_ = std::make_shared<JobHandle::State>();
  std::shared_ptr<JobHandle::State> state = handle.state_;
  auto run = [state, job = std::move(job)] {
    try {
      job(state->token);
    } catch (...) {
      // Results (and errors) travel through the closure's own channel; the
      // handle only reports completion.
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->done = true;
    }
    state->cv.notify_all();
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) throw std::runtime_error("ThreadPool::submit_cancellable after shutdown");
    queue_.push_back(std::move(run));
  }
  cv_.notify_one();
  return handle;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

}  // namespace verdict::svc
