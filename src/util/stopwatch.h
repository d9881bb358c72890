// Wall-clock stopwatch, cooperative deadlines, and cancellation tokens.
//
// Model-checking runs are bounded by wall-clock budgets (the paper uses a
// one-hour timeout for its scalability experiment). Engines poll a Deadline
// between solver calls and return Verdict::kTimeout when it expires. The
// verification service (src/svc/) reuses the same poll sites to stop a
// batch early: a CancelToken attached to a Deadline makes
// expired_or_cancelled() fire as soon as the service cancels the job (its
// client hung up, or the daemon is draining).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>

namespace verdict::util {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  [[nodiscard]] std::chrono::milliseconds elapsed_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start_);
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A shared cancellation flag. Copies of a token observe the same flag, so
/// one racer thread can cancel the others. Cheap to copy; thread-safe.
/// A default-constructed token owns a fresh (uncancelled) flag.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() const noexcept {
    flag_->store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }
  void reset() const noexcept { flag_->store(false, std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// A cooperative deadline. A default-constructed Deadline never expires.
/// A CancelToken may be attached: engines poll expired_or_cancelled() between
/// solver calls, so a cancelled Deadline stops an engine exactly where a
/// timeout would.
class Deadline {
 public:
  Deadline() = default;
  static Deadline after_seconds(double seconds) {
    Deadline d;
    d.expiry_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    return d;
  }
  static Deadline never() { return Deadline(); }

  /// Copy of this deadline that additionally honors `token`.
  [[nodiscard]] Deadline with_cancel(CancelToken token) const {
    Deadline d = *this;
    d.token_ = std::move(token);
    return d;
  }

  /// Copy of this deadline whose expiry is at most `seconds` from now,
  /// preserving any attached cancellation token. Gives a sub-phase a slice
  /// of the overall budget without letting it overrun the whole.
  [[nodiscard]] Deadline clipped_to(double seconds) const {
    Deadline d = after_seconds(std::min(seconds, remaining_seconds()));
    d.token_ = token_;
    return d;
  }

  [[nodiscard]] bool expired() const {
    return expiry_.has_value() && Clock::now() >= *expiry_;
  }
  [[nodiscard]] bool cancelled() const {
    return token_.has_value() && token_->cancelled();
  }
  /// The poll every engine runs between solver calls: true once the time
  /// budget is gone OR the run was cancelled (svc::JobHandle::cancel).
  [[nodiscard]] bool expired_or_cancelled() const { return cancelled() || expired(); }
  [[nodiscard]] bool is_finite() const { return expiry_.has_value(); }
  [[nodiscard]] bool has_cancel_token() const { return token_.has_value(); }

  /// Remaining budget in seconds; returns a large value for infinite deadlines
  /// and 0 once expired or cancelled.
  [[nodiscard]] double remaining_seconds() const {
    if (cancelled()) return 0.0;
    if (!expiry_.has_value()) return 1e18;
    const double rem = std::chrono::duration<double>(*expiry_ - Clock::now()).count();
    return rem > 0 ? rem : 0.0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::optional<Clock::time_point> expiry_;
  std::optional<CancelToken> token_;
};

}  // namespace verdict::util
