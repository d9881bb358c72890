// The verification service: cache-aware request scheduling on a shared
// worker pool, with batched session dispatch.
//
// svc::Service is the in-process core of verdictd (the daemon is a socket
// front-end over it, tools/verdictd.cpp) and is equally usable embedded —
// bench/svc_throughput drives it directly. One Service owns:
//
//   * a ThreadPool (svc/pool.h) — every dispatched batch becomes one pool job,
//     so K clients with N properties each saturate the hardware instead of
//     each spawning private solvers threads,
//   * one verdict store — requests are fingerprinted (svc/fingerprint.h) and
//     served from it when a definitive verdict is known. The store is the
//     in-process LRU (VerdictCache) in front of the optional mmap'd segment
//     (svc/segment.h): a lookup tries the LRU, then the segment; a fresh
//     verdict is written through both,
//   * a bounded admission queue — at most `queue_limit` admitted-but-
//     unfinished requests; beyond that submit() rejects immediately with a
//     kUnknown outcome instead of letting latency grow without bound. A
//     request whose verdict is already in the LRU is answered before it,
//   * per-request deadlines — the request's Deadline is combined with the
//     job's CancelToken, so both timeouts and server-side cancellation
//     (client hung up, drain) stop the engines at their existing poll sites,
//   * a batch coalescer — every admitted request joins a batch. Requests
//     arriving within `batch_window_seconds` that share a group key (system,
//     engine, depth, deadline class, pipeline flags) are verified as ONE
//     core::Session::check_all over a shared solver unrolling, then fanned
//     back out to their individual responses. Each distinct request
//     fingerprint is checked once per batch; members carrying the same one
//     share its outcome. Verdicts are identical to one-at-a-time submission
//     (the session crosscheck suite asserts parity). The batch runs with a
//     SessionCache hook, so each property still consults the store (and
//     the incremental reuse layer) before any engine runs and offers its
//     fresh outcome back.
//
// drain() (also run by the destructor) stops admission, flushes any batch
// still coalescing, and waits for every in-flight request — the
// graceful-SIGTERM path of verdictd. Nothing is left to persist then: the
// segment took every verdict when it was computed.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/checker.h"
#include "core/session.h"
#include "svc/pool.h"
#include "svc/reuse.h"
#include "svc/segment.h"
#include "svc/verdict_cache.h"
#include "util/stopwatch.h"

namespace verdict::svc {

struct ServiceOptions {
  /// Pool workers (0 = default_jobs()).
  std::size_t jobs = 0;
  /// Maximum admitted-but-unfinished requests; submit() rejects beyond it.
  std::size_t queue_limit = 64;
  /// Batch coalescing window in seconds. Requests submitted within this
  /// window that share a group key (same system, engine, depth, deadline
  /// class and pipeline flags) are dispatched as one core::Session::check_all
  /// over a shared unrolling. 0 dispatches every request at once, as a batch
  /// of one.
  double batch_window_seconds = 0.002;
  /// Maximum members per batch; a full batch dispatches immediately instead
  /// of waiting out the window.
  std::size_t batch_max = 16;
  CacheOptions cache;
  /// When non-empty: the mmap'd persistent segment (svc/segment.h). Opened
  /// at construction (its entries warm the LRU) and appended on every
  /// definitive verdict the service computes or carries over, so verdicts
  /// survive a restart and a crash alike.
  std::string segment_file;
};

/// One verification request: a property against a system. The system is
/// borrowed — it must stay alive until the request completes (wait()
/// returned, or `on_complete` fired for callers that never wait).
struct CheckRequest {
  const ts::TransitionSystem* system = nullptr;
  ltl::Formula property;
  core::Engine engine = core::Engine::kAuto;
  int max_depth = 50;
  util::Deadline deadline = util::Deadline::never();
  /// Run the opt/ pipeline before checking (core::SessionOptions::optimize).
  /// Not part of the request fingerprint (the optimizer is semantics-
  /// preserving, so both settings answer the same question), but
  /// optimize=false requests always recompute — bypassing the cache lookup
  /// and overwriting the shared entry — so --no-opt is a genuine escape
  /// hatch around optimizer bugs, cached or not. They batch only with
  /// requests carrying the same flags.
  bool optimize = true;
  /// Run the abs/ symmetry-reduction pass before checking
  /// (core::SessionOptions::abstract). Same cache contract as optimize:
  /// excluded from the request fingerprint, but abstract=false requests
  /// always recompute and refresh the shared entry (--no-abs).
  bool abstract = true;
  /// Invoked exactly once when the response slot is filled: on the worker
  /// thread for batched requests (just before wait() returns), on the
  /// submitting thread for admission rejects and hits. Lets a caller that
  /// must not block — the epoll daemon — collect responses without parking a
  /// thread in wait(). Must not throw and must not call back into the
  /// Service.
  std::function<void()> on_complete;
};

struct CheckResponse {
  core::CheckOutcome outcome;
  /// No engine ran for this request: a store (or incremental reuse)
  /// hit, or a batch twin that shared another member's run.
  bool cache_hit = false;
  /// Request bounced off the full admission queue; outcome is kUnknown.
  bool rejected = false;
  /// Admission-to-worker-pickup latency (0 for hits served at admission).
  double queue_seconds = 0.0;
};

class Service;
struct Batch;
struct BatchMember;

/// Ticket for one submitted request. cancel() stops the engines
/// cooperatively (the shared session run is cancelled only once every member
/// of its batch cancelled); wait() blocks for the response (immediately
/// available for rejected requests and admission hits).
class PendingCheck {
 public:
  void cancel();
  [[nodiscard]] bool done() const;
  [[nodiscard]] CheckResponse wait();

 private:
  friend class Service;
  std::shared_ptr<CheckResponse> slot_;
  std::shared_ptr<BatchMember> member_;  // null when answered at admission
};

class Service {
 public:
  explicit Service(const ServiceOptions& options = {});
  ~Service();  // drains

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admission-controlled asynchronous check.
  [[nodiscard]] PendingCheck submit(const CheckRequest& request);

  /// Blocking convenience: submit + wait.
  [[nodiscard]] CheckResponse check(const CheckRequest& request);

  /// Stops admitting, flushes coalescing batches, waits for every in-flight
  /// request. Idempotent.
  void drain();

  [[nodiscard]] VerdictCache& cache() { return *cache_; }
  /// Persistent segment; null unless ServiceOptions::segment_file set.
  [[nodiscard]] SegmentStore* segment() { return segment_.get(); }

  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] std::uint64_t requests() const;
  [[nodiscard]] std::uint64_t rejected() const;
  /// Batches dispatched (each one core::Session::check_all over >=1 members)
  /// and total members across them; `svc.batches_formed` / `svc.batch_size`
  /// publish the same numbers as counters.
  [[nodiscard]] std::uint64_t batches_formed() const;
  [[nodiscard]] std::uint64_t batched_requests() const;

  /// Installs the incremental re-verification hook (svc/reuse.h): cache
  /// misses first try a cross-version reuse, and fresh outcomes are enriched
  /// through it before storage. The hook is borrowed and must outlive every
  /// submitted request; install it before serving (not thread-safe against
  /// in-flight submits). nullptr uninstalls.
  void set_reuse(ReuseHook* reuse) { reuse_ = reuse; }

 private:
  struct Inflight;
  struct Batcher;

  [[nodiscard]] PendingCheck submit_batched(const CheckRequest& request,
                                            const Fingerprint& request_key,
                                            std::shared_ptr<CheckResponse> slot);
  void batcher_loop();
  void dispatch_batch(std::shared_ptr<Batch> batch);

  ServiceOptions options_;
  std::unique_ptr<VerdictCache> cache_;
  std::unique_ptr<SegmentStore> segment_;   // null without segment_file
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Inflight> inflight_;
  std::unique_ptr<Batcher> batcher_;
  ReuseHook* reuse_ = nullptr;
};

/// core::PropertyCacheHook adapter over the verdict store: the hook every
/// service batch runs with, and usable by any embedded core::Session
/// (bench/incremental_reverify) to share the same memoization layer.
class SessionCache final : public core::PropertyCacheHook {
 public:
  /// `reuse` (optional, borrowed) adds cross-version reuse on exact-match
  /// misses: a verdict carried over from a previous model version is served
  /// as a hit and written through the store under the new request
  /// fingerprint; its revalidation runs under the session's deadline.
  /// `segment` (optional, borrowed) puts the persistent segment behind the
  /// LRU: misses fall through to it, and every stored verdict is appended.
  explicit SessionCache(VerdictCache& cache, ReuseHook* reuse = nullptr,
                        SegmentStore* segment = nullptr)
      : cache_(cache), reuse_(reuse), segment_(segment) {}

  /// A stored or carried-over verdict whose trace does not rehydrate against
  /// `system` counts `svc.rehydrate_failed` and is a miss.
  std::optional<core::CheckOutcome> lookup(const ts::TransitionSystem& system,
                                           const ltl::Formula& property,
                                           core::Engine engine, int max_depth,
                                           const util::Deadline& deadline) override;
  void store(const ts::TransitionSystem& system, const ltl::Formula& property,
             core::Engine engine, int max_depth,
             const core::CheckOutcome& outcome) override;

 private:
  VerdictCache& cache_;
  ReuseHook* reuse_ = nullptr;
  SegmentStore* segment_ = nullptr;
};

}  // namespace verdict::svc
