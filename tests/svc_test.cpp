// The verification-as-a-service subsystem end to end: canonical
// fingerprints, the verdict store (LRU + cacheability rule + the persistent
// segment), the Service scheduler and its batches, the Session cache hook,
// and a real in-process Daemon serving concurrent socket clients. The daemon
// test is the suite's TSan workout — it exercises connection threads, the
// worker pool, and the sharded LRU simultaneously.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/checker.h"
#include "core/session.h"
#include "expr/expr.h"
#include "ltl/ltl.h"
#include "ltl/parser.h"
#include "mdl/vml.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "scenarios/rollout_partition.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/fingerprint.h"
#include "svc/frame.h"
#include "svc/pool.h"
#include "svc/protocol.h"
#include "svc/segment.h"
#include "svc/service.h"
#include "svc/stored_trace.h"
#include "svc/verdict_cache.h"
#include "util/stopwatch.h"

namespace verdict {
namespace {

using svc::Fingerprint;

// --- Fingerprints ------------------------------------------------------------

ts::TransitionSystem counter_system(const std::string& prefix,
                                    std::int64_t init_value = 0,
                                    std::int64_t limit = 3,
                                    bool swap_order = false) {
  ts::TransitionSystem sys;
  const expr::Expr x = expr::int_var(prefix + ".x", 0, 7);
  const expr::Expr y = expr::int_var(prefix + ".y", 0, 7);
  sys.add_var(x);
  sys.add_var(y);
  const expr::Expr step =
      (x < limit) && (expr::next(x) == x + 1) && (expr::next(y) == y);
  const expr::Expr stay = (expr::next(x) == x) && (expr::next(y) == y);
  if (swap_order) {
    sys.add_init(y == 0);
    sys.add_init(x == init_value);
  } else {
    sys.add_init(x == init_value);
    sys.add_init(y == 0);
  }
  sys.add_trans(step || stay);
  sys.add_invar(x >= 0);
  return sys;
}

TEST(Fingerprint, SameSystemSameKey) {
  const ts::TransitionSystem a = counter_system("fp1");
  const ts::TransitionSystem b = counter_system("fp1");
  EXPECT_EQ(svc::fingerprint(a), svc::fingerprint(b));
}

TEST(Fingerprint, ConstraintOrderDoesNotMatter) {
  const ts::TransitionSystem a = counter_system("fp2");
  const ts::TransitionSystem b = counter_system("fp2", 0, 3, /*swap_order=*/true);
  EXPECT_EQ(svc::fingerprint(a), svc::fingerprint(b));
}

TEST(Fingerprint, CommutativeOperandOrderDoesNotMatter) {
  const expr::Expr x = expr::int_var("fp3.x", 0, 7);
  const expr::Expr y = expr::int_var("fp3.y", 0, 7);
  EXPECT_EQ(svc::fingerprint((x == 1) && (y == 2)),
            svc::fingerprint((y == 2) && (x == 1)));
  EXPECT_EQ(svc::fingerprint(x + y), svc::fingerprint(y + x));
  // Order-sensitive operators must keep position.
  EXPECT_NE(svc::fingerprint(x < y), svc::fingerprint(y < x));
  EXPECT_NE(svc::fingerprint(x / y), svc::fingerprint(y / x));
}

TEST(Fingerprint, EveryModelMutationChangesTheKey) {
  const Fingerprint base = svc::fingerprint(counter_system("fp4"));
  // Different init value.
  EXPECT_NE(base, svc::fingerprint(counter_system("fp4", 1)));
  // Different transition guard.
  EXPECT_NE(base, svc::fingerprint(counter_system("fp4", 0, 5)));
  // Extra invariant.
  ts::TransitionSystem stronger = counter_system("fp4");
  stronger.add_invar(expr::var_by_name("fp4.y") <= 6);
  EXPECT_NE(base, svc::fingerprint(stronger));
  // A parameter (same constraints otherwise).
  ts::TransitionSystem with_param = counter_system("fp4");
  with_param.add_param(expr::int_var("fp4.p", 0, 3));
  EXPECT_NE(base, svc::fingerprint(with_param));
  // Different variable names = different model.
  EXPECT_NE(base, svc::fingerprint(counter_system("fp4b")));
}

TEST(Fingerprint, RequestKeyCoversPropertyEngineAndDepth) {
  const ts::TransitionSystem sys = counter_system("fp5");
  const ltl::Formula safe = ltl::G(ltl::atom(expr::var_by_name("fp5.x") <= 7));
  const ltl::Formula tight = ltl::G(ltl::atom(expr::var_by_name("fp5.x") <= 2));
  const Fingerprint base =
      svc::fingerprint_request(sys, safe, core::Engine::kBmc, 20);
  EXPECT_EQ(base, svc::fingerprint_request(sys, safe, core::Engine::kBmc, 20));
  EXPECT_NE(base, svc::fingerprint_request(sys, tight, core::Engine::kBmc, 20));
  EXPECT_NE(base, svc::fingerprint_request(sys, safe, core::Engine::kPdr, 20));
  EXPECT_NE(base, svc::fingerprint_request(sys, safe, core::Engine::kBmc, 21));
}

TEST(Fingerprint, LtlConjunctionIsUnorderedUntilIsNot) {
  const expr::Expr x = expr::int_var("fp6.x", 0, 7);
  const ltl::Formula a = ltl::atom(x == 1);
  const ltl::Formula b = ltl::atom(x == 2);
  EXPECT_EQ(svc::fingerprint(ltl::conj(a, b)), svc::fingerprint(ltl::conj(b, a)));
  EXPECT_NE(svc::fingerprint(ltl::U(a, b)), svc::fingerprint(ltl::U(b, a)));
}

TEST(Fingerprint, HexRoundTrip) {
  const Fingerprint f = svc::fingerprint(counter_system("fp7"));
  const std::string hex = f.str();
  EXPECT_EQ(hex.size(), 32u);
  const auto parsed = Fingerprint::parse(hex);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f);
  EXPECT_FALSE(Fingerprint::parse("not-a-key").has_value());
  EXPECT_FALSE(Fingerprint::parse(hex.substr(1)).has_value());
}

// --- Verdict cache -----------------------------------------------------------

svc::CachedVerdict holds_verdict(double seconds = 0.1) {
  svc::CachedVerdict v;
  v.verdict = core::Verdict::kHolds;
  v.engine = "pdr";
  v.seconds = seconds;
  return v;
}

Fingerprint key_of(std::uint64_t n) {
  return Fingerprint{0x1234u + n, n};
}

TEST(VerdictCache, OnlyDefinitiveVerdictsAreStored) {
  svc::VerdictCache cache;
  svc::CachedVerdict v = holds_verdict();
  for (const core::Verdict bad : {core::Verdict::kBoundReached,
                                  core::Verdict::kTimeout, core::Verdict::kUnknown}) {
    v.verdict = bad;
    cache.insert(key_of(1), v);
    EXPECT_FALSE(cache.lookup(key_of(1)).has_value())
        << "verdict " << core::verdict_name(bad) << " must not be cached";
  }
  // kViolated without a stored trace is NOT definitive-with-evidence.
  v.verdict = core::Verdict::kViolated;
  v.counterexample_json.clear();
  cache.insert(key_of(1), v);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());

  v.verdict = core::Verdict::kHolds;
  cache.insert(key_of(1), v);
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
}

TEST(VerdictCache, LruEvictsOldestWithinCapacity) {
  svc::VerdictCache cache({.capacity = 4, .shards = 1});
  for (std::uint64_t i = 0; i < 8; ++i) cache.insert(key_of(i), holds_verdict());
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GE(cache.evictions(), 4u);
  EXPECT_TRUE(cache.lookup(key_of(7)).has_value());   // newest survives
  EXPECT_FALSE(cache.lookup(key_of(0)).has_value());  // oldest evicted
}

TEST(VerdictCache, LookupRefreshesLruPosition) {
  svc::VerdictCache cache({.capacity = 2, .shards = 1});
  cache.insert(key_of(0), holds_verdict());
  cache.insert(key_of(1), holds_verdict());
  ASSERT_TRUE(cache.lookup(key_of(0)).has_value());  // 0 is now most recent
  cache.insert(key_of(2), holds_verdict());          // evicts 1, not 0
  EXPECT_TRUE(cache.lookup(key_of(0)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
}

// A segment record reaches these decoders. An integer field outside its type (negative, past the cast's
// range, or not whole) rejects the entry rather than reach an undefined
// conversion. The JSON reader itself rejects non-finite numbers.
TEST(VerdictCache, DecodersRejectOutOfRangeIntegers) {
  const std::string head =
      R"({"schema":"verdict-cache-v2","key":"00000000000000000000000000000001",)"
      R"("verdict":"holds","engine":"pdr")";
  for (const std::string& fields : {
           std::string(R"(,"solver_checks":-5)"), std::string(R"(,"solver_checks":1e300)"),
           std::string(R"(,"solver_checks":2e19)"), std::string(R"(,"solver_checks":1.5)"),
           std::string(R"(,"depth":-5)"), std::string(R"(,"depth":1e300)"),
           std::string(R"(,"depth":3e9)"), std::string(R"(,"depth":-1e300)"),
       }) {
    EXPECT_FALSE(svc::cached_from_json(head + fields + "}").has_value()) << fields;
  }
  const auto entry = svc::cached_from_json(head + R"(,"solver_checks":12,"depth":-1})");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->second.solver_checks, 12u);
  EXPECT_EQ(entry->second.depth_reached, -1);

  // Stored traces: the lasso start, the length and every int state value.
  (void)counter_system("range_trace");
  const auto trace = [](const std::string& lasso, const std::string& length,
                        const std::string& value) {
    return svc::trace_from_json(R"({"lasso_start":)" + lasso + R"(,"length":)" + length +
                                R"(,"params":{},"states":[{"range_trace.x":)" + value + "}]}");
  };
  ASSERT_TRUE(trace("0", "1", "3").has_value());
  ASSERT_TRUE(trace("null", "1", "3").has_value());
  for (const char* bad : {"-5", "1e300", "-1e300", "2e19", "0.5"})
    EXPECT_FALSE(trace(bad, "1", "3").has_value()) << "lasso_start " << bad;
  for (const char* bad : {"-5", "1e300", "-1e300", "2e19", "1.5"})
    EXPECT_FALSE(trace("0", bad, "3").has_value()) << "length " << bad;
  for (const char* bad : {"1e300", "-1e300", "1e19", "-1e19", "0.5"})
    EXPECT_FALSE(trace("0", "1", bad).has_value()) << "state value " << bad;
}

// --- Worker pool -------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob) {
  std::atomic<int> count{0};
  svc::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<svc::JobHandle> handles;
  for (int i = 0; i < 64; ++i)
    handles.push_back(pool.submit_cancellable([&](const util::CancelToken&) { ++count; }));
  for (const svc::JobHandle& handle : handles) {
    handle.wait();
    EXPECT_TRUE(handle.done());
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, DefaultJobsIsAtLeastTwo) { EXPECT_GE(svc::default_jobs(), 2u); }

// N jobs poll their own token through the Deadline interface, exactly like
// the engines' poll sites; once the one job left alone has finished, every
// other handle is cancelled. Everyone must return promptly, well inside the
// 1-hour time budget that would otherwise keep the cancelled jobs spinning,
// including the jobs still queued when their cancel arrives.
TEST(CancellationStress, AllButOneCancelledNoHang) {
  constexpr int kJobs = 32;
  constexpr int kSurvivor = 3;  // in the first batch of 8, ahead of the spinners' queue
  std::atomic<int> cancelled_count{0};
  std::mutex mu;
  std::condition_variable cv;
  int finished = 0;
  const auto start = std::chrono::steady_clock::now();
  {
    svc::ThreadPool pool(8);
    std::vector<svc::JobHandle> handles;
    for (int i = 0; i < kJobs; ++i) {
      handles.push_back(pool.submit_cancellable([&, i](const util::CancelToken& token) {
        const util::Deadline deadline = util::Deadline::after_seconds(3600).with_cancel(token);
        if (i == kSurvivor) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        } else {
          while (!deadline.expired_or_cancelled()) std::this_thread::yield();
          ++cancelled_count;
        }
        std::lock_guard<std::mutex> lock(mu);
        ++finished;
        cv.notify_all();
      }));
    }
    handles[kSurvivor].wait();
    for (int i = 0; i < kJobs; ++i)
      if (i != kSurvivor) handles[i].cancel();
    std::unique_lock<std::mutex> lock(mu);
    const bool all =
        cv.wait_for(lock, std::chrono::seconds(60), [&] { return finished == kJobs; });
    ASSERT_TRUE(all) << "cancellation did not propagate; cancelled jobs are hung";
  }
  EXPECT_EQ(cancelled_count.load(), kJobs - 1);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 60.0);
}

// --- Service -----------------------------------------------------------------

TEST(Service, WarmRequestsHitTheCacheAndAgreeWithColdOnes) {
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  svc::Service service({.jobs = 2});
  svc::CheckRequest request;
  request.system = &scenario.system;
  request.property = scenario.property;
  request.engine = core::Engine::kBmc;
  request.max_depth = 6;

  const svc::CheckResponse cold = service.check(request);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.outcome.verdict, core::Verdict::kViolated);

  const svc::CheckResponse warm = service.check(request);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.outcome.verdict, core::Verdict::kViolated);
  ASSERT_TRUE(warm.outcome.counterexample.has_value());
  std::string why;
  EXPECT_TRUE(core::confirm_counterexample(scenario.system, scenario.property,
                                           warm.outcome, &why))
      << why;
  EXPECT_EQ(service.cache().hits(), 1u);
}

TEST(Service, NoOptRequestsBypassTheCacheAndRefreshIt) {
  // optimize=false is the escape hatch around optimizer bugs: even with a
  // warm cache entry for the identical request, it must recompute rather
  // than serve a verdict that may have been produced through the pipeline.
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  svc::Service service({.jobs = 2});
  svc::CheckRequest request;
  request.system = &scenario.system;
  request.property = scenario.property;
  request.engine = core::Engine::kBmc;
  request.max_depth = 6;

  const svc::CheckResponse warm = service.check(request);
  EXPECT_FALSE(warm.cache_hit);
  EXPECT_EQ(warm.outcome.verdict, core::Verdict::kViolated);

  request.optimize = false;
  const std::uint64_t bypassed = obs::counter("svc.cache_bypassed").load();
  const svc::CheckResponse noopt = service.check(request);
  EXPECT_FALSE(noopt.cache_hit) << "--no-opt must never serve a cached verdict";
  EXPECT_EQ(noopt.outcome.verdict, core::Verdict::kViolated);
  EXPECT_EQ(obs::counter("svc.cache_bypassed").load(), bypassed + 1);

  // The unoptimized recompute refreshes the shared entry, which optimized
  // requests keep hitting (the flag is not part of the fingerprint).
  request.optimize = true;
  const svc::CheckResponse hit = service.check(request);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.outcome.verdict, core::Verdict::kViolated);
}

TEST(Service, ZeroQueueLimitRejectsEveryRequest) {
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  svc::Service service({.jobs = 1, .queue_limit = 0});
  svc::CheckRequest request;
  request.system = &scenario.system;
  request.property = scenario.property;
  const svc::CheckResponse response = service.check(request);
  EXPECT_TRUE(response.rejected);
  EXPECT_EQ(response.outcome.verdict, core::Verdict::kUnknown);
  EXPECT_EQ(service.rejected(), 1u);
}

TEST(Service, WarmHitIsAnsweredWhileTheQueueIsFull) {
  // One admission slot, held by a request whose completion callback blocks
  // (the callback runs before the slot is released). A repeat of a cached
  // request is an LRU hit and is answered at admission; an uncached request
  // still bounces.
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  svc::Service service({.jobs = 1, .queue_limit = 1});
  svc::CheckRequest warm;
  warm.system = &scenario.system;
  warm.property = scenario.property;
  warm.engine = core::Engine::kBmc;
  warm.max_depth = 6;
  const core::Verdict cold = service.check(warm).outcome.verdict;
  ASSERT_EQ(cold, core::Verdict::kViolated);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  svc::CheckRequest holder = warm;
  holder.property = scenario.properties.at(1).second;
  holder.on_complete = [released] { released.wait(); };
  svc::PendingCheck held = service.submit(holder);
  ASSERT_EQ(service.queue_depth(), 1u);

  const svc::CheckResponse hit = service.submit(warm).wait();
  EXPECT_FALSE(hit.rejected) << "a warm hit must not count against the full queue";
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.outcome.verdict, cold);
  EXPECT_EQ(hit.queue_seconds, 0.0);

  svc::CheckRequest uncached = warm;
  uncached.max_depth = 7;
  EXPECT_TRUE(service.submit(uncached).wait().rejected);
  EXPECT_EQ(service.rejected(), 1u);

  release.set_value();
  EXPECT_FALSE(held.wait().rejected);
}

TEST(Service, ConcurrentIdenticalSubmissionsShareOneSolverRun) {
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  // A window that holds all six submissions: they form one batch, whose
  // session checks their one fingerprint once.
  svc::Service service({.jobs = 4, .batch_window_seconds = 0.2});
  svc::CheckRequest request;
  request.system = &scenario.system;
  request.property = scenario.properties.at(1).second;  // a holding invariant
  request.engine = core::Engine::kKInduction;
  request.max_depth = 10;

  std::vector<svc::PendingCheck> pending;
  for (int i = 0; i < 6; ++i) pending.push_back(service.submit(request));
  std::vector<svc::CheckResponse> responses;
  for (svc::PendingCheck& p : pending) responses.push_back(p.wait());

  std::size_t computed = 0;
  for (const svc::CheckResponse& r : responses) {
    EXPECT_EQ(r.outcome.verdict, core::Verdict::kHolds);
    if (!r.cache_hit) ++computed;
  }
  EXPECT_EQ(computed, 1u);
  EXPECT_EQ(service.batches_formed(), 1u);
  EXPECT_EQ(service.cache().size(), 1u);
}

// A ReuseHook that records the deadline its revalidation is handed. With
// `hold` set, try_reuse waits (up to 10 s) for that deadline to be cancelled,
// the way a long proof revalidation polls it between SMT checks.
class DeadlineRecordingReuse final : public svc::ReuseHook {
 public:
  std::atomic<bool> hold{false};
  std::atomic<int> calls{0};
  std::atomic<bool> saw_finite{false};
  std::atomic<bool> saw_cancel{false};

  std::optional<svc::CachedVerdict> try_reuse(const ts::TransitionSystem&, const ltl::Formula&,
                                              core::Engine, int,
                                              const util::Deadline& deadline) override {
    saw_finite = deadline.is_finite();
    calls.fetch_add(1);
    if (hold) {
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!deadline.cancelled() && std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      saw_cancel = deadline.cancelled();
    }
    return std::nullopt;
  }

  svc::CachedVerdict record(const ts::TransitionSystem&, const ltl::Formula&, core::Engine, int,
                            const core::CheckOutcome& outcome) override {
    return svc::cached_from_outcome(outcome);
  }
};

TEST(Service, ReuseRevalidationRunsUnderTheRequestDeadline) {
  const ts::TransitionSystem sys = counter_system("reuse_deadline");
  const expr::Expr x = expr::var_by_name("reuse_deadline.x");
  DeadlineRecordingReuse reuse;
  svc::Service service({.jobs = 1});
  service.set_reuse(&reuse);

  svc::CheckRequest request;
  request.system = &sys;
  request.property = ltl::G(ltl::atom(x <= 7));
  request.engine = core::Engine::kKInduction;
  request.max_depth = 10;
  request.deadline = util::Deadline::after_seconds(60);
  EXPECT_EQ(service.check(request).outcome.verdict, core::Verdict::kHolds);
  ASSERT_EQ(reuse.calls.load(), 1);
  EXPECT_TRUE(reuse.saw_finite) << "a finite request deadline must reach the revalidation";

  // Cancelling the request reaches a revalidation already under way.
  reuse.hold = true;
  request.property = ltl::G(ltl::atom(x <= 6));
  svc::PendingCheck pending = service.submit(request);
  while (reuse.calls.load() < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  pending.cancel();
  const svc::CheckResponse cancelled = pending.wait();
  EXPECT_TRUE(reuse.saw_cancel) << "the cancel did not reach the revalidation's deadline";
  EXPECT_FALSE(cancelled.rejected);
}

// --- Session cache hook ------------------------------------------------------

TEST(SessionCache, SecondSessionRunBuildsNoSolvers) {
  // k-induction decides every property definitively (holds / violated), so
  // the whole result set is cacheable and the warm run never reaches an
  // engine: zero solvers built.
  const ts::TransitionSystem sys = counter_system("schook");
  const expr::Expr x = expr::var_by_name("schook.x");
  svc::VerdictCache cache;
  svc::SessionCache hook(cache);

  core::Session session(sys);
  session.add_property("in_range", ltl::G(ltl::atom(x <= 7)));
  session.add_property("below_two", ltl::G(ltl::atom(x < 2)));  // violated

  core::SessionOptions options;
  options.engine = core::Engine::kKInduction;
  options.max_depth = 10;
  options.cache = &hook;

  const core::SessionResult cold = session.check_all(options);
  ASSERT_EQ(cold.properties.size(), 2u);
  ASSERT_EQ(cold.properties[0].outcome.verdict, core::Verdict::kHolds);
  ASSERT_EQ(cold.properties[1].outcome.verdict, core::Verdict::kViolated);
  ASSERT_GT(cold.total.solvers_created, 0u);

  const core::SessionResult warm = session.check_all(options);
  ASSERT_EQ(warm.properties.size(), 2u);
  for (std::size_t i = 0; i < cold.properties.size(); ++i)
    EXPECT_EQ(cold.properties[i].outcome.verdict, warm.properties[i].outcome.verdict)
        << cold.properties[i].name;
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(warm.total.solvers_created, 0u);
  ASSERT_TRUE(warm.properties[1].outcome.counterexample.has_value());
  EXPECT_TRUE(sys.trace_conforms(*warm.properties[1].outcome.counterexample));
}

// --- Daemon + concurrent socket clients --------------------------------------

constexpr const char* kDaemonModel = R"vml(
module svcd {
  var x : 0..3;
  init x = 0;
  rule up when x < 3 { x' = x + 1; }
  stutter always;
}

system {
  schedule interleaving;
  ltl bound_ok  "G (svcd.x <= 3)";
  ltl never_two "G (svcd.x < 2)";
}
)vml";

// Serves `daemon` on its own thread; stop() (or leaving the scope) calls
// request_stop() and joins it. A failing ASSERT_* then returns from the test
// with the server joined, instead of destroying a joinable std::thread,
// which would terminate the whole test binary.
class ServerThread {
 public:
  explicit ServerThread(svc::Daemon& daemon)
      : daemon_(daemon), thread_([this] { daemon_.serve(); }) {}
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;
  ~ServerThread() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    daemon_.request_stop();
    thread_.join();
  }

 private:
  svc::Daemon& daemon_;
  std::thread thread_;
};

TEST(Daemon, ServesConcurrentClientsWithInProcessVerdicts) {
  // Expected verdicts computed in-process, same engine/depth.
  const mdl::VmlModel model = mdl::parse_vml(kDaemonModel);
  const core::CheckOutcome expect_bound =
      core::check(model.system, model.ltl_properties.at("bound_ok"),
                  {.engine = core::Engine::kKInduction, .max_depth = 10});
  const core::CheckOutcome expect_two =
      core::check(model.system, model.ltl_properties.at("never_two"),
                  {.engine = core::Engine::kKInduction, .max_depth = 10});
  ASSERT_EQ(expect_bound.verdict, core::Verdict::kHolds);
  ASSERT_EQ(expect_two.verdict, core::Verdict::kViolated);

  char sock_dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(sock_dir), nullptr);
  const std::string sock = std::string(sock_dir) + "/d.sock";

  svc::DaemonOptions options;
  options.socket_path = sock;
  options.service.jobs = 4;
  svc::Daemon daemon(options);
  ServerThread server(daemon);

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  std::atomic<int> cache_hits{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      try {
        svc::Client client(sock);
        // Two rounds per client: the second round is warm for *someone*.
        for (int round = 0; round < 2; ++round) {
          const std::vector<svc::ClientVerdict> verdicts = client.check(
              kDaemonModel, {"bound_ok", "never_two"},
              core::Engine::kKInduction, 10, /*timeout_seconds=*/0.0);
          if (verdicts.size() != 2) throw std::runtime_error("wrong count");
          for (const svc::ClientVerdict& v : verdicts) {
            const core::CheckOutcome& expected =
                v.prop == "bound_ok" ? expect_bound : expect_two;
            if (v.outcome.verdict != expected.verdict)
              throw std::runtime_error("verdict mismatch for " + v.prop);
            if (v.outcome.violated()) {
              if (!v.outcome.counterexample.has_value())
                throw std::runtime_error("violated without trace: " + v.prop);
              std::string why;
              if (!core::confirm_counterexample(model.system,
                                                model.ltl_properties.at(v.prop),
                                                v.outcome, &why))
                throw std::runtime_error("unconfirmed trace: " + why);
            }
            if (v.cache_hit) cache_hits.fetch_add(1);
          }
        }
      } catch (const std::exception& error) {
        ADD_FAILURE() << "client: " << error.what();
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  server.stop();

  EXPECT_EQ(failures.load(), 0);
  // 8 clients x 2 rounds x 2 props = 32 requests for 2 distinct keys: almost
  // everything is a hit or a shared flight. Conservatively, every client's
  // second round must hit.
  EXPECT_GE(cache_hits.load(), kClients);
  EXPECT_EQ(daemon.connections_served(), static_cast<std::uint64_t>(kClients));
  EXPECT_GE(daemon.service().requests(), 32u);

  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

TEST(Daemon, RejectsBadRequestsWithoutDying) {
  char sock_dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(sock_dir), nullptr);
  const std::string sock = std::string(sock_dir) + "/d.sock";

  svc::DaemonOptions options;
  options.socket_path = sock;
  options.service.jobs = 1;
  svc::Daemon daemon(options);
  ServerThread server(daemon);

  {
    svc::Client client(sock);
    EXPECT_THROW(
        (void)client.check("not a model {", {}, core::Engine::kAuto, 10, 0.0),
        std::runtime_error);
  }
  {
    // The daemon survives the bad request and serves the next client.
    svc::Client client(sock);
    const auto verdicts =
        client.check(kDaemonModel, {"bound_ok"}, core::Engine::kKInduction, 10, 0.0);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].outcome.verdict, core::Verdict::kHolds);
  }
  {
    svc::Client client(sock);
    EXPECT_THROW((void)client.check(kDaemonModel, {"no_such_prop"},
                                    core::Engine::kAuto, 10, 0.0),
                 std::runtime_error);
  }

  server.stop();
  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

// --- Binary framing ----------------------------------------------------------

TEST(Frame, RoundTripsEveryType) {
  for (const svc::FrameType type :
       {svc::FrameType::kRequest, svc::FrameType::kVerdict, svc::FrameType::kDone,
        svc::FrameType::kError}) {
    const std::string payload = R"({"id":"1","k":"v"})";
    const std::string wire = svc::encode_frame(type, payload);
    EXPECT_EQ(wire.size(), svc::kFrameHeaderBytes + payload.size());
    svc::FrameDecoder decoder;
    decoder.feed(wire);
    const svc::FrameDecoder::Result result = decoder.next();
    ASSERT_EQ(result.status, svc::FrameDecoder::Status::kFrame);
    EXPECT_EQ(result.frame.type, type);
    EXPECT_EQ(result.frame.payload, payload);
    EXPECT_EQ(decoder.next().status, svc::FrameDecoder::Status::kNeedMore);
  }
}

TEST(Frame, EmptyPayloadRoundTrips) {
  svc::FrameDecoder decoder;
  decoder.feed(svc::encode_frame(svc::FrameType::kDone, ""));
  const svc::FrameDecoder::Result result = decoder.next();
  ASSERT_EQ(result.status, svc::FrameDecoder::Status::kFrame);
  EXPECT_EQ(result.frame.type, svc::FrameType::kDone);
  EXPECT_TRUE(result.frame.payload.empty());
}

TEST(Frame, PipelinedFramesSplitAcrossArbitraryReads) {
  // Three frames delivered one byte at a time: every frame must come out
  // intact, in order, regardless of how the stream was chunked.
  const std::string wire = svc::encode_frame(svc::FrameType::kRequest, "first") +
                           svc::encode_frame(svc::FrameType::kVerdict, "second") +
                           svc::encode_frame(svc::FrameType::kDone, "");
  svc::FrameDecoder decoder;
  std::vector<std::string> payloads;
  for (const char byte : wire) {
    decoder.feed(&byte, 1);
    for (;;) {
      const svc::FrameDecoder::Result result = decoder.next();
      ASSERT_NE(result.status, svc::FrameDecoder::Status::kError) << result.error;
      if (result.status != svc::FrameDecoder::Status::kFrame) break;
      payloads.push_back(result.frame.payload);
    }
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "first");
  EXPECT_EQ(payloads[1], "second");
  EXPECT_EQ(payloads[2], "");
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, TruncatedHeaderJustWaits) {
  svc::FrameDecoder decoder;
  decoder.feed(svc::encode_frame(svc::FrameType::kRequest, "payload").substr(0, 6));
  EXPECT_EQ(decoder.next().status, svc::FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 6u);
}

TEST(Frame, RejectsBadMagicOnTheFirstByte) {
  // A non-frame peer (say, a client writing JSON lines) is rejected
  // immediately — not buffered until a bogus length arrives.
  svc::FrameDecoder decoder;
  decoder.feed("{", 1);
  const svc::FrameDecoder::Result result = decoder.next();
  ASSERT_EQ(result.status, svc::FrameDecoder::Status::kError);
  EXPECT_NE(result.error.find("magic"), std::string::npos);
}

TEST(Frame, RejectsVersionSkew) {
  std::string wire = svc::encode_frame(svc::FrameType::kRequest, "x");
  wire[2] = 9;  // a future version
  svc::FrameDecoder decoder;
  decoder.feed(wire.data(), 3);  // partial header is enough to notice
  const svc::FrameDecoder::Result result = decoder.next();
  ASSERT_EQ(result.status, svc::FrameDecoder::Status::kError);
  EXPECT_NE(result.error.find("version"), std::string::npos);
}

TEST(Frame, RejectsUnknownFrameType) {
  std::string wire = svc::encode_frame(svc::FrameType::kRequest, "x");
  wire[3] = 0x7f;
  svc::FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_EQ(decoder.next().status, svc::FrameDecoder::Status::kError);
}

TEST(Frame, RejectsDeclaredLengthOverflow) {
  std::string header = svc::encode_frame(svc::FrameType::kRequest, "");
  header[4] = header[5] = header[6] = header[7] = static_cast<char>(0xff);
  svc::FrameDecoder decoder(/*max_payload=*/1024);
  decoder.feed(header);
  const svc::FrameDecoder::Result result = decoder.next();
  ASSERT_EQ(result.status, svc::FrameDecoder::Status::kError);
  EXPECT_NE(result.error.find("limit"), std::string::npos);
}

TEST(Frame, StaysPoisonedAfterAnError) {
  svc::FrameDecoder decoder;
  decoder.feed("XYZ");
  ASSERT_EQ(decoder.next().status, svc::FrameDecoder::Status::kError);
  // A valid frame after the bad bytes does NOT resynchronize the stream.
  decoder.feed(svc::encode_frame(svc::FrameType::kRequest, "valid"));
  EXPECT_EQ(decoder.next().status, svc::FrameDecoder::Status::kError);
}

// --- Adversarial input: frames and request payloads --------------------------

// A frame whose header carries a raw type byte, known to the decoder or not.
std::string frame_with_type(std::uint8_t type, std::string_view payload) {
  std::string wire = svc::encode_frame(svc::FrameType::kRequest, payload);
  wire[3] = static_cast<char>(type);
  return wire;
}

// Seeded, deterministic mutation loop over the daemon's two parsers of
// untrusted bytes: FrameDecoder, then parse_request on every request frame
// that comes out. Each input is a well-formed frame (or two), or a frame of a
// rejected type, mutated by bit flips, truncation, length-field edits,
// oversize declarations and byte splices, fed in random chunks. Every next()
// must end in a frame of a known type, a wait for more bytes, or an error
// (and stay in error once there); parse_request must return a request or a
// reason, never throw.
TEST(FrameFuzz, MutatedFramesEndInAFrameOrAnError) {
  constexpr std::size_t kMaxPayload = 4096;
  constexpr int kInputsPerSeed = 100000;
  // Types 5 and 6 were the retired shard-to-shard cache exchange: a daemon
  // must refuse them like any other type it does not speak.
  const std::vector<std::uint8_t> rejected_types = {0, 5, 6, 0x7f};
  std::vector<std::string> corpus = {
      svc::encode_frame(svc::FrameType::kRequest,
                        R"({"id":"1","model":"module m { var x : 0..3; init x = 0; }",)"
                        R"("props":["safe","live"],"engine":"kinduction","depth":30,)"
                        R"("timeout":5.5,"optimize":false,"abstract":true})"),
      svc::encode_frame(svc::FrameType::kRequest, R"({"id":7,"model":"m","props":[]})"),
      svc::encode_frame(svc::FrameType::kDone, R"({"type":"done","id":"1"})"),
  };
  for (const std::uint8_t type : rejected_types) {
    const std::string wire =
        frame_with_type(type, R"({"schema":"verdict-cache-v2","verdict":"holds"})");
    svc::FrameDecoder decoder(kMaxPayload);
    decoder.feed(wire);
    ASSERT_EQ(decoder.next().status, svc::FrameDecoder::Status::kError) << int{type};
    corpus.push_back(wire);
  }
  for (const std::uint64_t seed : {1u, 2u}) {
    std::mt19937_64 rng(seed);
    const auto below = [&](std::size_t n) {
      return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
    };
    std::size_t frames = 0, errors = 0, requests = 0, rejected_requests = 0, throws = 0;
    for (int input = 0; input < kInputsPerSeed; ++input) {
      std::string bytes = corpus[below(corpus.size())];
      if (below(4) == 0) bytes += corpus[below(corpus.size())];  // pipelined
      switch (below(5)) {
        case 0:  // bit flips
          for (std::size_t n = 1 + below(4); n > 0; --n)
            bytes[below(bytes.size())] ^= static_cast<char>(1u << below(8));
          break;
        case 1:  // truncation
          bytes.resize(below(bytes.size()));
          break;
        case 2:  // length-field edit: off by a little, or any 32-bit value
          if (below(2) == 0) {
            bytes[4] = static_cast<char>(bytes[4] + static_cast<char>(below(5)) - 2);
          } else {
            for (int i = 4; i < 8; ++i) bytes[i] = static_cast<char>(rng());
          }
          break;
        case 3: {  // oversize declaration
          const std::uint32_t len = kMaxPayload + 1 + static_cast<std::uint32_t>(below(1u << 20));
          for (int i = 0; i < 4; ++i) bytes[4 + i] = static_cast<char>((len >> (8 * i)) & 0xff);
          break;
        }
        default: {  // splice random bytes in
          const std::size_t at = below(bytes.size() + 1);
          std::string junk(1 + below(8), '\0');
          for (char& c : junk) c = static_cast<char>(rng());
          bytes.insert(at, junk);
          break;
        }
      }
      svc::FrameDecoder decoder(kMaxPayload);
      bool poisoned = false;
      for (std::size_t off = 0; off < bytes.size();) {
        const std::size_t n = 1 + below(bytes.size() - off);
        decoder.feed(bytes.data() + off, n);
        off += n;
        for (;;) {
          svc::FrameDecoder::Result result = decoder.next();
          if (result.status == svc::FrameDecoder::Status::kNeedMore) {
            ASSERT_FALSE(poisoned) << "decoder left its error state";
            break;
          }
          if (result.status == svc::FrameDecoder::Status::kError) {
            ASSERT_FALSE(result.error.empty());
            ++errors;
            poisoned = true;
            break;
          }
          ASSERT_FALSE(poisoned) << "decoder left its error state";
          ASSERT_LE(result.frame.payload.size(), kMaxPayload);
          for (const std::uint8_t type : rejected_types)
            ASSERT_NE(static_cast<std::uint8_t>(result.frame.type), type);
          ++frames;
          if (result.frame.type != svc::FrameType::kRequest) continue;
          ++requests;
          try {
            svc::WireRequest request;
            if (!svc::parse_request(result.frame.payload, request).empty())
              ++rejected_requests;
          } catch (...) {
            ++throws;
          }
        }
        if (poisoned) break;
      }
    }
    EXPECT_EQ(throws, 0u) << "seed " << seed;
    // The mix reaches every outcome: decoded frames, framing errors, and
    // request payloads both accepted and rejected.
    EXPECT_GT(frames, 0u) << "seed " << seed;
    EXPECT_GT(errors, 0u) << "seed " << seed;
    EXPECT_GT(rejected_requests, 0u) << "seed " << seed;
    EXPECT_LT(rejected_requests, requests) << "seed " << seed;
  }
}

// --- Adversarial input: property texts ---------------------------------------

// Seeded, deterministic mutation loop over the LTL parser, which reads the
// property texts of every request's model. Each input is a well-formed
// property mutated by bit flips, truncation, spliced tokens, or a long run of
// one token (parentheses, unary or binary operators) that drives the parse
// tree past its depth bound. Every parse must end in a formula, a ParseError,
// or the expression builders' type error for ill-typed text; it never
// crashes or throws anything else.
TEST(PropertyFuzz, MutatedPropertiesParseOrRaiseParseError) {
  constexpr int kInputsPerSeed = 100000;
  const expr::Expr x = expr::int_var("pfuzz.x", 0, 7);
  const expr::Expr y = expr::int_var("pfuzz.y", 0, 7);
  const ltl::Resolver resolver = [&](std::string_view name) {
    if (name == "x") return x;
    if (name == "y") return y;
    throw std::invalid_argument("unknown");
  };
  const std::vector<std::string> corpus = {
      "G (x <= 3)",
      "G (x < 2 -> F (y = x + 1))",
      "F G !(x = y) & G F (x != 0)",
      "(x <= y) U (y >= 2 | X (x = 0)) <-> G (ite(x < 3, y, x) * 2 <= max(x, y) - min(y, 1))",
      "G (x = 0 -> X (y > 1 R x < 4))",
  };
  const std::vector<std::string> tokens = {"(", ")", "!", "G ", "X ", "-", " & x",
                                           " | y", " -> ", " U ", " + 1", " * x",
                                           "ite(", ",", "[", "E", "1.5", "<->"};
  for (const std::string& text : corpus) ASSERT_NO_THROW((void)ltl::parse_ltl(text, resolver));
  for (const std::uint64_t seed : {1u, 2u}) {
    std::mt19937_64 rng(seed);
    const auto below = [&](std::size_t n) {
      return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
    };
    std::size_t parsed = 0, rejected = 0, too_deep = 0, ill_typed = 0, other = 0;
    for (int input = 0; input < kInputsPerSeed; ++input) {
      std::string text = corpus[below(corpus.size())];
      // A deep run costs milliseconds (the error unwinds ~512 levels of
      // descent), so one input in 256 gets one.
      const std::size_t kind = below(256);
      if (kind == 0) {  // up to 2,000 copies of one token
        const std::string& token = tokens[below(tokens.size())];
        std::string run;
        for (std::size_t n = below(2000); n > 0; --n) run += token;
        text.insert(below(text.size() + 1), run);
      } else if (kind % 3 == 0) {  // bit flips
        for (std::size_t n = 1 + below(4); n > 0 && !text.empty(); --n)
          text[below(text.size())] ^= static_cast<char>(1u << below(8));
      } else if (kind % 3 == 1) {  // truncation
        text.resize(below(text.size()));
      } else {  // spliced tokens
        for (std::size_t n = 1 + below(4); n > 0; --n)
          text.insert(below(text.size() + 1), tokens[below(tokens.size())]);
      }
      try {
        (void)ltl::parse_ltl(text, resolver);
        ++parsed;
      } catch (const ltl::ParseError& error) {
        ++rejected;
        if (std::string_view(error.what()).find("nests deeper") != std::string_view::npos)
          ++too_deep;
      } catch (const std::invalid_argument&) {
        ++ill_typed;
      } catch (...) {
        ++other;
      }
    }
    EXPECT_EQ(other, 0u) << "seed " << seed;
    EXPECT_GT(parsed, 0u) << "seed " << seed;
    EXPECT_GT(rejected, 0u) << "seed " << seed;
    EXPECT_GT(too_deep, 0u) << "seed " << seed;
    EXPECT_GT(ill_typed, 0u) << "seed " << seed;
  }
}

// --- Adversarial input: the store-tier decoders -----------------------------

// Numbers and values a hostile or corrupted store might carry in place of a
// well-formed field.
const std::vector<std::string> kHostileTokens = {
    "-5", "-1", "0", "1.5", "1e300", "-1e300", "2e19", "9007199254740993", "1e-300",
    "null", "true", "[]", "{}", "\"\"", "\"timeout\"", "\"holds\"", "\"3/7\"", "[[[[1]]]]"};

// One mutation of a store line: bit flips, truncation, a spliced byte run,
// or a value replaced by a hostile token (structurally valid JSON that the
// decoder must still range-check).
template <typename Rng>
std::string mutate_line(std::string line, Rng& rng) {
  const auto below = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  switch (below(4)) {
    case 0:
      for (std::size_t n = 1 + below(4); n > 0 && !line.empty(); --n)
        line[below(line.size())] ^= static_cast<char>(1u << below(8));
      break;
    case 1:
      line.resize(below(line.size()));
      break;
    case 2: {
      std::string junk(1 + below(8), '\0');
      for (char& c : junk) c = static_cast<char>(rng());
      line.insert(below(line.size() + 1), junk);
      break;
    }
    default: {
      // Replace the value after a random ':' up to the next ',' or '}'.
      for (int tries = 0; tries < 8; ++tries) {
        const std::size_t colon = line.find(':', below(line.size()));
        if (colon == std::string::npos) continue;
        const std::size_t end = line.find_first_of(",}", colon + 1);
        if (end == std::string::npos) continue;
        line.replace(colon + 1, end - colon - 1, kHostileTokens[below(kHostileTokens.size())]);
        break;
      }
      break;
    }
  }
  return line;
}

// Well-formed cache lines: a plain holds, an enriched holds (incremental
// fields and an artifact), and a violation with a trace over declared
// variables.
std::vector<std::string> store_line_corpus() {
  const ts::TransitionSystem sys = counter_system("store_fuzz");
  const core::CheckOutcome violated =
      core::check(sys, ltl::G(ltl::atom(expr::var_by_name("store_fuzz.x") < 2)),
                  {.engine = core::Engine::kBmc, .max_depth = 6});
  svc::CachedVerdict enriched = holds_verdict(0.25);
  enriched.message = "proved by 2-induction";
  enriched.solver_checks = 12;
  enriched.depth_reached = 3;
  enriched.prop_key = key_of(7);
  enriched.cone_fp = key_of(8);
  enriched.artifact_json =
      R"({"schema":"verdict-artifact-v1","kind":"kinduction","k":2,"pinned":{},"cubes":[]})";
  return {
      svc::cached_to_json(key_of(1), holds_verdict()),
      svc::cached_to_json(key_of(2), enriched),
      svc::cached_to_json(key_of(3), svc::cached_from_outcome(violated)),
  };
}

// Seeded, deterministic mutation loop over the verdict-cache line decoder
// every store tier shares: each mutated line must end in an entry or a
// nullopt from cached_from_json, and an entry in an outcome or a nullopt
// from outcome_from_cached. Neither may throw; an entry is never
// indefinite.
TEST(StoreFuzz, MutatedCacheLinesEndInAnEntryOrNothing) {
  constexpr int kInputsPerSeed = 100000;
  const std::vector<std::string> corpus = store_line_corpus();
  for (const std::string& line : corpus) ASSERT_TRUE(svc::cached_from_json(line)) << line;
  for (const std::uint64_t seed : {1u, 2u}) {
    std::mt19937_64 rng(seed);
    std::size_t entries = 0, rejected = 0, outcomes = 0, throws = 0;
    for (int input = 0; input < kInputsPerSeed; ++input) {
      std::string line = corpus[rng() % corpus.size()];
      for (std::size_t n = 1 + rng() % 2; n > 0; --n) line = mutate_line(std::move(line), rng);
      try {
        const auto entry = svc::cached_from_json(line);
        if (!entry) {
          ++rejected;
          continue;
        }
        ++entries;
        ASSERT_TRUE(svc::cacheable(entry->second)) << line;
        if (svc::outcome_from_cached(entry->second)) ++outcomes;
      } catch (...) {
        ++throws;
      }
    }
    EXPECT_EQ(throws, 0u) << "seed " << seed;
    EXPECT_GT(entries, 0u) << "seed " << seed;
    EXPECT_GT(rejected, 0u) << "seed " << seed;
    EXPECT_GT(outcomes, 0u) << "seed " << seed;
  }
}

// The segment's on-disk record layout (svc/segment.h), written here
// independently of SegmentStore so the loop can plant payloads that carry a
// valid checksum.
std::uint32_t fnv1a32(const std::string& s) {
  std::uint32_t h = 0x811c9dc5u;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x01000193u;
  }
  return h;
}

std::string segment_bytes(const std::vector<std::pair<Fingerprint, std::string>>& records) {
  const auto put = [](std::string& out, auto value) {
    out.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  std::string out(svc::kSegmentMagic, sizeof(svc::kSegmentMagic));
  put(out, svc::kSegmentVersion);
  put(out, std::uint32_t{0});
  for (const auto& [key, payload] : records) {
    put(out, svc::kRecordMarker);
    put(out, static_cast<std::uint32_t>(payload.size()));
    put(out, key.hi);
    put(out, key.lo);
    put(out, fnv1a32(payload));
    put(out, std::uint32_t{0});
    out += payload;
    out.append((8 - payload.size() % 8) % 8, '\0');
  }
  return out;
}

// Seeded mutation loop over whole segment files: records with mutated
// payloads under valid checksums (so they reach the line decoder), then raw
// byte damage to headers, markers, lengths and checksums. Opening must end in
// a store or the constructor's documented std::runtime_error (foreign magic
// or version); for_each and lookup must then return entries or nothing, and
// never an indefinite one.
TEST(StoreFuzz, MutatedSegmentFilesOpenOrRefuse) {
  constexpr int kInputsPerSeed = 2000;
  const std::vector<std::string> corpus = store_line_corpus();
  char dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/fuzz.seg";
  for (const std::uint64_t seed : {1u, 2u}) {
    std::mt19937_64 rng(seed);
    const auto below = [&](std::size_t n) {
      return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
    };
    std::size_t opened = 0, refused = 0, served = 0, throws = 0;
    for (int input = 0; input < kInputsPerSeed; ++input) {
      std::vector<std::pair<Fingerprint, std::string>> records;
      for (const std::string& line : corpus)
        records.emplace_back(svc::cached_from_json(line)->first,
                             below(2) == 0 ? mutate_line(line, rng) : line);
      std::string bytes = segment_bytes(records);
      switch (below(5)) {
        case 0:  // bit flips anywhere, header included
          for (std::size_t n = 1 + below(4); n > 0; --n)
            bytes[below(bytes.size())] ^= static_cast<char>(1u << below(8));
          break;
        case 1:  // truncation
          bytes.resize(below(bytes.size()));
          break;
        case 2: {  // one record field set to an arbitrary 32-bit value
          const std::size_t at = 16 + 8 * below((bytes.size() - 16) / 8);
          const auto value = static_cast<std::uint32_t>(rng());
          std::memcpy(bytes.data() + at + 4 * below(2), &value, sizeof(value));
          break;
        }
        default:  // payload mutations only
          break;
      }
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }
      try {
        std::unique_ptr<svc::SegmentStore> segment;
        try {
          segment = std::make_unique<svc::SegmentStore>(path);
        } catch (const std::runtime_error&) {
          ++refused;
          continue;
        }
        ++opened;
        segment->for_each([&](const Fingerprint&, const svc::CachedVerdict& v) {
          EXPECT_TRUE(svc::cacheable(v));
          ++served;
        });
        for (const auto& [key, payload] : records) {
          if (const std::optional<svc::CachedVerdict> v = segment->lookup(key)) {
            EXPECT_TRUE(svc::cacheable(*v));
            (void)svc::outcome_from_cached(*v);
          }
        }
      } catch (...) {
        ++throws;
      }
    }
    EXPECT_EQ(throws, 0u) << "seed " << seed;
    EXPECT_GT(opened, 0u) << "seed " << seed;
    EXPECT_GT(refused, 0u) << "seed " << seed;
    EXPECT_GT(served, 0u) << "seed " << seed;
  }
  ::unlink(path.c_str());
  ::rmdir(dir);
}

TEST(Protocol, ParseRequestRejectsOutOfRangeAndHostileFields) {
  const std::string deep = std::string(100000, '[') + std::string(100000, ']');
  for (const std::string& payload : {
           std::string(""), std::string("[]"), std::string("\"model\""),
           std::string(R"({"model":""})"), std::string(R"({"model":"m","engine":"z3"})"),
           std::string(R"({"model":"m","engine":"portfolio"})"),
           std::string(R"({"model":"m","depth":-1})"),
           std::string(R"({"model":"m","depth":3e9})"),
           std::string(R"({"model":"m","depth":1e999})"),
           std::string(R"({"model":"m","timeout":1e12})"),
           std::string(R"({"model":"m","props":[1]})"),
           R"({"model":"m","props":)" + deep + "}",
       }) {
    svc::WireRequest request;
    EXPECT_FALSE(svc::parse_request(payload, request).empty()) << payload.substr(0, 40);
  }
  svc::WireRequest request;
  ASSERT_EQ(svc::parse_request(R"({"id":3,"model":"m","depth":7,"timeout":-1})", request), "");
  EXPECT_EQ(request.id, "3");
  EXPECT_EQ(request.depth, 7);
  EXPECT_EQ(request.timeout, 0.0);
  EXPECT_FALSE(request.props.has_value());
}

// The client's parser of daemon replies: counts outside their integer type
// (negative, or past the cast's range) reject the line rather than reach an
// undefined conversion. The JSON reader itself rejects non-finite numbers.
TEST(Protocol, WireVerdictRejectsOutOfRangeCounts) {
  const auto parse = [](const std::string& fields) {
    return svc::wire_verdict_from_json(obs::parse_json(
        R"({"type":"verdict","prop":"p","verdict":"holds")" + fields + "}"));
  };
  for (const std::string& fields : {
           std::string(R"(,"solver_checks":-1)"), std::string(R"(,"solver_checks":1e300)"),
           std::string(R"(,"solver_checks":2e19)"), std::string(R"(,"depth_reached":-2)"),
           std::string(R"(,"depth_reached":3e9)"), std::string(R"(,"depth_reached":-1e300)"),
       }) {
    EXPECT_FALSE(parse(fields).has_value()) << fields;
  }
  const std::optional<svc::WireVerdict> v = parse(R"(,"solver_checks":12,"depth_reached":-1)");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->solver_checks, 12u);
  EXPECT_EQ(v->depth_reached, -1);
  ASSERT_TRUE(parse(R"(,"depth_reached":7)").has_value());
  EXPECT_EQ(parse(R"(,"depth_reached":7)")->depth_reached, 7);
}

// --- Batched session dispatch ------------------------------------------------

TEST(ServiceBatch, BatchedVerdictsMatchOneAtATimeSubmission) {
  const ts::TransitionSystem sys = counter_system("batch1");
  const expr::Expr x = expr::var_by_name("batch1.x");
  const expr::Expr y = expr::var_by_name("batch1.y");
  const std::vector<ltl::Formula> props = {
      ltl::G(ltl::atom(x <= 7)),  // holds
      ltl::G(ltl::atom(x < 2)),   // violated
      ltl::G(ltl::atom(y == 0)),  // holds (y never moves)
  };

  // Reference: a zero window — every request its own batch of one.
  std::vector<core::Verdict> reference;
  {
    svc::Service service({.jobs = 2, .batch_window_seconds = 0.0});
    for (const ltl::Formula& prop : props) {
      svc::CheckRequest request;
      request.system = &sys;
      request.property = prop;
      request.engine = core::Engine::kKInduction;
      request.max_depth = 10;
      reference.push_back(service.check(request).outcome.verdict);
    }
    EXPECT_EQ(service.batches_formed(), props.size());
    EXPECT_EQ(service.batched_requests(), props.size());
  }

  // Batched: many client threads submitting concurrently inside a generous
  // coalescing window; verdicts must be identical to the sequential run.
  svc::ServiceOptions options;
  options.jobs = 2;
  options.batch_window_seconds = 0.02;
  options.batch_max = 64;
  svc::Service service(options);
  constexpr int kThreads = 4;
  std::vector<std::vector<core::Verdict>> verdicts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<svc::PendingCheck> pending;
      for (const ltl::Formula& prop : props) {
        svc::CheckRequest request;
        request.system = &sys;
        request.property = prop;
        request.engine = core::Engine::kKInduction;
        request.max_depth = 10;
        pending.push_back(service.submit(request));
      }
      for (svc::PendingCheck& p : pending)
        verdicts[t].push_back(p.wait().outcome.verdict);
    });
  }
  for (std::thread& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(verdicts[t], reference) << "thread " << t;
  EXPECT_GE(service.batches_formed(), 1u);
  EXPECT_EQ(service.batched_requests(),
            static_cast<std::uint64_t>(kThreads * props.size()));
  // The violated property's counterexample went through the cache: it must
  // still rehydrate and replay against the system.
  svc::CheckRequest again;
  again.system = &sys;
  again.property = props[1];
  again.engine = core::Engine::kKInduction;
  again.max_depth = 10;
  const svc::CheckResponse cached = service.check(again);
  EXPECT_TRUE(cached.cache_hit);
  ASSERT_TRUE(cached.outcome.counterexample.has_value());
  EXPECT_TRUE(sys.trace_conforms(*cached.outcome.counterexample));
}

TEST(ServiceBatch, OnCompleteFiresExactlyOnceIncludingRejects) {
  const ts::TransitionSystem sys = counter_system("batch2");
  const expr::Expr x = expr::var_by_name("batch2.x");
  svc::ServiceOptions options;
  options.jobs = 1;
  options.queue_limit = 1;  // force rejects under a burst
  options.batch_window_seconds = 0.005;
  svc::Service service(options);

  std::atomic<int> fired{0};
  std::vector<svc::PendingCheck> pending;
  for (int i = 0; i < 8; ++i) {
    svc::CheckRequest request;
    request.system = &sys;
    request.property = ltl::G(ltl::atom(x <= 7));
    request.engine = core::Engine::kKInduction;
    request.max_depth = 10;
    request.on_complete = [&fired] { fired.fetch_add(1); };
    pending.push_back(service.submit(request));
  }
  int rejected = 0;
  for (svc::PendingCheck& p : pending)
    if (p.wait().rejected) ++rejected;
  service.drain();
  EXPECT_EQ(fired.load(), 8);
  EXPECT_GE(rejected, 1);  // queue_limit 1 under an 8-deep burst must bounce
}

TEST(ServiceBatch, SessionFailureAnswersEveryMember) {
  // The explicit engine refuses liveness properties by throwing from
  // check_all. Both members of the batch still get an answer (an unknown,
  // never cached) and their callbacks, and the service keeps serving.
  const ts::TransitionSystem sys = counter_system("batch_fail");
  const expr::Expr x = expr::var_by_name("batch_fail.x");
  svc::Service service({.jobs = 1, .batch_window_seconds = 0.2});
  std::atomic<int> fired{0};
  svc::CheckRequest request;
  request.system = &sys;
  request.engine = core::Engine::kExplicit;
  request.max_depth = 10;
  request.on_complete = [&fired] { fired.fetch_add(1); };
  request.property = ltl::F(ltl::atom(x == 3));
  svc::PendingCheck first = service.submit(request);
  request.property = ltl::F(ltl::atom(x == 2));
  svc::PendingCheck second = service.submit(request);
  for (svc::PendingCheck* p : {&first, &second}) {
    const svc::CheckResponse r = p->wait();
    EXPECT_EQ(r.outcome.verdict, core::Verdict::kUnknown);
    EXPECT_NE(r.outcome.message.find("batch dispatch failed"), std::string::npos)
        << r.outcome.message;
    EXPECT_FALSE(r.cache_hit);
  }
  service.drain();
  EXPECT_EQ(fired.load(), 2);
  EXPECT_EQ(service.batches_formed(), 1u);
  EXPECT_EQ(service.cache().size(), 0u);
}

TEST(ServiceBatch, CompletedBatchesAreFreed) {
  // A batch owns its members and each member refers back to its batch; the
  // back-reference must not keep the batch alive. The request's on_complete
  // holds a sentinel, so once the service is gone nothing may still own it.
  const ts::TransitionSystem sys = counter_system("batch_free");
  const expr::Expr x = expr::var_by_name("batch_free.x");
  const auto sentinel = std::make_shared<int>(0);
  {
    svc::ServiceOptions options;
    options.jobs = 1;
    options.batch_window_seconds = 0.002;
    svc::Service service(options);
    svc::CheckRequest request;
    request.system = &sys;
    request.property = ltl::G(ltl::atom(x <= 7));
    request.engine = core::Engine::kKInduction;
    request.max_depth = 10;
    request.on_complete = [sentinel] {};
    EXPECT_EQ(service.submit(request).wait().outcome.verdict, core::Verdict::kHolds);
    EXPECT_EQ(service.batches_formed(), 1u);
  }
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(ServiceBatch, BatchSystemNotReadAfterAnyMemberCompletes) {
  // Two fingerprint-equal but DISTINCT system objects (the daemon produces
  // these when model-LRU eviction re-parses the same text) coalesce into one
  // batch that verifies against the FIRST member's system. The CheckRequest
  // borrow only lasts until that member's own completion, so a contract-
  // following caller may free its system from on_complete — the fan-out must
  // fill every member's slot before signalling any of them (ASan catches the
  // regression as a use-after-free on *batch->system).
  auto sys_a = std::make_unique<ts::TransitionSystem>(counter_system("batch3"));
  auto sys_b = std::make_unique<ts::TransitionSystem>(counter_system("batch3"));
  const expr::Expr x = expr::var_by_name("batch3.x");

  svc::ServiceOptions options;
  options.jobs = 1;
  options.batch_window_seconds = 0.05;  // generous: both submits join one batch
  svc::Service service(options);

  svc::CheckRequest first;
  first.system = sys_a.get();
  first.property = ltl::G(ltl::atom(x <= 7));
  first.engine = core::Engine::kKInduction;
  first.max_depth = 10;
  first.on_complete = [&sys_a] { sys_a.reset(); };
  svc::PendingCheck p1 = service.submit(first);

  svc::CheckRequest second;
  second.system = sys_b.get();
  second.property = ltl::G(ltl::atom(x >= 0));
  second.engine = core::Engine::kKInduction;
  second.max_depth = 10;
  svc::PendingCheck p2 = service.submit(second);

  EXPECT_EQ(p1.wait().outcome.verdict, core::Verdict::kHolds);
  EXPECT_EQ(p2.wait().outcome.verdict, core::Verdict::kHolds);
  service.drain();
  EXPECT_EQ(service.batches_formed(), 1u);  // they really shared one session
}

TEST(ServiceBatch, DuplicatePropertiesInOneBatchReportIndividualCacheHits) {
  // Two members of one batch carrying the identical property share a request
  // fingerprint, and the session checks it once. Each member still gets its
  // own cache_hit flag: the member the property was added for reports how
  // the session served it, its twin ran no engine.
  const ts::TransitionSystem sys = counter_system("batch4");
  const expr::Expr x = expr::var_by_name("batch4.x");
  const ltl::Formula prop = ltl::G(ltl::atom(x <= 7));

  svc::ServiceOptions options;
  options.jobs = 1;
  options.batch_window_seconds = 0.2;
  svc::Service service(options);

  svc::CheckRequest request;
  request.system = &sys;
  request.property = prop;
  request.engine = core::Engine::kKInduction;
  request.max_depth = 10;
  const auto wait_all = [](std::vector<svc::PendingCheck> pending) {
    std::vector<svc::CheckResponse> responses;
    for (svc::PendingCheck& p : pending) responses.push_back(p.wait());
    return responses;
  };

  // Cold cache: the shared session computes the property once, for the
  // first member.
  const std::vector<svc::CheckResponse> cold =
      wait_all({service.submit(request), service.submit(request)});
  for (const svc::CheckResponse& r : cold) EXPECT_EQ(r.outcome.verdict, core::Verdict::kHolds);
  EXPECT_FALSE(cold[0].cache_hit);
  EXPECT_TRUE(cold[1].cache_hit);
  // Warm cache: a fresh pair is answered from the LRU at admission and joins
  // no batch.
  for (const svc::CheckResponse& r : wait_all({service.submit(request), service.submit(request)})) {
    EXPECT_EQ(r.outcome.verdict, core::Verdict::kHolds);
    EXPECT_TRUE(r.cache_hit);
  }
  EXPECT_EQ(service.batches_formed(), 1u);

  // A verdict that lands in the cache after admission is served inside the
  // batch, to each member. The lone request (its own group: a finite
  // deadline) dispatches one window before the pair on the single worker
  // and stores the verdict the pair's session then finds.
  svc::CheckRequest other = request;
  other.max_depth = 11;
  other.deadline = util::Deadline::after_seconds(60);
  svc::PendingCheck first = service.submit(other);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  other.deadline = util::Deadline::never();
  for (const svc::CheckResponse& r : wait_all({service.submit(other), service.submit(other)})) {
    EXPECT_EQ(r.outcome.verdict, core::Verdict::kHolds);
    EXPECT_TRUE(r.cache_hit);
  }
  EXPECT_FALSE(first.wait().cache_hit);
  EXPECT_EQ(service.batches_formed(), 3u);
}

// --- Daemon framing errors and message bounds --------------------------------

// Connects to `sock`, writes `bytes`, half-closes, and reads until the
// daemon closes the connection (the half-close ends the exchange when the
// daemon sends nothing). Returns everything the daemon sent.
std::string raw_exchange(const std::string& sock, const std::string& bytes) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot connect to " + sock);
  }
  if (::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(bytes.size())) {
    ::close(fd);
    throw std::runtime_error("short send");
  }
  ::shutdown(fd, SHUT_WR);
  std::string received;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // closed by the daemon
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return received;
}

TEST(Daemon, RejectsJsonLineClientAndServesTheNext) {
  const mdl::VmlModel model = mdl::parse_vml(kDaemonModel);
  char sock_dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(sock_dir), nullptr);
  const std::string sock = std::string(sock_dir) + "/d.sock";

  svc::DaemonOptions options;
  options.socket_path = sock;
  options.service.jobs = 2;
  options.service.batch_window_seconds = 0.002;  // production config
  svc::Daemon daemon(options);
  ServerThread server(daemon);

  // A client writing a JSON line instead of a frame gets one error frame
  // (bad magic, counted in svc.frames_rejected) and a closed connection.
  const std::uint64_t rejected_before = obs::counter("svc.frames_rejected").load();
  const std::string reply =
      raw_exchange(sock, R"({"id":"1","model":"x","props":["bound_ok"]})" "\n");
  EXPECT_EQ(obs::counter("svc.frames_rejected").load(), rejected_before + 1);
  svc::FrameDecoder decoder;
  decoder.feed(reply);
  const svc::FrameDecoder::Result error = decoder.next();
  ASSERT_EQ(error.status, svc::FrameDecoder::Status::kFrame);
  EXPECT_EQ(error.frame.type, svc::FrameType::kError);
  EXPECT_NE(error.frame.payload.find("magic"), std::string::npos) << error.frame.payload;
  EXPECT_EQ(decoder.next().status, svc::FrameDecoder::Status::kNeedMore);

  // Binary clients that come next are served, concurrently.
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        svc::Client client(sock);
        for (int round = 0; round < 2; ++round) {
          const std::vector<svc::ClientVerdict> verdicts = client.check(
              kDaemonModel, {"bound_ok", "never_two"}, core::Engine::kKInduction,
              10, /*timeout_seconds=*/0.0);
          if (verdicts.size() != 2) throw std::runtime_error("wrong count");
          if (verdicts[0].outcome.verdict != core::Verdict::kHolds)
            throw std::runtime_error("bound_ok should hold");
          if (verdicts[1].outcome.verdict != core::Verdict::kViolated)
            throw std::runtime_error("never_two should be violated");
          std::string why;
          if (!core::confirm_counterexample(model.system,
                                            model.ltl_properties.at("never_two"),
                                            verdicts[1].outcome, &why))
            throw std::runtime_error("unconfirmed trace: " + why);
        }
      } catch (const std::exception& error) {
        ADD_FAILURE() << "client " << c << ": " << error.what();
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.stop();
  EXPECT_EQ(failures.load(), 0);

  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

TEST(Daemon, RejectsOversizedFrames) {
  char sock_dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(sock_dir), nullptr);
  const std::string sock = std::string(sock_dir) + "/d.sock";

  svc::DaemonOptions options;
  options.socket_path = sock;
  options.service.jobs = 1;
  options.max_message_bytes = 1024;
  svc::Daemon daemon(options);
  ServerThread server(daemon);

  // A "model" comfortably over the limit but small enough to fit in the
  // socket buffers, so the client reliably reads the error response.
  const std::uint64_t rejected_before = obs::counter("svc.frames_rejected").load();
  {
    svc::Client client(sock);
    try {
      (void)client.check(std::string(4096, 'x'), {}, core::Engine::kAuto, 10, 0.0);
      ADD_FAILURE() << "oversized request was not rejected";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("limit"), std::string::npos)
          << error.what();
    }
  }
  EXPECT_EQ(obs::counter("svc.frames_rejected").load(), rejected_before + 1);

  // The daemon is still healthy and serves a well-formed request.
  {
    svc::Client client(sock);
    const auto verdicts =
        client.check(kDaemonModel, {"bound_ok"}, core::Engine::kKInduction, 10, 0.0);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].outcome.verdict, core::Verdict::kHolds);
  }

  server.stop();
  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

// A request whose model carries a property nested past the parser's depth
// bound, as 200,000 parentheses or a 200,000-term `&` chain (each frame about
// 400 KB, inside the default message limit), gets one error reply; the
// daemon keeps serving.
TEST(Daemon, RejectsDeeplyNestedPropertyAndServesTheNext) {
  char sock_dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(sock_dir), nullptr);
  const std::string sock = std::string(sock_dir) + "/d.sock";

  svc::DaemonOptions options;
  options.socket_path = sock;
  options.service.jobs = 1;
  svc::Daemon daemon(options);
  ServerThread server(daemon);

  constexpr int kDepth = 200000;
  std::string chain = "svcd.x <= 3";
  for (int i = 1; i < kDepth; ++i) chain += "&x";
  for (const std::string& property :
       {"G " + std::string(kDepth, '(') + "svcd.x <= 3" + std::string(kDepth, ')'),
        "G (" + chain + ")"}) {
    std::string model = kDaemonModel;
    model.insert(model.rfind('}'), "  ltl deep \"" + property + "\";\n");
    const std::string request =
        R"({"id":"deep","model":")" + obs::json_escape(model) + R"(","props":["deep"]})";
    const std::string reply = raw_exchange(sock, svc::encode_frame(svc::FrameType::kRequest, request));
    svc::FrameDecoder decoder;
    decoder.feed(reply);
    const svc::FrameDecoder::Result error = decoder.next();
    ASSERT_EQ(error.status, svc::FrameDecoder::Status::kFrame);
    EXPECT_EQ(error.frame.type, svc::FrameType::kError);
    EXPECT_NE(error.frame.payload.find("nests deeper"), std::string::npos)
        << error.frame.payload.substr(0, 200);
    EXPECT_EQ(decoder.next().status, svc::FrameDecoder::Status::kNeedMore);
  }

  svc::Client client(sock);
  const auto verdicts =
      client.check(kDaemonModel, {"bound_ok"}, core::Engine::kKInduction, 10, 0.0);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].outcome.verdict, core::Verdict::kHolds);

  server.stop();
  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

// A frame of type 6 once wrote a bare `holds` into the daemon's store on any
// connection. A forged one, carrying `holds` for a violated property under
// its request fingerprint, must now be refused at the decoder, and the
// property must still come back violated with a trace that replays — and the
// segment must hold that violation, not the forgery.
TEST(Daemon, RejectsForgedStoreWriteAndStillServesTheViolation) {
  const mdl::VmlModel model = mdl::parse_vml(kDaemonModel);
  char dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string sock = std::string(dir) + "/d.sock";
  const std::string seg = std::string(dir) + "/d.seg";

  svc::DaemonOptions options;
  options.socket_path = sock;
  options.service.jobs = 2;
  options.service.segment_file = seg;
  svc::Daemon daemon(options);
  ServerThread server(daemon);

  const ltl::Formula& never_two = model.ltl_properties.at("never_two");
  const Fingerprint key =
      svc::fingerprint_request(model.system, never_two, core::Engine::kKInduction, 10);
  const std::uint64_t rejected_before = obs::counter("svc.frames_rejected").load();
  const std::string reply =
      raw_exchange(sock, frame_with_type(6, svc::cached_to_json(key, holds_verdict())));
  const std::uint64_t rejected_after = obs::counter("svc.frames_rejected").load();
  std::vector<svc::ClientVerdict> verdicts;
  try {
    svc::Client client(sock);
    verdicts = client.check(kDaemonModel, {"never_two"}, core::Engine::kKInduction, 10, 0.0);
  } catch (const std::exception& error) {
    ADD_FAILURE() << error.what();
  }
  server.stop();

  EXPECT_EQ(rejected_after, rejected_before + 1);
  svc::FrameDecoder decoder;
  decoder.feed(reply);
  const svc::FrameDecoder::Result error = decoder.next();
  EXPECT_EQ(error.status, svc::FrameDecoder::Status::kFrame);
  EXPECT_EQ(error.frame.type, svc::FrameType::kError);
  EXPECT_NE(error.frame.payload.find("unknown frame type 6"), std::string::npos)
      << error.frame.payload;
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].outcome.verdict, core::Verdict::kViolated);
  std::string why;
  EXPECT_TRUE(core::confirm_counterexample(model.system, never_two, verdicts[0].outcome, &why))
      << why;

  {
    svc::SegmentStore segment(seg);
    const std::optional<svc::CachedVerdict> stored = segment.lookup(key);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->verdict, core::Verdict::kViolated);
  }
  ::unlink(seg.c_str());
  ::rmdir(dir);
}

TEST(Client, RetriesConnectWhileTheDaemonIsStarting) {
  char sock_dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(sock_dir), nullptr);
  const std::string sock = std::string(sock_dir) + "/d.sock";

  // The daemon appears only after the client has started retrying (ENOENT
  // until then). Without connect_wait_seconds this throws immediately.
  EXPECT_THROW(svc::Client no_retry(sock), std::runtime_error);

  // The server thread builds the daemon itself, so ServerThread (which takes
  // a constructed one) cannot guard it. The daemon is handed over through a
  // promise (null if construction threw), and the guard waits for it, stops
  // it and joins the thread on every exit path, failed ASSERTs included.
  std::promise<std::unique_ptr<svc::Daemon>> started;
  std::future<std::unique_ptr<svc::Daemon>> published = started.get_future();
  std::thread server([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::unique_ptr<svc::Daemon> daemon;
    try {
      svc::DaemonOptions options;
      options.socket_path = sock;
      options.service.jobs = 1;
      daemon = std::make_unique<svc::Daemon>(options);
    } catch (const std::exception&) {
      started.set_value(nullptr);
      return;
    }
    svc::Daemon* serving = daemon.get();
    started.set_value(std::move(daemon));
    serving->serve();
  });
  struct StopAndJoin {
    std::future<std::unique_ptr<svc::Daemon>>& published;
    std::thread& server;
    void stop() {
      if (!server.joinable()) return;
      const std::unique_ptr<svc::Daemon> daemon = published.get();
      if (daemon) daemon->request_stop();
      server.join();
    }
    ~StopAndJoin() { stop(); }
  } guard{published, server};

  svc::ClientOptions client_options;
  client_options.connect_wait_seconds = 10.0;
  client_options.io_timeout_seconds = 30.0;
  svc::Client client(sock, client_options);
  const auto verdicts =
      client.check(kDaemonModel, {"bound_ok"}, core::Engine::kKInduction, 10, 0.0);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].outcome.verdict, core::Verdict::kHolds);

  guard.stop();
  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

// --- Stored traces -----------------------------------------------------------

TEST(StoredTrace, RoundTripsThroughJson) {
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  const core::CheckOutcome outcome =
      core::check(scenario.system, scenario.property,
                  {.engine = core::Engine::kBmc, .max_depth = 6});
  ASSERT_TRUE(outcome.counterexample.has_value());
  const std::string json = svc::trace_to_json(*outcome.counterexample);
  const auto back = svc::trace_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->states.size(), outcome.counterexample->states.size());
  EXPECT_EQ(back->lasso_start, outcome.counterexample->lasso_start);
  EXPECT_TRUE(scenario.system.trace_conforms(*back));
}

TEST(StoredTrace, UnknownVariablesFailSoft) {
  EXPECT_FALSE(svc::trace_from_json(
                   R"({"length":1,"lasso_start":null,"params":{},)"
                   R"("states":[{"no.such.var.anywhere":1}]})")
                   .has_value());
  EXPECT_FALSE(svc::trace_from_json("not json at all").has_value());
}

// --- Persistent segment ------------------------------------------------------

TEST(Segment, RoundTripsAcrossReopen) {
  char dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/verdicts.seg";
  {
    svc::SegmentStore segment(path);
    for (std::uint64_t i = 0; i < 3; ++i)
      EXPECT_TRUE(segment.append(key_of(i), holds_verdict(1.0 + static_cast<double>(i))));
    EXPECT_EQ(segment.size(), 3u);
  }
  {
    // A fresh process (modelled by a fresh SegmentStore) replays the log.
    svc::SegmentStore segment(path);
    EXPECT_EQ(segment.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
      const auto held = segment.lookup(key_of(i));
      ASSERT_TRUE(held.has_value());
      EXPECT_EQ(held->verdict, core::Verdict::kHolds);
      EXPECT_DOUBLE_EQ(held->seconds, 1.0 + static_cast<double>(i));
    }
    EXPECT_FALSE(segment.lookup(key_of(99)).has_value());
  }
  ::unlink(path.c_str());
  ::rmdir(dir);
}

TEST(Segment, LaterAppendSupersedes) {
  char dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/verdicts.seg";
  {
    svc::SegmentStore segment(path);
    EXPECT_TRUE(segment.append(key_of(5), holds_verdict(1.0)));
    EXPECT_TRUE(segment.append(key_of(5), holds_verdict(2.0)));
    EXPECT_EQ(segment.size(), 1u);  // one key, latest record wins
  }
  svc::SegmentStore segment(path);
  const auto held = segment.lookup(key_of(5));
  ASSERT_TRUE(held.has_value());
  EXPECT_DOUBLE_EQ(held->seconds, 2.0);
  ::unlink(path.c_str());
  ::rmdir(dir);
}

TEST(Segment, TornTailIsDiscardedCleanly) {
  char dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/verdicts.seg";
  {
    svc::SegmentStore segment(path);
    EXPECT_TRUE(segment.append(key_of(1), holds_verdict(1.0)));
    svc::CachedVerdict marked = holds_verdict(2.0);
    marked.message = "TEAR-THIS-RECORD-APART";
    EXPECT_TRUE(segment.append(key_of(2), marked));
  }
  // Corrupt one payload byte of the SECOND record — the checksum now fails,
  // modelling a crash mid-append (the marker is written last, but a torn
  // payload under a valid marker must also be caught).
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    std::string bytes((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
    const std::size_t at = bytes.find("TEAR-THIS");
    ASSERT_NE(at, std::string::npos);
    file.seekp(static_cast<std::streamoff>(at));
    file.put('X');
  }
  svc::SegmentStore segment(path);
  EXPECT_EQ(segment.size(), 1u);  // the tail is gone, the prefix intact
  EXPECT_TRUE(segment.lookup(key_of(1)).has_value());
  EXPECT_FALSE(segment.lookup(key_of(2)).has_value());
  // And the reopened segment still accepts appends after the truncation.
  EXPECT_TRUE(segment.append(key_of(3), holds_verdict(3.0)));
  EXPECT_TRUE(segment.lookup(key_of(3)).has_value());
  ::unlink(path.c_str());
  ::rmdir(dir);
}

TEST(Segment, RefusesNonDefinitiveValues) {
  char dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/verdicts.seg";
  svc::SegmentStore segment(path);
  svc::CachedVerdict timeout = holds_verdict();
  timeout.verdict = core::Verdict::kTimeout;
  EXPECT_FALSE(segment.append(key_of(1), timeout));
  svc::CachedVerdict traceless = holds_verdict();
  traceless.verdict = core::Verdict::kViolated;  // violated without evidence
  EXPECT_FALSE(segment.append(key_of(2), traceless));
  EXPECT_EQ(segment.size(), 0u);
  ::unlink(path.c_str());
  ::rmdir(dir);
}

TEST(Segment, RejectsForeignFile) {
  char dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/not-a-segment";
  {
    std::ofstream out(path);
    out << "this file belongs to some other subsystem entirely\n";
  }
  EXPECT_THROW(svc::SegmentStore segment(path), std::runtime_error);
  ::unlink(path.c_str());
  ::rmdir(dir);
}

TEST(Segment, PersistedCounterexampleRoundTrips) {
  // Real violated outcome with a trace, through append -> reopen -> lookup,
  // then rehydrated and re-confirmed against the system. The same flow runs
  // across a genuine process restart in tests/verdictd_cli_test.sh.
  scenarios::RolloutPartitionScenario scenario = scenarios::make_test_scenario();
  const core::CheckOutcome outcome =
      core::check(scenario.system, scenario.property,
                  {.engine = core::Engine::kBmc, .max_depth = 6});
  ASSERT_TRUE(outcome.violated());
  ASSERT_TRUE(outcome.counterexample.has_value());

  const Fingerprint key = svc::fingerprint_request(
      scenario.system, scenario.property, core::Engine::kBmc, 6);
  char dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/verdicts.seg";
  {
    svc::SegmentStore segment(path);
    ASSERT_TRUE(segment.append(key, svc::cached_from_outcome(outcome)));
  }
  svc::SegmentStore restarted(path);
  const auto cached = restarted.lookup(key);
  ASSERT_TRUE(cached.has_value());
  const auto rehydrated = svc::outcome_from_cached(*cached);
  ASSERT_TRUE(rehydrated.has_value());
  EXPECT_EQ(rehydrated->verdict, core::Verdict::kViolated);
  ASSERT_TRUE(rehydrated->counterexample.has_value());
  std::string why;
  EXPECT_TRUE(core::confirm_counterexample(scenario.system, scenario.property,
                                           *rehydrated, &why))
      << why;
  ::unlink(path.c_str());
  ::rmdir(dir);
}

TEST(Segment, SkipsMalformedAndNonDefinitiveRecords) {
  // Records that pass the checksum but whose payload is not a definitive
  // verdict-cache-v2 entry: never served, and the records around them are.
  char dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/verdicts.seg";
  const std::string holds = svc::cached_to_json(key_of(1), holds_verdict());
  const auto with_schema = [&](const std::string& schema) {
    std::string line = holds;
    line.replace(line.find("verdict-cache-v2"), 16, schema);
    return line;
  };
  std::string timeout = holds;
  timeout.replace(timeout.find("\"holds\""), 7, "\"timeout\"");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << segment_bytes({{key_of(1), holds},
                          {key_of(2), "this is not json"},
                          {key_of(3), timeout},
                          {key_of(4), with_schema("some-other-schema")},
                          {key_of(5), with_schema("verdict-cache-v1")},
                          {key_of(6), svc::cached_to_json(key_of(6), holds_verdict())}});
  }
  svc::SegmentStore segment(path);
  std::size_t served = 0;
  segment.for_each([&](const Fingerprint&, const svc::CachedVerdict&) { ++served; });
  EXPECT_EQ(served, 2u);
  EXPECT_TRUE(segment.lookup(key_of(1)).has_value());
  EXPECT_TRUE(segment.lookup(key_of(6)).has_value());
  for (std::uint64_t k = 2; k <= 5; ++k)
    EXPECT_FALSE(segment.lookup(key_of(k)).has_value()) << "key " << k;
  ::unlink(path.c_str());
  ::rmdir(dir);
}

}  // namespace
}  // namespace verdict
