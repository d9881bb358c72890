// The verification-as-a-service subsystem end to end: canonical
// fingerprints, the verdict cache (LRU + cacheability rule + single-flight +
// persistence), the Service scheduler, the Session cache hook, and a real
// in-process Daemon serving concurrent socket clients. The daemon test is
// the suite's TSan workout — it exercises connection threads, the worker
// pool, and the sharded cache simultaneously.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checker.h"
#include "core/session.h"
#include "expr/expr.h"
#include "ltl/ltl.h"
#include "mdl/vml.h"
#include "obs/trace.h"
#include "scenarios/rollout_partition.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/fingerprint.h"
#include "svc/frame.h"
#include "svc/peer.h"
#include "svc/protocol.h"
#include "svc/ring.h"
#include "svc/segment.h"
#include "svc/service.h"
#include "svc/stored_trace.h"
#include "svc/verdict_cache.h"

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

TEST(VerdictCache, SingleFlightComputesOnce) {
  svc::VerdictCache cache;
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<svc::CachedVerdict> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = cache.get_or_compute(key_of(42), [&] {
        computes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return holds_verdict(7.0);
      });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  for (const svc::CachedVerdict& r : results) {
    EXPECT_EQ(r.verdict, core::Verdict::kHolds);
    EXPECT_DOUBLE_EQ(r.seconds, 7.0);
  }
  EXPECT_GE(cache.single_flight_shared(), static_cast<std::uint64_t>(kThreads - 1));
}

TEST(VerdictCache, SingleFlightSharesButNeverStoresNonDefinitive) {
  svc::VerdictCache cache;
  svc::CachedVerdict timeout;
  timeout.verdict = core::Verdict::kTimeout;
  const svc::CachedVerdict got =
      cache.get_or_compute(key_of(9), [&] { return timeout; });
  EXPECT_EQ(got.verdict, core::Verdict::kTimeout);
  EXPECT_FALSE(cache.lookup(key_of(9)).has_value());
}

TEST(VerdictCache, LeaderExceptionLetsWaitersRecover) {
  svc::VerdictCache cache;
  std::atomic<int> attempts{0};
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      try {
        const svc::CachedVerdict v = cache.get_or_compute(key_of(13), [&] {
          if (attempts.fetch_add(1) == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            throw std::runtime_error("solver exploded");
          }
          return holds_verdict();
        });
        EXPECT_EQ(v.verdict, core::Verdict::kHolds);
        successes.fetch_add(1);
      } catch (const std::runtime_error&) {
        // Only the failing leader may see the exception.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GE(attempts.load(), 2);
  EXPECT_GE(successes.load(), 3);
}

// --- Persistence across "restarts" -------------------------------------------

TEST(VerdictCache, PersistedCounterexampleRoundTrips) {
  // Real violated outcome with a trace, through save -> fresh cache -> load,
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
  svc::VerdictCache cache;
  cache.insert(key, svc::cached_from_outcome(outcome));

  std::stringstream disk;
  cache.save(disk);

  svc::VerdictCache restarted;
  EXPECT_EQ(restarted.load(disk), 1u);
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
}

TEST(VerdictCache, LoadSkipsMalformedAndNonDefinitiveLines) {
  svc::VerdictCache cache;
  std::stringstream disk;
  svc::VerdictCache source;
  source.insert(key_of(1), holds_verdict());
  source.save(disk);
  disk << "this is not json\n";
  disk << R"({"schema":"verdict-cache-v1","key":"00000000000000000000000000000001",)"
       << R"("verdict":"timeout","engine":"bmc"})" << "\n";
  disk << R"({"schema":"some-other-schema","key":"00000000000000000000000000000002",)"
       << R"("verdict":"holds","engine":"bmc"})" << "\n";
  EXPECT_EQ(cache.load(disk), 1u);  // only the genuine holds line
  EXPECT_EQ(cache.size(), 1u);
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
  const svc::CheckResponse noopt = service.check(request);
  EXPECT_FALSE(noopt.cache_hit) << "--no-opt must never serve a cached verdict";
  EXPECT_EQ(noopt.outcome.verdict, core::Verdict::kViolated);

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
  svc::Service service({.jobs = 4});
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
  // Single-flight: at most one response per wave actually ran the engines
  // (>=1 because the first request must compute).
  EXPECT_GE(computed, 1u);
  EXPECT_EQ(service.cache().size(), 1u);
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
  std::thread server([&] { daemon.serve(); });

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

  daemon.request_stop();
  server.join();

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
  std::thread server([&] { daemon.serve(); });

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

  daemon.request_stop();
  server.join();
  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

// --- Binary framing ----------------------------------------------------------

TEST(Frame, RoundTripsEveryType) {
  for (const svc::FrameType type :
       {svc::FrameType::kRequest, svc::FrameType::kVerdict, svc::FrameType::kDone,
        svc::FrameType::kError, svc::FrameType::kPeerGet, svc::FrameType::kPeerPut}) {
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

// Seeded, deterministic mutation loop over the daemon's two parsers of
// untrusted bytes: FrameDecoder, then parse_request on every request frame
// that comes out. Each input is a well-formed frame (or two) mutated by bit
// flips, truncation, length-field edits, oversize declarations and byte
// splices, fed in random chunks. Every next() must end in a frame, a wait for
// more bytes, or an error (and stay in error once there); parse_request must
// return a request or a reason, never throw.
TEST(FrameFuzz, MutatedFramesEndInAFrameOrAnError) {
  constexpr std::size_t kMaxPayload = 4096;
  constexpr int kInputsPerSeed = 100000;
  const std::vector<std::string> corpus = {
      svc::encode_frame(svc::FrameType::kRequest,
                        R"({"id":"1","model":"module m { var x : 0..3; init x = 0; }",)"
                        R"("props":["safe","live"],"engine":"kinduction","depth":30,)"
                        R"("timeout":5.5,"optimize":false,"abstract":true})"),
      svc::encode_frame(svc::FrameType::kRequest, R"({"id":7,"model":"m","props":[]})"),
      svc::encode_frame(svc::FrameType::kPeerGet,
                        R"({"key":"0123456789abcdef0123456789abcdef"})"),
      svc::encode_frame(svc::FrameType::kDone, R"({"type":"done","id":"1"})"),
  };
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

TEST(Protocol, ParseRequestRejectsOutOfRangeAndHostileFields) {
  const std::string deep = std::string(100000, '[') + std::string(100000, ']');
  for (const std::string& payload : {
           std::string(""), std::string("[]"), std::string("\"model\""),
           std::string(R"({"model":""})"), std::string(R"({"model":"m","engine":"z3"})"),
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

  // Reference: batching disabled — every request its own computation.
  std::vector<core::Verdict> reference;
  {
    svc::Service service({.jobs = 2});
    for (const ltl::Formula& prop : props) {
      svc::CheckRequest request;
      request.system = &sys;
      request.property = prop;
      request.engine = core::Engine::kKInduction;
      request.max_depth = 10;
      reference.push_back(service.check(request).outcome.verdict);
    }
    EXPECT_EQ(service.batches_formed(), 0u);
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
  // fingerprint; their cache_hit flags must still be recorded per member
  // (by session property index), not keyed by fingerprint.
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

  // Cold cache: the shared session computes the pair — neither member may
  // claim a hit just because its twin shares the fingerprint.
  for (const svc::CheckResponse& r : wait_all({service.submit(request), service.submit(request)})) {
    EXPECT_EQ(r.outcome.verdict, core::Verdict::kHolds);
    EXPECT_FALSE(r.cache_hit);
  }
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

// Connects to `sock`, writes `bytes`, and reads until the daemon closes the
// connection. Returns everything the daemon sent.
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
  std::thread server([&] { daemon.serve(); });

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
  daemon.request_stop();
  server.join();
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
  std::thread server([&] { daemon.serve(); });

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

  daemon.request_stop();
  server.join();
  ::unlink(sock.c_str());
  ::rmdir(sock_dir);
}

TEST(Client, RetriesConnectWhileTheDaemonIsStarting) {
  char sock_dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(sock_dir), nullptr);
  const std::string sock = std::string(sock_dir) + "/d.sock";

  // The daemon appears only after the client has started retrying (ENOENT
  // until then). Without connect_wait_seconds this throws immediately.
  EXPECT_THROW(svc::Client no_retry(sock), std::runtime_error);

  std::unique_ptr<svc::Daemon> daemon;
  std::thread server([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    svc::DaemonOptions options;
    options.socket_path = sock;
    options.service.jobs = 1;
    daemon = std::make_unique<svc::Daemon>(options);
    daemon->serve();
  });

  svc::ClientOptions client_options;
  client_options.connect_wait_seconds = 10.0;
  client_options.io_timeout_seconds = 30.0;
  svc::Client client(sock, client_options);
  const auto verdicts =
      client.check(kDaemonModel, {"bound_ok"}, core::Engine::kKInduction, 10, 0.0);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].outcome.verdict, core::Verdict::kHolds);

  daemon->request_stop();
  server.join();
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

// --- Consistent-hash ring ----------------------------------------------------

// Deterministic key stream (no std::random — the suite must be replayable).
std::vector<Fingerprint> synthetic_keys(std::size_t n) {
  std::vector<Fingerprint> keys;
  keys.reserve(n);
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t hi = s;
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    keys.push_back(Fingerprint{hi, s});
  }
  return keys;
}

TEST(Ring, DeterministicAcrossSpecOrder) {
  const svc::Ring a = svc::Ring::from_spec("/run/s1.sock,/run/s2.sock,/run/s3.sock");
  const svc::Ring b = svc::Ring::from_spec("/run/s3.sock,/run/s1.sock,/run/s2.sock");
  ASSERT_EQ(a.nodes(), b.nodes());  // canonical (sorted) member order
  for (const Fingerprint& key : synthetic_keys(512))
    EXPECT_EQ(a.owner_id(key), b.owner_id(key));
}

TEST(Ring, RejectsEmptyAndDuplicateSpecs) {
  EXPECT_THROW((void)svc::Ring::from_spec(""), std::invalid_argument);
  EXPECT_THROW((void)svc::Ring::from_spec("a,,b"), std::invalid_argument);
  EXPECT_THROW((void)svc::Ring::from_spec("a,b,a"), std::invalid_argument);
  EXPECT_NO_THROW((void)svc::Ring::from_spec("solo"));
}

TEST(Ring, SpreadIsRoughlyBalanced) {
  // kVirtualNodesPerNode points per node must keep every shard within a
  // loose band of the fair share (the header claims ~1.3 max/min; assert 2x
  // so the test pins the mechanism, not the constant).
  const svc::Ring ring = svc::Ring::from_spec("sh-a,sh-b,sh-c,sh-d");
  const std::vector<Fingerprint> keys = synthetic_keys(4096);
  std::vector<std::size_t> load(ring.size(), 0);
  for (const Fingerprint& key : keys) ++load[ring.owner(key)];
  const std::size_t fair = keys.size() / ring.size();
  for (std::size_t s = 0; s < load.size(); ++s) {
    EXPECT_GT(load[s], fair / 2) << "shard " << s << " starved";
    EXPECT_LT(load[s], fair * 2) << "shard " << s << " overloaded";
  }
}

TEST(Ring, JoinMovesOnlyKeysToTheNewNode) {
  const svc::Ring before = svc::Ring::from_spec("n1,n2,n3");
  const svc::Ring after = svc::Ring::from_spec("n1,n2,n3,n4");
  const std::vector<Fingerprint> keys = synthetic_keys(4096);
  std::size_t moved = 0;
  for (const Fingerprint& key : keys) {
    const std::string& was = before.owner_id(key);
    const std::string& now = after.owner_id(key);
    if (was != now) {
      // The ONLY legal move is onto the joining node — consistent hashing's
      // defining property. Any other reshuffle would dump every shard's
      // warm set on a topology change.
      EXPECT_EQ(now, "n4");
      ++moved;
    }
  }
  // Expected share is 1/4 of the keyspace; accept a loose band around it.
  EXPECT_GT(moved, keys.size() / 8);
  EXPECT_LT(moved, keys.size() / 2);
}

TEST(Ring, LeaveMovesOnlyOrphanedKeys) {
  const svc::Ring before = svc::Ring::from_spec("n1,n2,n3,n4");
  const svc::Ring after = svc::Ring::from_spec("n1,n2,n3");
  for (const Fingerprint& key : synthetic_keys(4096)) {
    // Keys the departed node did not own must not move at all.
    if (before.owner_id(key) != "n4")
      EXPECT_EQ(before.owner_id(key), after.owner_id(key));
  }
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

// --- Atomic snapshot save ----------------------------------------------------

TEST(VerdictCache, SaveFileReplacesAtomically) {
  char dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/cache.ndjson";

  svc::VerdictCache first;
  first.insert(key_of(1), holds_verdict(1.0));
  first.save_file(path);
  svc::VerdictCache second;
  second.insert(key_of(2), holds_verdict(2.0));
  second.insert(key_of(3), holds_verdict(3.0));
  second.save_file(path);  // full replace of the previous snapshot

  // No temp file may linger — the write lands via rename, so a crash mid-save
  // leaves the old snapshot untouched rather than a half-written new one.
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  svc::VerdictCache reloaded;
  EXPECT_EQ(reloaded.load_file(path), 2u);
  EXPECT_FALSE(reloaded.lookup(key_of(1)).has_value());
  EXPECT_TRUE(reloaded.lookup(key_of(2)).has_value());
  EXPECT_TRUE(reloaded.lookup(key_of(3)).has_value());

  ::unlink(path.c_str());
  ::rmdir(dir);
}

// --- Two-shard cluster (in-process) ------------------------------------------

// Fixture facts: both daemons share this process's global counters, so the
// assertions read obs::counters_snapshot() deltas instead of flags the wire
// protocol does not carry.
std::uint64_t counter_or_zero(const std::map<std::string, std::uint64_t>& counters,
                              const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0u : it->second;
}

TEST(Cluster, PeerFetchServesAcrossShards) {
  const mdl::VmlModel model = mdl::parse_vml(kDaemonModel);
  char dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string sock_a = std::string(dir) + "/a.sock";
  const std::string sock_b = std::string(dir) + "/b.sock";
  const std::string spec = sock_a + "," + sock_b;

  auto make_daemon = [&](const std::string& sock) {
    svc::DaemonOptions options;
    options.socket_path = sock;
    options.service.jobs = 2;
    options.service.batch_window_seconds = 0.0;
    options.service.cluster = spec;
    options.service.self_id = sock;
    return std::make_unique<svc::Daemon>(options);
  };
  auto daemon_a = make_daemon(sock_a);
  auto daemon_b = make_daemon(sock_b);
  std::thread serve_a([&] { daemon_a->serve(); });
  std::thread serve_b([&] { daemon_b->serve(); });

  // Pick the shard that OWNS bound_ok's fingerprint for the cold compute, so
  // the second shard's warm request must cross the peer tier (PEER_GET).
  const svc::Ring ring = svc::Ring::from_nodes({sock_a, sock_b});
  const Fingerprint fp = svc::fingerprint_request(
      model.system, model.ltl_properties.at("bound_ok"),
      core::Engine::kKInduction, 10);
  const std::string owner_sock = ring.owner_id(fp);
  const std::string other_sock = owner_sock == sock_a ? sock_b : sock_a;

  const std::map<std::string, std::uint64_t> before = obs::counters_snapshot();
  core::Verdict cold, warm;
  {
    svc::Client client(owner_sock);
    const auto verdicts =
        client.check(kDaemonModel, {"bound_ok"}, core::Engine::kKInduction, 10, 0.0);
    ASSERT_EQ(verdicts.size(), 1u);
    cold = verdicts[0].outcome.verdict;
  }
  {
    svc::Client client(other_sock);
    const auto verdicts =
        client.check(kDaemonModel, {"bound_ok"}, core::Engine::kKInduction, 10, 0.0);
    ASSERT_EQ(verdicts.size(), 1u);
    warm = verdicts[0].outcome.verdict;
  }
  const std::map<std::string, std::uint64_t> after = obs::counters_snapshot();

  EXPECT_EQ(cold, core::Verdict::kHolds);
  EXPECT_EQ(warm, cold);
  // The non-owner went to the ring, asked the owner, and got a hit; the
  // owner served it from its local tiers.
  EXPECT_GE(counter_or_zero(after, "svc.ring.remote") -
                counter_or_zero(before, "svc.ring.remote"), 1u);
  EXPECT_GE(counter_or_zero(after, "svc.peer.get") -
                counter_or_zero(before, "svc.peer.get"), 1u);
  EXPECT_GE(counter_or_zero(after, "svc.peer.hit") -
                counter_or_zero(before, "svc.peer.hit"), 1u);
  EXPECT_GE(counter_or_zero(after, "svc.peer.serve_get") -
                counter_or_zero(before, "svc.peer.serve_get"), 1u);

  daemon_a->request_stop();
  daemon_b->request_stop();
  serve_a.join();
  serve_b.join();
  ::unlink(sock_a.c_str());
  ::unlink(sock_b.c_str());
  ::rmdir(dir);
}

TEST(Cluster, PeerUnreachableDegradesToLocalCompute) {
  const mdl::VmlModel model = mdl::parse_vml(kDaemonModel);
  char dir[] = "/tmp/svc_test.XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string sock_a = std::string(dir) + "/a.sock";
  const std::string sock_b = std::string(dir) + "/b.sock";  // never started
  const std::string spec = sock_a + "," + sock_b;

  // Find a depth whose request fingerprint the DEAD shard owns, so the live
  // shard must attempt (and survive) a peer fetch.
  const svc::Ring ring = svc::Ring::from_nodes({sock_a, sock_b});
  int depth = 0;
  for (int d = 10; d < 64; ++d) {
    const Fingerprint fp = svc::fingerprint_request(
        model.system, model.ltl_properties.at("bound_ok"),
        core::Engine::kKInduction, d);
    if (ring.owner_id(fp) == sock_b) {
      depth = d;
      break;
    }
  }
  ASSERT_NE(depth, 0) << "no depth in [10,64) hashes to the dead shard";

  svc::DaemonOptions options;
  options.socket_path = sock_a;
  options.service.jobs = 2;
  options.service.batch_window_seconds = 0.0;
  options.service.cluster = spec;
  options.service.self_id = sock_a;
  svc::Daemon daemon(options);
  std::thread server([&] { daemon.serve(); });

  const std::map<std::string, std::uint64_t> before = obs::counters_snapshot();
  {
    // The dead peer must cost at most a failed dial — never a client error.
    svc::Client client(sock_a);
    const auto verdicts = client.check(kDaemonModel, {"bound_ok"},
                                       core::Engine::kKInduction, depth, 0.0);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].outcome.verdict, core::Verdict::kHolds);
  }
  const std::map<std::string, std::uint64_t> after = obs::counters_snapshot();
  EXPECT_GE(counter_or_zero(after, "svc.peer.unreachable") -
                counter_or_zero(before, "svc.peer.unreachable"), 1u);

  daemon.request_stop();
  server.join();
  ::unlink(sock_a.c_str());
  ::rmdir(dir);
}

}  // namespace
}  // namespace verdict
