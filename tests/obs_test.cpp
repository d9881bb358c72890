// The observability layer: NDJSON trace sink (thread-safety under TSan,
// concurrent service batches included), counter registry, verdict-stats-v1
// round trip, explainer rendering, and the disabled-path cost contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/bmc.h"
#include "core/checker.h"
#include "core/session.h"
#include "ltl/ltl.h"
#include "obs/explain.h"
#include "obs/json.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "svc/service.h"

namespace verdict {
namespace {

using expr::Expr;

// The engine_smoke counter: x' = x + 1 until limit, then stays.
ts::TransitionSystem counter_system(const std::string& prefix, std::int64_t limit) {
  ts::TransitionSystem ts;
  const Expr x = expr::int_var(prefix + "_x", 0, 10);
  ts.add_var(x);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x),
                           expr::ite(expr::mk_lt(x, expr::int_const(limit)), x + 1, x)));
  return ts;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// Uninstalls the sink on scope exit so a failing ASSERT cannot leave a
// dangling global sink behind for the next test.
struct SinkGuard {
  explicit SinkGuard(obs::TraceSink* s) { obs::set_sink(s); }
  ~SinkGuard() { obs::set_sink(nullptr); }
};

TEST(TraceSink, EmitsOneValidJsonObjectPerLine) {
  std::ostringstream out;
  obs::TraceSink sink(out);
  sink.event("unit.test")
      .attr("s", "quote\"back\\slash")
      .attr("flag", true)
      .attr("n", std::int64_t{-7})
      .attr("x", 0.25)
      .emit();
  sink.event("unit.second").emit();
  sink.flush();

  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(sink.events_emitted(), 2u);

  const obs::JsonValue first = obs::parse_json(lines[0]);
  ASSERT_TRUE(first.is_object());
  EXPECT_TRUE(first.has("ts"));
  EXPECT_GE(first["ts"].number, 0.0);
  EXPECT_EQ(first["type"].string, "unit.test");
  EXPECT_EQ(first["s"].string, "quote\"back\\slash");
  EXPECT_TRUE(first["flag"].boolean);
  EXPECT_EQ(first["n"].number, -7.0);
  EXPECT_EQ(first["x"].number, 0.25);
  EXPECT_EQ(obs::parse_json(lines[1])["type"].string, "unit.second");
}

TEST(TraceSink, SpanEmitsDuration) {
  std::ostringstream out;
  obs::TraceSink sink(out);
  SinkGuard guard(&sink);
  {
    obs::Span span("unit.span");
    span.attr("engine", "bmc");
  }
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u);
  const obs::JsonValue e = obs::parse_json(lines[0]);
  EXPECT_EQ(e["type"].string, "unit.span");
  EXPECT_EQ(e["engine"].string, "bmc");
  ASSERT_TRUE(e.has("dur"));
  EXPECT_GE(e["dur"].number, 0.0);
}

// The documented thread-safety contract: concurrent emitters interleave
// whole lines, never bytes. Run with TSan in CI.
TEST(TraceSink, ConcurrentEmittersNeverTearLines) {
  constexpr int kThreads = 8;
  constexpr int kEvents = 250;
  std::ostringstream out;
  obs::TraceSink sink(out);
  SinkGuard guard(&sink);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([t] {
      for (int i = 0; i < kEvents; ++i)
        if (obs::TraceSink* s = obs::sink())
          s->event("unit.mt").attr("thread", t).attr("seq", i).emit();
    });
  for (std::thread& w : workers) w.join();
  sink.flush();

  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kEvents));
  std::set<std::pair<int, int>> seen;
  for (const std::string& line : lines) {
    const obs::JsonValue e = obs::parse_json(line);  // throws on a torn line
    ASSERT_EQ(e["type"].string, "unit.mt") << line;
    seen.emplace(static_cast<int>(e["thread"].number),
                 static_cast<int>(e["seq"].number));
  }
  EXPECT_EQ(seen.size(), lines.size()) << "every (thread, seq) exactly once";
}

// Concurrent service batches under an installed sink: each request is its
// own batch (zero window) on its own system, so the pool workers run their
// engines side by side and emit engine/smt events concurrently.
TEST(TraceSink, ConcurrentServiceBatchesEmitCoherentEvents) {
  constexpr int kRequests = 8;
  std::vector<ts::TransitionSystem> systems;
  std::vector<ltl::Formula> properties;
  for (int i = 0; i < kRequests; ++i) {
    const std::string prefix = "obs_svc" + std::to_string(i);
    systems.push_back(counter_system(prefix, 2 + i));
    const Expr x = expr::var_by_name(prefix + "_x");
    properties.push_back(ltl::G(ltl::atom(expr::mk_lt(x, expr::int_const(5)))));
  }

  std::ostringstream out;
  obs::TraceSink sink(out);
  SinkGuard guard(&sink);
  std::vector<core::Verdict> verdicts;
  {
    svc::ServiceOptions options;
    options.jobs = 4;
    options.batch_window_seconds = 0.0;
    svc::Service service(options);
    std::vector<svc::PendingCheck> pending;
    for (int i = 0; i < kRequests; ++i) {
      svc::CheckRequest request;
      request.system = &systems[i];
      request.property = properties[i];
      request.engine = core::Engine::kKInduction;
      request.max_depth = 12;
      pending.push_back(service.submit(request));
    }
    for (svc::PendingCheck& p : pending) verdicts.push_back(p.wait().outcome.verdict);
    EXPECT_EQ(service.batches_formed(), static_cast<std::uint64_t>(kRequests));
  }
  obs::set_sink(nullptr);
  sink.flush();
  for (int i = 0; i < kRequests; ++i)
    EXPECT_EQ(verdicts[i], 2 + i >= 5 ? core::Verdict::kViolated : core::Verdict::kHolds)
        << "request " << i;

  std::map<std::string, int> open_spans;  // engine -> starts minus finishes
  int starts = 0;
  for (const std::string& line : lines_of(out.str())) {
    const obs::JsonValue e = obs::parse_json(line);  // every line whole + valid
    ASSERT_TRUE(e.has("ts")) << line;
    ASSERT_TRUE(e.has("type")) << line;
    if (e["type"].string == "engine.start") {
      ++open_spans[e["engine"].string];
      ++starts;
    }
    if (e["type"].string == "engine.finish") --open_spans[e["engine"].string];
  }
  EXPECT_GE(starts, kRequests) << "every batch runs at least one engine";
  for (const auto& [engine, open] : open_spans)
    EXPECT_EQ(open, 0) << engine << ": an engine.start without its engine.finish";
}

// A session's safety group is one engine batch: one engine.start/finish
// span around the shared unrolling, whatever the number of properties, with
// every per-depth progress event inside it.
TEST(TraceSink, SessionBatchIsOneEngineSpan) {
  const auto ts = counter_system("obs_ses", 8);
  const Expr x = expr::var_by_name("obs_ses_x");
  for (const core::Engine engine : {core::Engine::kBmc, core::Engine::kKInduction}) {
    const std::string name = engine == core::Engine::kBmc ? "bmc" : "k-induction";
    SCOPED_TRACE(name);
    core::Session session(ts);
    session.add_property("lt5", ltl::G(ltl::atom(expr::mk_lt(x, expr::int_const(5)))));
    session.add_property("le8", ltl::G(ltl::atom(expr::mk_le(x, expr::int_const(8)))));
    session.add_property("ge0", ltl::G(ltl::atom(expr::mk_le(expr::int_const(0), x))));

    std::ostringstream out;
    obs::TraceSink sink(out);
    SinkGuard guard(&sink);
    const auto result = session.check_all({.engine = engine, .max_depth = 10});
    obs::set_sink(nullptr);
    sink.flush();
    EXPECT_EQ(result.properties[0].outcome.verdict, core::Verdict::kViolated);

    const std::string progress = engine == core::Engine::kBmc ? "bmc.depth" : "kinduction.k";
    std::vector<std::string> order;  // engine.start / progress / engine.finish
    for (const std::string& line : lines_of(out.str())) {
      const obs::JsonValue e = obs::parse_json(line);
      const std::string& type = e["type"].string;
      if (type == "engine.start" || type == "engine.finish") {
        EXPECT_EQ(e["engine"].string, name);
        order.push_back(type);
      } else if (type == progress) {
        EXPECT_TRUE(e.has("pending")) << line;
        order.push_back(type);
      }
    }
    ASSERT_GE(order.size(), 3u);
    EXPECT_EQ(std::count(order.begin(), order.end(), "engine.start"), 1);
    EXPECT_EQ(std::count(order.begin(), order.end(), "engine.finish"), 1);
    EXPECT_EQ(order.front(), "engine.start");
    EXPECT_EQ(order.back(), "engine.finish");
  }
}

// Cost contract: with no sink installed the instrumentation gate is one
// atomic load. This is a functional assertion (nothing emitted, nothing
// invoked) plus a very generous wall-clock sanity bound that holds even
// under TSan.
TEST(TraceSink, DisabledPathDoesNothing) {
  ASSERT_EQ(obs::sink(), nullptr);
  std::atomic<int> invoked{0};
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1'000'000; ++i)
    if (obs::TraceSink* s = obs::sink()) {
      ++invoked;
      s->event("never").emit();
    }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(invoked.load(), 0);
  EXPECT_LT(elapsed.count(), 5.0) << "1M disabled checks must be ~free";
}

TEST(Counters, RegistryCountsAndSnapshots) {
  obs::reset_counters();
  obs::count("unit.a");
  obs::count("unit.a", 2);
  obs::counter("unit.b").fetch_add(5, std::memory_order_relaxed);

  const auto snapshot = obs::counters_snapshot();
  ASSERT_TRUE(snapshot.contains("unit.a"));
  EXPECT_EQ(snapshot.at("unit.a"), 3u);
  EXPECT_EQ(snapshot.at("unit.b"), 5u);

  obs::reset_counters();
  EXPECT_EQ(obs::counters_snapshot().at("unit.a"), 0u);
}

TEST(Counters, ConcurrentIncrementsSum) {
  obs::reset_counters();
  constexpr int kThreads = 8;
  constexpr int kBumps = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      std::atomic<std::uint64_t>& cell = obs::counter("unit.mt");
      for (int i = 0; i < kBumps; ++i) cell.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(obs::counters_snapshot().at("unit.mt"),
            static_cast<std::uint64_t>(kThreads) * kBumps);
}

// verdict-stats-v1 building blocks: emit a real outcome through the writers,
// parse it back, and check the documented fields (docs/observability.md).
TEST(StatsJson, OutcomeRoundTripsThroughParser) {
  // Parametric so the trace carries a params block.
  ts::TransitionSystem ts;
  const Expr x = expr::int_var("obs_rt_x", 0, 10);
  const Expr limit = expr::int_var("obs_rt_limit", 0, 10);
  ts.add_var(x);
  ts.add_param(limit);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x), expr::ite(expr::mk_lt(x, limit), x + 1, x)));
  const auto outcome = core::check_invariant_bmc(ts, expr::mk_lt(x, expr::int_const(5)));
  ASSERT_EQ(outcome.verdict, core::Verdict::kViolated);
  ASSERT_TRUE(outcome.counterexample.has_value());

  obs::JsonWriter w;
  obs::write_outcome(w, outcome);
  const obs::JsonValue doc = obs::parse_json(w.str());

  EXPECT_EQ(doc["verdict"].string, "violated");
  const obs::JsonValue& stats = doc["stats"];
  EXPECT_EQ(stats["engine"].string, "bmc");
  EXPECT_GT(stats["seconds"].number, 0.0);
  EXPECT_GE(stats["seconds"].number, stats["solver_seconds"].number);
  EXPECT_GT(stats["solver_checks"].number, 0.0);
  EXPECT_EQ(stats["depth_reached"].number, 5.0);

  const obs::JsonValue& trace = doc["counterexample"];
  EXPECT_EQ(trace["length"].number,
            static_cast<double>(outcome.counterexample->states.size()));
  EXPECT_TRUE(trace["lasso_start"].is_null()) << "safety trace has no lasso";
  EXPECT_GE(trace["params"]["obs_rt_limit"].number, 5.0);
  ASSERT_EQ(trace["states"].array.size(), outcome.counterexample->states.size());
  EXPECT_EQ(trace["states"].array.front()["obs_rt_x"].number, 0.0);
}

TEST(StatsJson, ValueEncodingBoolIntRational) {
  obs::JsonWriter w;
  w.begin_array();
  obs::write_value(w, expr::Value{true});
  obs::write_value(w, expr::Value{std::int64_t{42}});
  obs::write_value(w, expr::Value{util::Rational(3, 7)});
  w.end_array();
  const obs::JsonValue doc = obs::parse_json(w.str());
  ASSERT_EQ(doc.array.size(), 3u);
  EXPECT_TRUE(doc.array[0].boolean);
  EXPECT_EQ(doc.array[1].number, 42.0);
  EXPECT_EQ(doc.array[2].string, "3/7") << "exact rationals must not be rounded";
}

// The explainer: params first, step [0] in full, later steps as diffs, with
// labels and derived columns applied.
TEST(Explain, DiffRenderingLabelsAndDerivedColumns) {
  ts::TransitionSystem ts;
  const Expr x = expr::int_var("obs_ex_x", 0, 10);
  const Expr limit = expr::int_var("obs_ex_limit", 0, 10);
  ts.add_var(x);
  ts.add_param(limit);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x), expr::ite(expr::mk_lt(x, limit), x + 1, x)));
  const auto outcome = core::check_invariant_bmc(ts, expr::mk_lt(x, expr::int_const(2)));
  ASSERT_EQ(outcome.verdict, core::Verdict::kViolated);
  ASSERT_GE(outcome.counterexample->states.size(), 3u);

  obs::ExplainOptions options;
  options.labels[x.var()] = {{0, "EMPTY"}, {2, "FULL"}};
  options.derived.emplace_back("next_x", x + 1);

  const std::string text = obs::explain_trace(ts, *outcome.counterexample, options);
  EXPECT_NE(text.find("parameters chosen by the checker:"), std::string::npos) << text;
  EXPECT_NE(text.find("obs_ex_limit ="), std::string::npos) << text;
  EXPECT_NE(text.find("step [0]"), std::string::npos);
  EXPECT_NE(text.find("obs_ex_x=EMPTY"), std::string::npos) << "label in step [0]";
  EXPECT_NE(text.find("obs_ex_x: 1 -> FULL"), std::string::npos)
      << "diff line with the labeled target value:\n"
      << text;
  EXPECT_NE(text.find("| next_x=1"), std::string::npos) << "derived column:\n" << text;

  // Full-state mode (--trace): same renderer, every step lists the variable.
  options.diff_only = false;
  const std::string full = obs::explain_trace(ts, *outcome.counterexample, options);
  EXPECT_NE(full.find("step [2]"), std::string::npos);
  EXPECT_NE(full.find("obs_ex_x=FULL"), std::string::npos) << full;
}

TEST(Explain, LassoTraceAnnotatesLoopBack) {
  ts::TransitionSystem ts;
  const Expr x = expr::int_var("obs_lasso_x", 0, 3);
  ts.add_var(x);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x), expr::ite(expr::mk_lt(x, expr::int_const(2)),
                                                    x + 1, expr::int_const(1))));
  // G F (x = 0) fails: after the first step x cycles 1,2,1,2,... forever.
  const auto outcome = core::check(
      ts, ltl::G(ltl::F(ltl::atom(expr::mk_eq(x, expr::int_const(0))))));
  ASSERT_EQ(outcome.verdict, core::Verdict::kViolated);
  ASSERT_TRUE(outcome.counterexample.has_value());
  ASSERT_TRUE(outcome.counterexample->is_lasso());

  const std::string text = obs::explain_trace(ts, *outcome.counterexample, {});
  EXPECT_NE(text.find("loop"), std::string::npos)
      << "lasso rendering must point at the loop-back:\n"
      << text;
}

}  // namespace
}  // namespace verdict
