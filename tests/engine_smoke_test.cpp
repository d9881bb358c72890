// End-to-end smoke tests: all engines on small hand-analyzable systems.
#include <gtest/gtest.h>

#include "core/bmc.h"
#include "core/checker.h"
#include "core/explicit.h"
#include "core/kinduction.h"
#include "core/liveness.h"
#include "core/pdr.h"
#include "core/synth.h"
#include "ltl/parser.h"
#include "ltl/trace_eval.h"

namespace verdict {
namespace {

using core::Verdict;
using expr::Expr;

// A bounded counter: x' = x + 1 until limit, then stays. Violates G(x < 5)
// iff limit can reach 5.
ts::TransitionSystem counter_system(const std::string& prefix, std::int64_t limit) {
  ts::TransitionSystem ts;
  const Expr x = expr::int_var(prefix + "_x", 0, 10);
  ts.add_var(x);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x),
                           expr::ite(expr::mk_lt(x, expr::int_const(limit)), x + 1, x)));
  return ts;
}

TEST(BmcSmoke, FindsCounterViolationAtExactDepth) {
  const auto ts = counter_system("bmc1", 8);
  const Expr x = expr::var_by_name("bmc1_x");
  const auto outcome = core::check_invariant_bmc(ts, expr::mk_lt(x, expr::int_const(5)));
  ASSERT_EQ(outcome.verdict, Verdict::kViolated);
  EXPECT_EQ(outcome.stats.depth_reached, 5);
  ASSERT_TRUE(outcome.counterexample.has_value());
  EXPECT_EQ(outcome.counterexample->states.size(), 6u);
  std::string error;
  EXPECT_TRUE(ts.trace_conforms(*outcome.counterexample, &error)) << error;
}

TEST(BmcSmoke, BoundReachedWhenSafe) {
  const auto ts = counter_system("bmc2", 4);
  const Expr x = expr::var_by_name("bmc2_x");
  core::BmcOptions options;
  options.max_depth = 20;
  const auto outcome =
      core::check_invariant_bmc(ts, expr::mk_lt(x, expr::int_const(5)), options);
  EXPECT_EQ(outcome.verdict, Verdict::kBoundReached);
}

TEST(KInductionSmoke, ProvesSafeCounter) {
  const auto ts = counter_system("kind1", 4);
  const Expr x = expr::var_by_name("kind1_x");
  const auto outcome =
      core::check_invariant_kinduction(ts, expr::mk_lt(x, expr::int_const(5)));
  EXPECT_EQ(outcome.verdict, Verdict::kHolds);
}

TEST(KInductionSmoke, FindsViolation) {
  const auto ts = counter_system("kind2", 8);
  const Expr x = expr::var_by_name("kind2_x");
  const auto outcome =
      core::check_invariant_kinduction(ts, expr::mk_lt(x, expr::int_const(5)));
  ASSERT_EQ(outcome.verdict, Verdict::kViolated);
  std::string error;
  EXPECT_TRUE(ts.trace_conforms(*outcome.counterexample, &error)) << error;
}

TEST(PdrSmoke, ProvesSafeCounter) {
  const auto ts = counter_system("pdr1", 4);
  const Expr x = expr::var_by_name("pdr1_x");
  const auto outcome = core::check_invariant_pdr(ts, expr::mk_lt(x, expr::int_const(5)));
  EXPECT_EQ(outcome.verdict, Verdict::kHolds) << outcome.message;
}

TEST(PdrSmoke, FindsViolationWithValidTrace) {
  const auto ts = counter_system("pdr2", 8);
  const Expr x = expr::var_by_name("pdr2_x");
  const auto outcome = core::check_invariant_pdr(ts, expr::mk_lt(x, expr::int_const(5)));
  ASSERT_EQ(outcome.verdict, Verdict::kViolated) << outcome.message;
  ASSERT_TRUE(outcome.counterexample.has_value());
  std::string error;
  EXPECT_TRUE(ts.trace_conforms(*outcome.counterexample, &error)) << error;
  // Final state must violate x < 5.
  const auto last = outcome.counterexample->states.back().get(x);
  ASSERT_TRUE(last.has_value());
  EXPECT_GE(std::get<std::int64_t>(*last), 5);
}

TEST(ExplicitSmoke, AgreesOnViolationAndProof) {
  const auto safe = counter_system("exp1", 4);
  const auto unsafe = counter_system("exp2", 8);
  const Expr x1 = expr::var_by_name("exp1_x");
  const Expr x2 = expr::var_by_name("exp2_x");
  EXPECT_EQ(core::check_invariant_explicit(safe, expr::mk_lt(x1, expr::int_const(5))).verdict,
            Verdict::kHolds);
  const auto violation =
      core::check_invariant_explicit(unsafe, expr::mk_lt(x2, expr::int_const(5)));
  ASSERT_EQ(violation.verdict, Verdict::kViolated);
  EXPECT_EQ(violation.counterexample->states.size(), 6u);  // shortest path
}

TEST(ParametricSmoke, SolverPicksFailingParameter) {
  // x counts up to the parameter `limit`; G(x < 5) fails iff limit >= 5.
  ts::TransitionSystem ts;
  const Expr x = expr::int_var("par_x", 0, 10);
  const Expr limit = expr::int_var("par_limit", 0, 10);
  ts.add_var(x);
  ts.add_param(limit);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x), expr::ite(expr::mk_lt(x, limit), x + 1, x)));

  const auto outcome = core::check_invariant_bmc(ts, expr::mk_lt(x, expr::int_const(5)));
  ASSERT_EQ(outcome.verdict, Verdict::kViolated);
  const auto chosen = outcome.counterexample->params.get(limit);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_GE(std::get<std::int64_t>(*chosen), 5);
}

TEST(SynthSmoke, ClassifiesParameterSpace) {
  ts::TransitionSystem ts;
  const Expr x = expr::int_var("syn_x", 0, 10);
  const Expr limit = expr::int_var("syn_limit", 0, 7);
  ts.add_var(x);
  ts.add_param(limit);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x), expr::ite(expr::mk_lt(x, limit), x + 1, x)));

  const auto result = core::synthesize_params(ts, expr::mk_lt(x, expr::int_const(5)));
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.stats.engine, "synth/pdr");
  // limit in {0..4} safe, {5,6,7} unsafe.
  EXPECT_EQ(result.safe.size(), 5u);
  EXPECT_EQ(result.unsafe.size(), 3u);
  EXPECT_GE(result.pruned_by_replay, 1u) << "trace replay should prune some candidates";
}

TEST(SynthSmoke, DeadlineMarksUnprocessedCandidatesUndecided) {
  ts::TransitionSystem ts;
  const Expr x = expr::int_var("ps_dl_x", 0, 6);
  const Expr cap = expr::int_var("ps_dl_cap", 0, 6);
  ts.add_var(x);
  ts.add_param(cap);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x), expr::ite(expr::mk_lt(x, cap), x + 1, x)));

  core::SynthOptions options;
  options.deadline = util::Deadline::after_seconds(0);  // already expired
  const auto result =
      core::synthesize_params(ts, expr::mk_le(x, expr::int_const(3)), options);
  EXPECT_EQ(result.undecided.size(), 7u);
  EXPECT_TRUE(result.safe.empty());
  EXPECT_TRUE(result.unsafe.empty());
}

TEST(LivenessSmoke, FindsOscillationLasso) {
  // A toggling bit never stabilizes: F(G(b)) is violated by the obvious lasso.
  ts::TransitionSystem ts;
  const Expr b = expr::bool_var("liv_b");
  ts.add_var(b);
  ts.add_init(b);
  ts.add_trans(expr::mk_eq(expr::next(b), expr::mk_not(b)));

  const ltl::Formula property = ltl::F(ltl::G(ltl::atom(b)));
  const auto outcome = core::check_ltl_lasso(ts, property);
  ASSERT_EQ(outcome.verdict, Verdict::kViolated) << outcome.message;
  ASSERT_TRUE(outcome.counterexample.has_value());
  EXPECT_TRUE(outcome.counterexample->is_lasso());
  std::string error;
  EXPECT_TRUE(ts.trace_conforms(*outcome.counterexample, &error)) << error;
  EXPECT_FALSE(ltl::holds_on_lasso(property, ts, *outcome.counterexample));
}

TEST(LivenessSmoke, NoLassoForStabilizingSystem) {
  // b latches to true and stays: F(G(b)) has no lasso counterexample.
  ts::TransitionSystem ts;
  const Expr b = expr::bool_var("liv_s");
  ts.add_var(b);
  ts.add_trans(expr::next(b));
  core::LivenessOptions options;
  options.max_depth = 6;
  const auto outcome = core::check_ltl_lasso(ts, ltl::F(ltl::G(ltl::atom(b))), options);
  EXPECT_EQ(outcome.verdict, Verdict::kBoundReached);
}

TEST(StatsMerge, SumsChecksAndTimeKeepsMaxDepthJoinsLabels) {
  core::Stats a;
  a.engine = "pdr";
  a.seconds = 1.5;
  a.solver_checks = 10;
  a.depth_reached = 3;
  core::Stats b;
  b.engine = "bmc";
  b.seconds = 0.5;
  b.solver_checks = 7;
  b.depth_reached = 9;
  a.merge(b);
  EXPECT_EQ(a.engine, "pdr+bmc");
  EXPECT_DOUBLE_EQ(a.seconds, 2.0);
  EXPECT_EQ(a.solver_checks, 17u);
  EXPECT_EQ(a.depth_reached, 9);

  core::Stats empty;
  empty.merge(b);
  EXPECT_EQ(empty.engine, "bmc");
}

TEST(CheckerFacade, RoutesAndConfirms) {
  const auto ts = counter_system("fac1", 8);
  const ltl::Formula property = ltl::parse_ltl("G (fac1_x < 5)");
  const auto outcome = core::check(ts, property);
  ASSERT_EQ(outcome.verdict, Verdict::kViolated);
  std::string error;
  EXPECT_TRUE(core::confirm_counterexample(ts, property, outcome, &error)) << error;
  EXPECT_FALSE(core::describe(outcome).empty());
}

TEST(CheckerFacade, AutoDispatchProvesStabilization) {
  // F(G b) on a latch: kAuto must return a PROOF (l2s), not bound-reached.
  ts::TransitionSystem ts;
  const Expr b = expr::bool_var("fac_l2s");
  ts.add_var(b);
  ts.add_trans(expr::next(b));
  const auto outcome = core::check(ts, ltl::F(ltl::G(ltl::atom(b))));
  EXPECT_EQ(outcome.verdict, Verdict::kHolds) << outcome.message;
  EXPECT_NE(outcome.stats.engine.find("l2s"), std::string::npos);
  // And G(F b) on a toggler likewise.
  ts::TransitionSystem tog;
  const Expr c = expr::bool_var("fac_l2s_gf");
  tog.add_var(c);
  tog.add_init(c);
  tog.add_trans(expr::mk_eq(expr::next(c), expr::mk_not(c)));
  EXPECT_EQ(core::check(tog, ltl::G(ltl::F(ltl::atom(c)))).verdict, Verdict::kHolds);
}

TEST(CheckerFacade, DeadlineProducesTimeoutVerdict) {
  const auto ts = counter_system("fac_to", 8);
  core::CheckOptions options;
  options.deadline = util::Deadline::after_seconds(0.0);
  const auto outcome = core::check(ts, "G (fac_to_x < 5)", options);
  EXPECT_EQ(outcome.verdict, Verdict::kTimeout);
}

TEST(CheckerFacade, StringPropertyOverload) {
  const auto ts = counter_system("fac2", 4);
  core::CheckOptions options;
  options.engine = core::Engine::kKInduction;
  const auto outcome = core::check(ts, "G (fac2_x < 5)", options);
  EXPECT_EQ(outcome.verdict, Verdict::kHolds);
}

}  // namespace
}  // namespace verdict
