// SMT backend: translation correctness, frames, rigid variables, models.
#include <gtest/gtest.h>

#include "smt/solver.h"

namespace verdict::smt {
namespace {

using expr::Expr;

TEST(Solver, SatAndUnsatBasics) {
  Solver solver;
  const Expr x = expr::int_var("smt_x", 0, 100);
  solver.add(expr::mk_lt(expr::int_const(5), x), 0);
  solver.add(expr::mk_lt(x, expr::int_const(7)), 0);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(std::get<std::int64_t>(solver.value_of(x, 0)), 6);

  solver.add(expr::mk_eq(x, expr::int_const(9)), 0);
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

TEST(Solver, FramesAreIndependentConstants) {
  Solver solver;
  const Expr x = expr::int_var("smt_fr", 0, 100);
  solver.add(expr::mk_eq(x, expr::int_const(1)), 0);
  solver.add(expr::mk_eq(x, expr::int_const(2)), 1);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(std::get<std::int64_t>(solver.value_of(x, 0)), 1);
  EXPECT_EQ(std::get<std::int64_t>(solver.value_of(x, 1)), 2);
}

TEST(Solver, NextTranslatesToSuccessorFrame) {
  Solver solver;
  const Expr x = expr::int_var("smt_nx", 0, 100);
  solver.add(expr::mk_eq(x, expr::int_const(3)), 0);
  solver.add(expr::mk_eq(expr::next(x), x + 1), 0);  // frame 0 -> 1
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(std::get<std::int64_t>(solver.value_of(x, 1)), 4);
}

TEST(Solver, RigidVariablesSpanFrames) {
  Solver solver;
  const Expr p = expr::int_var("smt_rigid", 0, 100);
  solver.set_rigid({p.var()});
  solver.add(expr::mk_eq(p, expr::int_const(7)), 0);
  // Referencing the rigid var at another frame constrains the same constant.
  solver.add(expr::mk_lt(expr::int_const(6), p), 5);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(std::get<std::int64_t>(solver.value_of(p, 9)), 7);

  solver.add(expr::mk_eq(p, expr::int_const(8)), 3);
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

TEST(Solver, RealArithmeticRoundTrips) {
  Solver solver;
  const Expr r = expr::real_var("smt_real");
  solver.add(expr::mk_eq(r + r, expr::real_const(util::Rational(1))), 0);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(std::get<util::Rational>(solver.value_of(r, 0)), util::Rational(1, 2));
}

TEST(Solver, MixedIntRealPromotion) {
  Solver solver;
  const Expr i = expr::int_var("smt_mi", 0, 10);
  const Expr r = expr::real_var("smt_mr");
  solver.add(expr::mk_eq(r, i * r + expr::real_const(util::Rational(1))), 0);
  solver.add(expr::mk_eq(i, expr::int_const(0)), 0);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(std::get<util::Rational>(solver.value_of(r, 0)), util::Rational(1));
}

TEST(Solver, PushPopRestoresState) {
  Solver solver;
  const Expr x = expr::int_var("smt_pp", 0, 10);
  solver.add(expr::mk_le(x, expr::int_const(5)), 0);
  solver.push();
  solver.add(expr::mk_eq(x, expr::int_const(9)), 0);
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
  solver.pop();
  EXPECT_EQ(solver.check(), CheckResult::kSat);
}

// at_most is the threshold probe's cardinality constraint: with four flags
// of which at least three must hold, "at most 3" is satisfiable and "at
// most 2" is not; each probe is scoped by push/pop.
TEST(Solver, AtMostBoundaryAndScoping) {
  Solver solver;
  std::vector<Expr> flags;
  for (int i = 0; i < 4; ++i) flags.push_back(expr::bool_var("smt_am" + std::to_string(i)));
  solver.add(expr::mk_le(expr::int_const(3), expr::mk_add({expr::bool_to_int(flags[0]),
                                                           expr::bool_to_int(flags[1]),
                                                           expr::bool_to_int(flags[2]),
                                                           expr::bool_to_int(flags[3])})),
             0);
  solver.push();
  solver.add(solver.at_most(flags, 0, 3));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  int held = 0;
  for (Expr f : flags) held += std::get<bool>(solver.value_of(f, 0)) ? 1 : 0;
  EXPECT_EQ(held, 3);
  solver.pop();

  solver.push();
  solver.add(solver.at_most(flags, 0, 2));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
  solver.pop();
  // The unsat bound was popped with its scope.
  EXPECT_EQ(solver.check(), CheckResult::kSat);
}

TEST(Solver, AtMostTranslatesAtRequestedFrame) {
  Solver solver;
  const Expr a = expr::bool_var("smt_amf_a");
  const Expr b = expr::bool_var("smt_amf_b");
  solver.add(a, 0);
  solver.add(b, 0);
  // Both hold at frame 0, but the bound constrains frame 1 only.
  const std::vector<Expr> lits{a, b};
  solver.add(solver.at_most(lits, 1, 0));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_FALSE(std::get<bool>(solver.value_of(a, 1)));
  EXPECT_FALSE(std::get<bool>(solver.value_of(b, 1)));
  solver.add(solver.at_most(lits, 0, 1));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

TEST(Solver, CheckAssumingAndUnsatCore) {
  Solver solver;
  const Expr x = expr::int_var("smt_core", 0, 10);
  solver.add(expr::mk_le(x, expr::int_const(5)), 0);
  const z3::expr a1 = solver.fresh_bool("a1");
  const z3::expr a2 = solver.fresh_bool("a2");
  solver.add(z3::implies(a1, solver.translate(expr::mk_eq(x, expr::int_const(9)), 0)));
  solver.add(z3::implies(a2, solver.translate(expr::mk_eq(x, expr::int_const(3)), 0)));
  std::vector<z3::expr> assumptions{a1, a2};
  ASSERT_EQ(solver.check_assuming(assumptions), CheckResult::kUnsat);
  const auto core = solver.unsat_core();
  ASSERT_GE(core.size(), 1u);
  // a1 (x = 9 vs x <= 5) must be in the core; a2 alone is satisfiable.
  bool a1_in_core = false;
  for (const z3::expr& c : core)
    if (z3::eq(c, a1)) a1_in_core = true;
  EXPECT_TRUE(a1_in_core);

  std::vector<z3::expr> only_a2{a2};
  EXPECT_EQ(solver.check_assuming(only_a2), CheckResult::kSat);
}

// The session pattern: one unrolling, N "properties" behind activation
// literals, each checked independently through check_assuming without
// push/pop and without interfering with the others.
TEST(Solver, CheckAssumingIsolatesActivationLiterals) {
  Solver solver;
  const Expr x = expr::int_var("smt_act", 0, 10);
  solver.add(expr::mk_le(x, expr::int_const(5)), 0);

  const z3::expr wants_nine = solver.fresh_bool("p0");
  const z3::expr wants_three = solver.fresh_bool("p1");
  const z3::expr wants_positive = solver.fresh_bool("p2");
  solver.add(z3::implies(wants_nine,
                         solver.translate(expr::mk_eq(x, expr::int_const(9)), 0)));
  solver.add(z3::implies(wants_three,
                         solver.translate(expr::mk_eq(x, expr::int_const(3)), 0)));
  solver.add(z3::implies(wants_positive,
                         solver.translate(expr::mk_lt(expr::int_const(0), x), 0)));

  std::vector<z3::expr> a{wants_nine};
  EXPECT_EQ(solver.check_assuming(a), CheckResult::kUnsat);
  a = {wants_three};
  ASSERT_EQ(solver.check_assuming(a), CheckResult::kSat);
  EXPECT_EQ(std::get<std::int64_t>(solver.value_of(x, 0)), 3);
  a = {wants_three, wants_positive};
  EXPECT_EQ(solver.check_assuming(a), CheckResult::kSat);
  // The earlier unsat check must not have poisoned the solver state.
  a = {wants_nine, wants_positive};
  EXPECT_EQ(solver.check_assuming(a), CheckResult::kUnsat);
  const auto core = solver.unsat_core();
  bool nine_in_core = false;
  for (const z3::expr& c : core)
    if (z3::eq(c, wants_nine)) nine_in_core = true;
  EXPECT_TRUE(nine_in_core);
  // wants_positive is individually satisfiable and must not be required:
  // a minimal core for {nine, positive} is {nine} alone.
  for (const z3::expr& c : core) EXPECT_FALSE(z3::eq(c, wants_three));
}

// refine_real_model under accumulated assumptions: the pins it tries (and
// the final re-check) must hold the caller's base assumptions, otherwise the
// refined model may abandon the activated property's constraint.
TEST(Solver, RefineRealModelHonorsBaseAssumptions) {
  Solver solver;
  const Expr r = expr::real_var("smt_refb");
  const z3::expr big = solver.fresh_bool("big");
  const z3::expr small = solver.fresh_bool("small");
  solver.add(z3::implies(
      big, solver.translate(expr::mk_lt(expr::int_const(10), r), 0)));
  solver.add(z3::implies(
      small, solver.translate(expr::mk_lt(r, expr::int_const(1)), 0)));

  std::vector<z3::expr> assume_big{big};
  ASSERT_EQ(solver.check_assuming(assume_big), CheckResult::kSat);
  ASSERT_TRUE(solver.refine_real_model(std::vector<Expr>{r}, 0,
                                       util::Deadline::never(), assume_big));
  // Without the base assumption the refinement would happily pin r = 0.
  const util::Rational v = std::get<util::Rational>(solver.value_of(r, 0));
  EXPECT_TRUE(util::Rational(10) < v) << v.str();

  // Same solver, other property: the base assumptions swap cleanly.
  std::vector<z3::expr> assume_small{small};
  ASSERT_EQ(solver.check_assuming(assume_small), CheckResult::kSat);
  ASSERT_TRUE(solver.refine_real_model(std::vector<Expr>{r}, 0,
                                       util::Deadline::never(), assume_small));
  const util::Rational w = std::get<util::Rational>(solver.value_of(r, 0));
  EXPECT_TRUE(w < util::Rational(1)) << w.str();
}

// num_assertions is the encoding-cost instrumentation behind
// core::Stats::frame_assertions; both add() overloads must count.
TEST(Solver, NumAssertionsCountsBothAddOverloads) {
  Solver solver;
  EXPECT_EQ(solver.num_assertions(), 0u);
  const Expr x = expr::int_var("smt_na", 0, 10);
  solver.add(expr::mk_le(x, expr::int_const(5)), 0);
  EXPECT_EQ(solver.num_assertions(), 1u);
  solver.add(solver.fresh_bool("na_lit"));
  EXPECT_EQ(solver.num_assertions(), 2u);
}

TEST(Solver, StateExtraction) {
  Solver solver;
  const Expr x = expr::int_var("smt_st_x", 0, 10);
  const Expr b = expr::bool_var("smt_st_b");
  solver.add(expr::mk_eq(x, expr::int_const(4)), 2);
  solver.add(b, 2);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  const std::vector<Expr> vars{x, b};
  const ts::State state = solver.state_at(vars, 2);
  EXPECT_EQ(std::get<std::int64_t>(*state.get(x)), 4);
  EXPECT_TRUE(std::get<bool>(*state.get(b)));
}

TEST(Solver, RefineRealModelPinsSimpleValues) {
  Solver solver;
  const Expr r = expr::real_var("smt_ref");
  // Any r > 1/3 works; refinement should land on a simple candidate.
  solver.add(expr::mk_lt(expr::real_const(util::Rational(1, 3)), r), 0);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  const std::vector<Expr> vars{r};
  ASSERT_TRUE(solver.refine_real_model(vars, 0));
  const util::Rational v = std::get<util::Rational>(solver.value_of(r, 0));
  EXPECT_TRUE(v == util::Rational(1) || v == util::Rational(2) ||
              v == util::Rational(1, 2))
      << v.str();
}

TEST(Solver, ValueOfWithoutModelThrows) {
  Solver solver;
  const Expr x = expr::int_var("smt_nm", 0, 10);
  EXPECT_THROW((void)solver.value_of(x, 0), std::logic_error);
}

TEST(Solver, DivisionTranslates) {
  Solver solver;
  const Expr r = expr::real_var("smt_div");
  const Expr s = expr::real_var("smt_div2");
  solver.add(expr::mk_lt(expr::real_const(util::Rational(0)), s), 0);
  solver.add(expr::mk_eq(mk_div(r, s), expr::real_const(util::Rational(2))), 0);
  solver.add(expr::mk_eq(s, expr::real_const(util::Rational(3))), 0);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(std::get<util::Rational>(solver.value_of(r, 0)), util::Rational(6));
}

}  // namespace
}  // namespace verdict::smt
