// Optimization-pipeline unit tests (src/opt, src/expr/simplify).
//
// Three layers: (1) expr::Simplifier — constant folding, bounds-based
// comparison folding, idempotence, and a randomized eval-equivalence sweep
// that checks simplify() against the exact evaluator on in-range
// environments; (2) the opt:: passes in isolation — constant propagation
// detects the three pin shapes, slicing computes the co-occurrence closure
// over a diamond dependency; (3) the round trip — a sliced counterexample
// produced through core::check must replay on the ORIGINAL system.
//
// Variable names use unique prefixes per test: the expr arena is
// process-global, so a name maps to one VarId for the test binary's lifetime.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bdd/checker.h"
#include "core/checker.h"
#include "core/session.h"
#include "expr/eval.h"
#include "expr/simplify.h"
#include "ltl/ltl.h"
#include "obs/trace.h"
#include "opt/optimize.h"
#include "ts/transition_system.h"

namespace verdict {
namespace {

using expr::Expr;

// Deterministic PRNG (identical runs across machines).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint32_t next(std::uint32_t bound) {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state_ >> 33) % bound;
  }

 private:
  std::uint64_t state_;
};

// --- expr::Simplifier -------------------------------------------------------

TEST(Simplify, FoldsConstantArithmetic) {
  const Expr e = (expr::int_const(1) + expr::int_const(2)) * expr::int_const(3);
  const Expr s = expr::simplify(e);
  ASSERT_TRUE(s.is_constant());
  EXPECT_EQ(s.str(), expr::int_const(9).str());
}

TEST(Simplify, FoldsComparisonsByDeclaredBounds) {
  const Expr x = expr::int_var("simp_b_x", 0, 3);
  const Expr y = expr::int_var("simp_b_y", 0, 3);

  // x + y <= 6 holds for every in-range state; x < 0 and x == 7 for none.
  EXPECT_TRUE(expr::simplify(x + y <= 6).is(expr::bool_const(true)));
  EXPECT_TRUE(expr::simplify(x < 0).is(expr::bool_const(false)));
  EXPECT_TRUE(expr::simplify(x == 7).is(expr::bool_const(false)));
  // Undecided by bounds: unchanged shape, still a comparison.
  EXPECT_FALSE(expr::simplify(x < 2).is_constant());
  // Interval arithmetic composes through ite.
  const Expr z = expr::ite(x < 2, x, y + 1);  // range [0, 4]
  EXPECT_TRUE(expr::simplify(z <= 4).is(expr::bool_const(true)));
}

TEST(Simplify, BoundsOfCompositeTerms) {
  const Expr x = expr::int_var("simp_i_x", 0, 3);
  const Expr y = expr::int_var("simp_i_y", 2, 5);
  const auto b = expr::int_bounds(x * y + 1);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, (expr::Interval{1, 16}));
  // Unbounded variables have no derivable interval.
  EXPECT_FALSE(expr::int_bounds(expr::int_var("simp_i_free")).has_value());
}

// Random boolean/integer expression over two bounded ints and a bool.
Expr random_expr(Rng& rng, Expr x, Expr y, Expr b, int depth) {
  if (depth == 0) {
    switch (rng.next(4)) {
      case 0:
        return x;
      case 1:
        return y;
      case 2:
        return expr::int_const(static_cast<std::int64_t>(rng.next(5)) - 1);
      default:
        return expr::ite(b, x, y);
    }
  }
  const Expr a1 = random_expr(rng, x, y, b, depth - 1);
  const Expr a2 = random_expr(rng, x, y, b, depth - 1);
  switch (rng.next(6)) {
    case 0:
      return a1 + a2;
    case 1:
      return a1 * a2;
    case 2:
      return expr::mk_min(a1, a2);
    case 3:
      return expr::mk_max(a1, a2);
    default:
      return expr::ite(expr::mk_le(a1, a2), a1, a2);
  }
}

TEST(Simplify, RandomizedEvalEquivalenceAndIdempotence) {
  const Expr x = expr::int_var("simp_r_x", 0, 3);
  const Expr y = expr::int_var("simp_r_y", 0, 3);
  const Expr b = expr::bool_var("simp_r_b");
  Rng rng(20260806);

  for (int round = 0; round < 200; ++round) {
    const Expr num = random_expr(rng, x, y, b, 3);
    // Exercise the comparison-folding path too, as a boolean root.
    const Expr e = rng.next(2) ? expr::mk_le(num, random_expr(rng, x, y, b, 2))
                               : num;
    expr::Simplifier simplifier;
    const Expr s = simplifier.simplify(e);
    // Idempotence: a second pass is a no-op.
    EXPECT_TRUE(simplifier.simplify(s).is(s)) << e.str();
    EXPECT_TRUE(expr::simplify(s).is(s)) << e.str();
    // Eval-equivalence on every in-range environment shape.
    for (int trial = 0; trial < 8; ++trial) {
      expr::Env env;
      env.set(x, expr::Value(static_cast<std::int64_t>(rng.next(4))));
      env.set(y, expr::Value(static_cast<std::int64_t>(rng.next(4))));
      env.set(b, expr::Value(rng.next(2) == 1));
      EXPECT_EQ(expr::eval(e, env), expr::eval(s, env))
          << e.str() << " vs " << s.str();
    }
  }
}

// --- opt:: passes -----------------------------------------------------------

TEST(Optimize, PropagatesAllThreePinShapes) {
  const Expr p = expr::int_var("opt_cp_p", 0, 4);       // pinned parameter
  const Expr inv = expr::int_var("opt_cp_inv", 0, 4);   // invar-pinned var
  const Expr frz = expr::int_var("opt_cp_frz", 0, 4);   // init + identity
  const Expr x = expr::int_var("opt_cp_x", 0, 4);       // genuinely dynamic

  ts::TransitionSystem ts;
  ts.add_param(p);
  ts.add_var(inv);
  ts.add_var(frz);
  ts.add_var(x);
  ts.add_param_constraint(p == 3);
  ts.add_invar(inv == 2);
  ts.add_init(frz == 1);
  ts.add_init(x == 0);
  ts.add_trans(expr::next(frz) == frz);
  ts.add_trans(expr::next(inv) == inv);
  ts.add_trans(expr::mk_eq(expr::next(x), expr::mk_min(x + p, expr::int_const(4))));

  // After substituting p=3, inv=2, frz=1 this becomes x < 4 — still a real
  // residual over x (x's range is [0,4]), so x must survive all passes.
  const opt::Optimized o =
      opt::optimize_invariant(ts, expr::mk_lt(x + inv + frz, p + 4), {});
  EXPECT_TRUE(o.changed());
  // All three constants were detected; only x remains dynamic.
  EXPECT_EQ(o.system.vars().size(), 1u);
  EXPECT_TRUE(o.system.params().empty());
  EXPECT_GE(o.constants_propagated, 3u);

  // keep_params must leave the parameter (and its constraint) alone.
  opt::OptimizeOptions keep;
  keep.keep_params = true;
  const opt::Optimized kept =
      opt::optimize_invariant(ts, expr::mk_lt(x + inv + frz, p + 4), keep);
  EXPECT_EQ(kept.system.params().size(), 1u);
}

TEST(Optimize, DiamondCoiClosure) {
  // Diamond: prop -> d; next(d) reads b and c; both read a. An unrelated
  // two-variable component (z1 <-> z2) must be sliced away — and the closure
  // must keep ALL of a, b, c, d (dropping a would change b and c).
  const Expr a = expr::int_var("opt_coi_a", 0, 3);
  const Expr b = expr::int_var("opt_coi_b", 0, 3);
  const Expr c = expr::int_var("opt_coi_c", 0, 3);
  const Expr d = expr::int_var("opt_coi_d", 0, 3);
  const Expr z1 = expr::int_var("opt_coi_z1", 0, 3);
  const Expr z2 = expr::int_var("opt_coi_z2", 0, 3);

  ts::TransitionSystem ts;
  for (Expr v : {a, b, c, d, z1, z2}) ts.add_var(v);
  ts.add_init(a == 1);
  ts.add_init(b == 0);
  ts.add_init(c == 0);
  ts.add_init(d == 0);
  ts.add_init(z1 == 0);
  ts.add_init(z2 == 3);
  ts.add_trans(expr::mk_eq(expr::next(a), expr::mk_max(a - 1, expr::int_const(0))));
  ts.add_trans(expr::mk_eq(expr::next(b), expr::mk_min(a + 1, expr::int_const(3))));
  ts.add_trans(expr::mk_eq(expr::next(c), expr::mk_max(a, c)));
  ts.add_trans(expr::mk_eq(expr::next(d), expr::mk_min(b + c, expr::int_const(3))));
  ts.add_trans(expr::next(z1) == z2);
  ts.add_trans(expr::next(z2) == z1);

  const opt::Optimized o = opt::optimize_invariant(ts, expr::mk_le(d, expr::int_const(3)), {});
  // d <= 3 folds to true by bounds, so seed the cone through a non-foldable
  // property instead.
  const opt::Optimized o2 = opt::optimize_invariant(ts, d < 3, {});
  EXPECT_TRUE(o2.changed());
  EXPECT_EQ(o2.system.vars().size(), 4u) << "cone must be exactly {a,b,c,d}";
  ASSERT_EQ(o2.dropped_vars.size(), 2u);
  EXPECT_EQ(o2.vars_removed, 2u);
  // The dropped component retains its own constraints for lift_trace.
  EXPECT_FALSE(o2.dropped.vars().empty());
  (void)o;
}

TEST(Optimize, UnchangedSystemReportsNoChange) {
  // Nothing foldable, nothing pinned, cone covers everything.
  const Expr x = expr::int_var("opt_nc_x", 0, 3);
  ts::TransitionSystem ts;
  ts.add_var(x);
  ts.add_init(x == 0);
  ts.add_trans(expr::mk_eq(expr::next(x), expr::mk_min(x + 1, expr::int_const(3))));
  const opt::Optimized o = opt::optimize_invariant(ts, x < 3, {});
  EXPECT_FALSE(o.changed());
}

TEST(Optimize, PipelineIsIdempotent) {
  // Re-running the pipeline on its own output must be a fixpoint.
  const Expr x = expr::int_var("opt_fix_x", 0, 3);
  const Expr z = expr::int_var("opt_fix_z", 0, 3);
  const Expr k = expr::int_var("opt_fix_k", 0, 4);
  ts::TransitionSystem ts;
  ts.add_param(k);
  ts.add_var(x);
  ts.add_var(z);
  ts.add_param_constraint(k == 2);
  ts.add_init(x == 0);
  ts.add_init(z == 0);
  ts.add_trans(expr::mk_eq(expr::next(x), expr::mk_min(x + k, expr::int_const(3))));
  ts.add_trans(expr::mk_eq(expr::next(z), expr::mk_min(z + 1, expr::int_const(3))));

  const opt::Optimized once = opt::optimize_invariant(ts, x < 3, {});
  ASSERT_TRUE(once.changed());
  const opt::Optimized twice =
      opt::optimize(once.system, std::span<const ltl::Formula>(once.properties), {});
  EXPECT_FALSE(twice.changed());
}

// --- Slice + lift round trip through core::check ----------------------------

TEST(Optimize, SlicedCounterexampleReplaysOnOriginalSystem) {
  // x counts up and violates x < 3 at depth 3; z is an independent idle
  // component the slicer removes. The counterexample handed back by
  // core::check must be a complete execution of the ORIGINAL system,
  // including in-range z values satisfying z's own constraints.
  const Expr x = expr::int_var("opt_rt_x", 0, 3);
  const Expr z = expr::int_var("opt_rt_z", 0, 3);
  ts::TransitionSystem ts;
  ts.add_var(x);
  ts.add_var(z);
  ts.add_init(x == 0);
  ts.add_init(z == 2);
  ts.add_trans(expr::mk_eq(expr::next(x), expr::mk_min(x + 1, expr::int_const(3))));
  ts.add_trans(expr::mk_eq(expr::next(z), expr::ite(z == 2, expr::int_const(1),
                                                    expr::int_const(2))));

  const ltl::Formula property = ltl::G(ltl::atom(x < 3));
  core::CheckOptions options;
  options.engine = core::Engine::kBmc;
  options.max_depth = 10;
  ASSERT_TRUE(options.optimize) << "optimization must default on";

  const core::CheckOutcome outcome = core::check(ts, property, options);
  ASSERT_EQ(outcome.verdict, core::Verdict::kViolated);
  ASSERT_TRUE(outcome.counterexample.has_value());
  std::string error;
  EXPECT_TRUE(core::confirm_counterexample(ts, property, outcome, &error)) << error;
  // The lifted trace binds the sliced-away variable in every state.
  for (const ts::State& s : outcome.counterexample->states)
    EXPECT_TRUE(s.get(z).has_value());
}

TEST(Optimize, LiftRejectsInfeasibleDroppedComponent) {
  // The dropped component deadlocks after one step (no successor for z == 1),
  // so a 4-state sliced trace cannot be completed: lift_trace must say so
  // rather than fabricate a non-execution.
  const Expr x = expr::int_var("opt_lf_x", 0, 3);
  const Expr z = expr::int_var("opt_lf_z", 0, 3);
  ts::TransitionSystem ts;
  ts.add_var(x);
  ts.add_var(z);
  ts.add_init(x == 0);
  ts.add_init(z == 0);
  ts.add_trans(expr::mk_eq(expr::next(x), expr::mk_min(x + 1, expr::int_const(3))));
  ts.add_trans(expr::mk_and({expr::next(z) == z + 1, z < 1}));

  const opt::Optimized o = opt::optimize_invariant(ts, x < 3, {});
  ASSERT_TRUE(o.changed());
  ASSERT_EQ(o.dropped_vars.size(), 1u);

  // A 4-state trace of the sliced system (x: 0 1 2 3).
  ts::Trace trace;
  for (std::int64_t v = 0; v <= 3; ++v) {
    ts::State s;
    s.set(x, expr::Value(v));
    trace.states.push_back(s);
  }
  ts::Trace liftable = trace;
  EXPECT_FALSE(o.lift_trace(liftable));

  // core::check still decides correctly: the x-violation is real in the full
  // system only if the whole system can run 4 steps; it cannot, so the
  // fallback re-check on the original system must conclude the property
  // CANNOT be violated at depth >= 3 (the composed system deadlocks first).
  core::CheckOptions options;
  options.engine = core::Engine::kBmc;
  options.max_depth = 10;
  const core::CheckOutcome outcome = core::check(ts, ltl::G(ltl::atom(x < 3)), options);
  core::CheckOptions unopt = options;
  unopt.optimize = false;
  const core::CheckOutcome reference = core::check(ts, ltl::G(ltl::atom(x < 3)), unopt);
  EXPECT_EQ(outcome.verdict, reference.verdict);
  if (outcome.verdict == core::Verdict::kViolated) {
    std::string error;
    EXPECT_TRUE(
        core::confirm_counterexample(ts, ltl::G(ltl::atom(x < 3)), outcome, &error))
        << error;
  }

  // Every entry point shares the re-decide rule: the BDD engine and a kBmc
  // batch session reach their unoptimized reference verdicts too.
  bdd::BddOptions bdd_unopt;
  bdd_unopt.optimize = false;
  EXPECT_EQ(bdd::check_invariant_bdd(ts, x < 3).verdict,
            bdd::check_invariant_bdd(ts, x < 3, bdd_unopt).verdict);
  core::Session session(ts);
  session.add_property("x_lt_3", ltl::G(ltl::atom(x < 3)));
  core::SessionOptions session_options;
  session_options.engine = core::Engine::kBmc;
  session_options.max_depth = 10;
  const core::SessionResult batch = session.check_all(session_options);
  EXPECT_EQ(batch.properties.front().outcome.verdict, reference.verdict);
}

TEST(Optimize, LiftRespectsDeclaredRangesInDeterministicExtraction) {
  // The dropped counter has NO clamp or guard: only its declared range
  // int[0,3] stops it, by deadlock after 4 states (engines conjoin
  // range_invariant; the constraint lists never repeat it). The
  // deterministic-extraction fast path must bounds-check the values it
  // computes, or it would happily walk v = 4, 5, ... and lift a witness
  // longer than the dropped component can actually run.
  const Expr x = expr::int_var("opt_rng_x", 0, 9);
  const Expr v = expr::int_var("opt_rng_v", 0, 3);
  ts::TransitionSystem ts;
  ts.add_var(x);
  ts.add_var(v);
  ts.add_init(x == 0);
  ts.add_init(v == 0);
  ts.add_trans(expr::mk_eq(expr::next(x), expr::mk_min(x + 1, expr::int_const(9))));
  ts.add_trans(expr::mk_eq(expr::next(v), v + 1));  // unclamped on purpose

  const ltl::Formula prop = ltl::G(ltl::atom(x < 6));
  const opt::Optimized o = opt::optimize(ts, prop, {});
  ASSERT_TRUE(o.changed());
  ASSERT_EQ(o.dropped_vars.size(), 1u);

  // A 7-state sliced trace (x: 0..6) reaches the violation, but the dropped
  // counter deadlocks after 4 states: the lift must refuse, never emit
  // out-of-range values for v.
  ts::Trace trace;
  for (std::int64_t i = 0; i <= 6; ++i) {
    ts::State s;
    s.set(x, expr::Value(i));
    trace.states.push_back(s);
  }
  EXPECT_FALSE(o.lift_trace(trace));

  // End-to-end parity: the optimized check falls back to the original system
  // (where the composed run deadlocks before x reaches 6) and must agree
  // with the unoptimized verdict; any reported violation must be a genuine
  // execution, declared ranges included.
  core::CheckOptions options;
  options.engine = core::Engine::kBmc;
  options.max_depth = 10;
  const core::CheckOutcome outcome = core::check(ts, prop, options);
  core::CheckOptions unopt = options;
  unopt.optimize = false;
  const core::CheckOutcome reference = core::check(ts, prop, unopt);
  EXPECT_EQ(outcome.verdict, reference.verdict);
  EXPECT_NE(outcome.verdict, core::Verdict::kViolated);
  if (outcome.counterexample) {
    std::string error;
    EXPECT_TRUE(ts.trace_conforms(*outcome.counterexample, &error)) << error;
  }
}

TEST(Optimize, ConstpropRejectsOutOfRangePinsWithoutFold) {
  // invar v == 10 over v:int[0,3] contradicts the declared range: the system
  // has no reachable states, so every safety property holds vacuously. With
  // folding disabled (a legal public-API combination), constprop must not
  // substitute the pin away — that would drop the contradiction together
  // with v's range constraint and make the system satisfiable. It rewrites
  // the conjunct to false instead.
  const Expr v = expr::int_var("opt_oor_v", 0, 3);
  const Expr w = expr::int_var("opt_oor_w", 0, 3);
  ts::TransitionSystem ts;
  ts.add_var(v);
  ts.add_var(w);
  ts.add_init(w == 0);
  ts.add_trans(expr::mk_eq(expr::next(w), w));
  ts.add_invar(v == 10);

  opt::OptimizeOptions options;
  options.fold = false;
  const ltl::Formula prop = ltl::G(ltl::atom(w != 0));
  const opt::Optimized o = opt::optimize(ts, prop, options);
  for (const auto& [var, value] : o.propagated_vars)
    EXPECT_NE(var.var(), v.var()) << "out-of-range pin must not propagate";

  core::CheckOptions check;
  check.engine = core::Engine::kExplicit;
  check.optimize = false;
  EXPECT_EQ(core::check(ts, prop, check).verdict, core::Verdict::kHolds);
  const ts::TransitionSystem& sys = o.changed() ? o.system : ts;
  const ltl::Formula& rewritten = o.properties.front();
  EXPECT_EQ(core::check(sys, rewritten, check).verdict, core::Verdict::kHolds);
}

TEST(Optimize, ConstpropRevertsWhenSubstitutionCannotFold) {
  // q is pinned, but substituting q=2 folds nothing: the pin is already a
  // unit constraint for the backends, so the pipeline must revert the
  // propagation rather than churn the (canonically id-ordered) formulas.
  const Expr q = expr::int_var("opt_gate_q", 0, 4);
  const Expr x = expr::int_var("opt_gate_x", 0, 5);
  ts::TransitionSystem ts;
  ts.add_param(q);
  ts.add_var(x);
  ts.add_param_constraint(q == 2);
  ts.add_init(x == 0);
  ts.add_trans(expr::mk_eq(expr::next(x), expr::mk_min(x + q, expr::int_const(5))));

  const opt::Optimized o = opt::optimize_invariant(ts, x < q, {});
  EXPECT_EQ(o.constants_propagated, 0u);
  EXPECT_EQ(o.system.params().size(), 1u) << "pinned param must survive the gate";
  EXPECT_FALSE(o.changed());
}

TEST(Optimize, DeterministicExtractionLiftsLargeRing) {
  // The dropped component is a 64-cell deterministic chasing ring — far past
  // any per-state enumeration budget (4^64 candidate states), but every cell
  // has a defining equation, so lift_trace must reconstruct it by evaluation
  // without ever calling a solver.
  const Expr x = expr::int_var("opt_ring_x", 0, 3);
  ts::TransitionSystem ts;
  ts.add_var(x);
  ts.add_init(x == 0);
  ts.add_trans(expr::mk_eq(expr::next(x), expr::mk_min(x + 1, expr::int_const(3))));
  std::vector<Expr> cells;
  for (int i = 0; i < 64; ++i)
    cells.push_back(expr::int_var("opt_ring_c" + std::to_string(i), 0, 3));
  for (int i = 0; i < 64; ++i) {
    ts.add_var(cells[static_cast<std::size_t>(i)]);
    ts.add_init(cells[static_cast<std::size_t>(i)] == (i % 4));
    const Expr cell = cells[static_cast<std::size_t>(i)];
    const Expr left = cells[static_cast<std::size_t>((i + 63) % 64)];
    ts.add_trans(expr::mk_eq(
        expr::next(cell),
        expr::ite(cell == left, expr::ite(cell < 3, cell + 1, expr::int_const(0)),
                  left)));
  }

  const opt::Optimized o = opt::optimize_invariant(ts, x < 3, {});
  ASSERT_TRUE(o.changed());
  ASSERT_EQ(o.dropped_vars.size(), 64u);

  ts::Trace trace;
  for (std::int64_t v = 0; v <= 3; ++v) {
    ts::State s;
    s.set(x, expr::Value(v));
    trace.states.push_back(s);
  }
  ASSERT_TRUE(o.lift_trace(trace));
  std::string error;
  EXPECT_TRUE(ts.trace_conforms(trace, &error)) << error;
}

TEST(Optimize, SolverLiftCompletesNondeterministicComponent) {
  // The dropped component is 16 counters that each may advance or hold on
  // every step: 2^16 successor candidates per state defeats the explicit
  // walk, and a disjunctive transition has no defining equation to extract —
  // so core::lift_counterexample must fall back to its BMC-based completion.
  const Expr x = expr::int_var("opt_sl_x", 0, 3);
  ts::TransitionSystem ts;
  ts.add_var(x);
  ts.add_init(x == 0);
  ts.add_trans(expr::mk_eq(expr::next(x), expr::mk_min(x + 1, expr::int_const(3))));
  std::vector<Expr> ws;
  for (int i = 0; i < 16; ++i)
    ws.push_back(expr::int_var("opt_sl_w" + std::to_string(i), 0, 3));
  for (const Expr w : ws) {
    ts.add_var(w);
    ts.add_init(w == 0);
    ts.add_trans(expr::mk_or(
        {expr::next(w) == w,
         expr::mk_eq(expr::next(w), expr::mk_min(w + 1, expr::int_const(3)))}));
  }

  const opt::Optimized o = opt::optimize_invariant(ts, x < 3, {});
  ASSERT_TRUE(o.changed());
  ASSERT_EQ(o.dropped_vars.size(), 16u);

  ts::Trace trace;
  for (std::int64_t v = 0; v <= 3; ++v) {
    ts::State s;
    s.set(x, expr::Value(v));
    trace.states.push_back(s);
  }
  ts::Trace explicit_only = trace;
  EXPECT_FALSE(o.lift_trace(explicit_only)) << "budget must stop the explicit walk";

  const std::uint64_t lifts_before = obs::counters_snapshot()["opt.solver_lifts"];
  ASSERT_TRUE(
      core::lift_counterexample(o, trace, util::Deadline::after_seconds(30)));
  EXPECT_EQ(obs::counters_snapshot()["opt.solver_lifts"], lifts_before + 1);
  std::string error;
  EXPECT_TRUE(ts.trace_conforms(trace, &error)) << error;
}

}  // namespace
}  // namespace verdict
