// Engine cross-check property tests.
//
// The deepest confidence layer of the suite: random finite-domain transition
// systems are generated and every engine must agree with the explicit-state
// oracle — BMC and BDD reachability on violation/absence, k-induction and PDR
// on proofs, and the lasso LTL engine against the concrete lasso evaluator.
#include <gtest/gtest.h>

#include "bdd/checker.h"
#include "core/bmc.h"
#include "core/checker.h"
#include "core/explicit.h"
#include "core/kinduction.h"
#include "core/liveness.h"
#include "core/pdr.h"
#include "core/session.h"
#include "core/synth.h"
#include "ltl/trace_eval.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "portfolio/lemma_bus.h"
#include "portfolio/par_synth.h"
#include "portfolio/portfolio.h"
#include "scenarios/k8s_loops.h"
#include "scenarios/rollout_partition.h"

namespace verdict {
namespace {

using core::Verdict;
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

// A random system over two small ints and one bool: random guarded updates.
struct RandomSystem {
  ts::TransitionSystem ts;
  Expr x, y, b;
};

RandomSystem make_random_system(int id, Rng& rng) {
  RandomSystem out;
  const std::string p = "rnd" + std::to_string(id);
  out.x = expr::int_var(p + "_x", 0, 3);
  out.y = expr::int_var(p + "_y", 0, 3);
  out.b = expr::bool_var(p + "_b");
  out.ts.add_var(out.x);
  out.ts.add_var(out.y);
  out.ts.add_var(out.b);
  out.ts.add_init(expr::mk_eq(out.x, expr::int_const(rng.next(2))));
  out.ts.add_init(expr::mk_eq(out.y, expr::int_const(0)));
  out.ts.add_init(rng.next(2) ? out.b : expr::mk_not(out.b));

  // Random atom generator.
  const auto atom = [&]() -> Expr {
    switch (rng.next(4)) {
      case 0:
        return expr::mk_lt(out.x, expr::int_const(rng.next(4)));
      case 1:
        return expr::mk_eq(out.y, expr::int_const(rng.next(4)));
      case 2:
        return out.b;
      default:
        return expr::mk_le(out.x, out.y);
    }
  };
  // Random bounded int update.
  const auto update = [&](Expr v) -> Expr {
    switch (rng.next(4)) {
      case 0:
        return expr::mk_min(v + 1, expr::int_const(3));
      case 1:
        return expr::mk_max(v - 1, expr::int_const(0));
      case 2:
        return expr::int_const(rng.next(4));
      default:
        return v;
    }
  };
  // Transition: two guarded alternatives (nondeterministic choice).
  std::vector<Expr> branches;
  for (int branch = 0; branch < 2; ++branch) {
    branches.push_back(expr::mk_and(
        {expr::mk_eq(expr::next(out.x), expr::ite(atom(), update(out.x), update(out.x))),
         expr::mk_eq(expr::next(out.y), update(out.y)),
         expr::mk_eq(expr::next(out.b),
                     rng.next(2) ? expr::mk_not(out.b) : atom())}));
  }
  out.ts.add_trans(expr::any_of(branches));
  return out;
}

class RandomSystemCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(RandomSystemCrossCheck, AllEnginesAgreeOnInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const RandomSystem sys = make_random_system(GetParam(), rng);

  // A few candidate invariants of varying strength.
  const std::vector<Expr> invariants = {
      expr::mk_le(sys.x + sys.y, expr::int_const(6)),       // always true (range)
      expr::mk_lt(sys.x, expr::int_const(3)),
      expr::mk_or({sys.b, expr::mk_le(sys.y, expr::int_const(2))}),
      expr::mk_not(expr::mk_and({expr::mk_eq(sys.x, expr::int_const(3)),
                                 expr::mk_eq(sys.y, expr::int_const(3))})),
  };

  for (const Expr& invariant : invariants) {
    const auto oracle = core::check_invariant_explicit(sys.ts, invariant);
    ASSERT_TRUE(oracle.verdict == Verdict::kHolds || oracle.verdict == Verdict::kViolated);
    const bool holds = oracle.verdict == Verdict::kHolds;

    // BMC: must find every violation within the diameter (<= 32 states).
    const auto bmc = core::check_invariant_bmc(sys.ts, invariant, {.max_depth = 40});
    EXPECT_EQ(bmc.verdict == Verdict::kViolated, !holds)
        << "BMC disagrees with oracle on " << invariant.str();
    if (bmc.counterexample) {
      std::string error;
      EXPECT_TRUE(sys.ts.trace_conforms(*bmc.counterexample, &error)) << error;
    }

    // k-induction (complete on finite domains with simple-path).
    const auto kind = core::check_invariant_kinduction(sys.ts, invariant, {.max_k = 40});
    EXPECT_EQ(kind.verdict, holds ? Verdict::kHolds : Verdict::kViolated)
        << "k-induction disagrees on " << invariant.str();

    // PDR.
    const auto pdr = core::check_invariant_pdr(sys.ts, invariant);
    EXPECT_EQ(pdr.verdict, holds ? Verdict::kHolds : Verdict::kViolated)
        << "PDR disagrees on " << invariant.str();

    // BDD reachability.
    const auto bdd = bdd::check_invariant_bdd(sys.ts, invariant);
    EXPECT_EQ(bdd.verdict, holds ? Verdict::kHolds : Verdict::kViolated)
        << "BDD disagrees on " << invariant.str();
    if (!holds && bdd.counterexample && oracle.counterexample) {
      // Both BFS-based engines find shortest counterexamples.
      EXPECT_EQ(bdd.counterexample->states.size(), oracle.counterexample->states.size());
    }
  }
}

TEST_P(RandomSystemCrossCheck, BddCtlAgreesWithExplicitCtl) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const RandomSystem sys = make_random_system(1000 + GetParam(), rng);

  const Expr p = expr::mk_le(sys.x, expr::int_const(1));
  const Expr q = sys.b;
  const std::vector<ltl::CtlFormula> formulas = {
      ltl::AG(ltl::ctl_atom(p)),
      ltl::EF(ltl::ctl_atom(q)),
      ltl::AF(ltl::ctl_atom(q)),
      ltl::EG(ltl::ctl_atom(p)),
      ltl::AG(ltl::EF(ltl::ctl_atom(p))),
      ltl::EU(ltl::ctl_atom(p), ltl::ctl_atom(q)),
      ltl::AU(ltl::ctl_atom(p), ltl::ctl_atom(q)),
      ltl::AX(ltl::EX(ltl::ctl_atom(q))),
  };
  for (const auto& f : formulas) {
    const auto symbolic = bdd::check_ctl_bdd(sys.ts, f);
    const auto oracle = core::check_ctl_explicit(sys.ts, f);
    EXPECT_EQ(symbolic.verdict, oracle.verdict) << f.str();
  }
}

TEST_P(RandomSystemCrossCheck, LassoCounterexamplesSatisfyNegation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 3);
  const RandomSystem sys = make_random_system(2000 + GetParam(), rng);

  const std::vector<ltl::Formula> properties = {
      ltl::F(ltl::G(ltl::atom(sys.b))),
      ltl::G(ltl::F(ltl::atom(expr::mk_eq(sys.x, expr::int_const(0))))),
      ltl::G(ltl::implies(ltl::atom(sys.b),
                          ltl::F(ltl::atom(expr::mk_eq(sys.y, expr::int_const(0)))))),
      ltl::U(ltl::atom(expr::mk_le(sys.x, expr::int_const(2))), ltl::atom(sys.b)),
  };
  for (const auto& property : properties) {
    const auto outcome = core::check_ltl_lasso(sys.ts, property, {.max_depth = 12});
    if (outcome.verdict != Verdict::kViolated) continue;
    std::string error;
    EXPECT_TRUE(core::confirm_counterexample(sys.ts, property, outcome, &error))
        << property.str() << ": " << error;
  }
}

// Batch sessions share one unrolling across properties via assumption
// literals; the sharing must be invisible in the verdicts. For every
// (engine, property) pair the session verdict must equal the one-shot
// core::check verdict, and every session counterexample must replay through
// the exact evaluator exactly like a one-shot counterexample would.
TEST_P(RandomSystemCrossCheck, SessionVerdictsMatchOneShotPerEnginePerProperty) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 90001 + 29);
  const RandomSystem sys = make_random_system(4000 + GetParam(), rng);

  // A mixed batch: three invariants (safety group) and two liveness shapes
  // (lasso group), so every sharing path in Session::check_all is exercised.
  const std::vector<ltl::Formula> properties = {
      ltl::G(ltl::atom(expr::mk_le(sys.x + sys.y, expr::int_const(6)))),
      ltl::G(ltl::atom(expr::mk_lt(sys.x, expr::int_const(3)))),
      ltl::G(ltl::atom(expr::mk_or({sys.b, expr::mk_le(sys.y, expr::int_const(2))}))),
      ltl::F(ltl::G(ltl::atom(sys.b))),
      ltl::U(ltl::atom(expr::mk_le(sys.x, expr::int_const(2))), ltl::atom(sys.b)),
  };

  for (const core::Engine engine :
       {core::Engine::kBmc, core::Engine::kKInduction, core::Engine::kLtlLasso}) {
    core::Session session(sys.ts);
    for (std::size_t i = 0; i < properties.size(); ++i)
      session.add_property("p" + std::to_string(i), properties[i]);

    core::SessionOptions batch_options;
    batch_options.engine = engine;
    batch_options.max_depth = 12;
    const auto batch = session.check_all(batch_options);

    for (std::size_t i = 0; i < properties.size(); ++i) {
      core::CheckOptions solo_options;
      solo_options.engine = engine;
      solo_options.max_depth = 12;
      const auto solo = core::check(sys.ts, properties[i], solo_options);
      const auto& outcome = batch.properties[i].outcome;
      EXPECT_EQ(outcome.verdict, solo.verdict)
          << "engine " << static_cast<int>(engine) << " on " << properties[i].str();
      if (outcome.violated()) {
        std::string error;
        EXPECT_TRUE(core::confirm_counterexample(sys.ts, properties[i], outcome, &error))
            << properties[i].str() << ": " << error;
      }
    }
  }
}

// The portfolio races BMC / k-induction / PDR on worker threads; whichever
// lane wins, the verdict must equal the explicit oracle's (and sequential
// BMC's violation-finding), and every violation trace must replay.
TEST_P(RandomSystemCrossCheck, PortfolioAgreesWithOracleAndSequentialBmc) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 50021 + 17);
  const RandomSystem sys = make_random_system(3000 + GetParam(), rng);

  const std::vector<Expr> invariants = {
      expr::mk_le(sys.x + sys.y, expr::int_const(6)),
      expr::mk_lt(sys.x, expr::int_const(3)),
      expr::mk_or({sys.b, expr::mk_le(sys.y, expr::int_const(2))}),
      expr::mk_not(expr::mk_and({expr::mk_eq(sys.x, expr::int_const(3)),
                                 expr::mk_eq(sys.y, expr::int_const(3))})),
  };

  for (const Expr& invariant : invariants) {
    const auto oracle = core::check_invariant_explicit(sys.ts, invariant);
    ASSERT_TRUE(oracle.verdict == Verdict::kHolds || oracle.verdict == Verdict::kViolated);
    const bool holds = oracle.verdict == Verdict::kHolds;

    const auto bmc = core::check_invariant_bmc(sys.ts, invariant, {.max_depth = 40});
    EXPECT_EQ(bmc.verdict == Verdict::kViolated, !holds);

    const ltl::Formula property = ltl::G(ltl::atom(invariant));
    core::CheckOptions po;
    po.engine = core::Engine::kPortfolio;
    po.max_depth = 40;
    po.jobs = 4;
    const auto pf = core::check(sys.ts, property, po);
    EXPECT_EQ(pf.verdict, holds ? Verdict::kHolds : Verdict::kViolated)
        << "portfolio disagrees with oracle on " << invariant.str() << " — "
        << core::describe(pf);
    EXPECT_EQ(pf.stats.engine.rfind("portfolio[", 0), 0u) << pf.stats.engine;
    if (pf.violated()) {
      std::string error;
      EXPECT_TRUE(core::confirm_counterexample(sys.ts, property, pf, &error)) << error;
    }
  }
}

// Cross-lane lemma sharing must be verdict-invisible. A PDR run fills a bus
// with exported clauses; BMC and k-induction then consume the full bus from
// their first depth — the worst case for interference — and must agree with
// their isolated runs on both verdict directions. BMC must also match on
// depth exactly: every exported clause holds on all reachable states, so no
// real violating trace is ever excluded and no spurious one can appear.
TEST_P(RandomSystemCrossCheck, LemmaSharingPreservesVerdicts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 90001 + 29);
  const RandomSystem sys = make_random_system(9000 + GetParam(), rng);

  const std::vector<Expr> invariants = {
      expr::mk_le(sys.x + sys.y, expr::int_const(6)),  // holds (range)
      expr::mk_lt(sys.x, expr::int_const(3)),
      expr::mk_or({sys.b, expr::mk_le(sys.y, expr::int_const(2))}),
      expr::mk_not(expr::mk_and({expr::mk_eq(sys.x, expr::int_const(3)),
                                 expr::mk_eq(sys.y, expr::int_const(3))})),
  };

  for (const Expr& invariant : invariants) {
    portfolio::LemmaBus bus;
    core::PdrOptions pdr_options;
    pdr_options.lemma_bus = &bus;
    const auto pdr = core::check_invariant_pdr(sys.ts, invariant, pdr_options);
    ASSERT_TRUE(pdr.verdict == Verdict::kHolds || pdr.verdict == Verdict::kViolated);

    // BMC: bit-identical verdict and depth with the bus fully pre-filled.
    const auto bmc_off = core::check_invariant_bmc(sys.ts, invariant, {.max_depth = 40});
    core::BmcOptions bmc_options;
    bmc_options.max_depth = 40;
    bmc_options.lemma_bus = &bus;
    const auto bmc_on = core::check_invariant_bmc(sys.ts, invariant, bmc_options);
    EXPECT_EQ(bmc_on.verdict, bmc_off.verdict)
        << "lemma sharing changed the BMC verdict on " << invariant.str();
    EXPECT_EQ(bmc_on.stats.depth_reached, bmc_off.stats.depth_reached)
        << "lemma sharing changed the BMC depth on " << invariant.str();
    if (bmc_on.counterexample) {
      std::string error;
      EXPECT_TRUE(sys.ts.trace_conforms(*bmc_on.counterexample, &error)) << error;
    }

    // k-induction: verdict preserved; a proof may only land at the same or a
    // smaller k, a violation at the identical depth.
    const auto kind_off =
        core::check_invariant_kinduction(sys.ts, invariant, {.max_k = 40});
    core::KInductionOptions kind_options;
    kind_options.max_k = 40;
    kind_options.lemma_bus = &bus;
    const auto kind_on = core::check_invariant_kinduction(sys.ts, invariant, kind_options);
    EXPECT_EQ(kind_on.verdict, kind_off.verdict)
        << "lemma sharing changed the k-induction verdict on " << invariant.str();
    if (kind_on.verdict == Verdict::kViolated) {
      EXPECT_EQ(kind_on.stats.depth_reached, kind_off.stats.depth_reached);
      ASSERT_TRUE(kind_on.counterexample.has_value());
      std::string error;
      EXPECT_TRUE(sys.ts.trace_conforms(*kind_on.counterexample, &error)) << error;
    } else {
      EXPECT_LE(kind_on.stats.depth_reached, kind_off.stats.depth_reached);
    }

    // All three engines agree with each other.
    EXPECT_EQ(bmc_on.verdict == Verdict::kViolated, pdr.verdict == Verdict::kViolated);
    EXPECT_EQ(kind_on.verdict, pdr.verdict);
  }
}

// The racing portfolio with live (mid-run, cross-thread) lemma sharing gives
// the same verdicts as with sharing disabled, on every seed and both verdict
// directions.
TEST_P(RandomSystemCrossCheck, PortfolioLemmaSharingOnOffParity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104917 + 41);
  const RandomSystem sys = make_random_system(9500 + GetParam(), rng);

  const std::vector<Expr> invariants = {
      expr::mk_lt(sys.x, expr::int_const(3)),
      expr::mk_or({sys.b, expr::mk_le(sys.y, expr::int_const(2))}),
  };
  for (const Expr& invariant : invariants) {
    const ltl::Formula property = ltl::G(ltl::atom(invariant));
    portfolio::PortfolioOptions on;
    on.max_depth = 40;
    on.jobs = 4;
    on.share_lemmas = true;
    portfolio::PortfolioOptions off = on;
    off.share_lemmas = false;
    const auto with_sharing = portfolio::check_portfolio(sys.ts, property, on);
    const auto without_sharing = portfolio::check_portfolio(sys.ts, property, off);
    EXPECT_EQ(with_sharing.verdict, without_sharing.verdict)
        << "share_lemmas flipped the portfolio verdict on " << invariant.str();
    if (with_sharing.violated()) {
      std::string error;
      EXPECT_TRUE(core::confirm_counterexample(sys.ts, property, with_sharing, &error))
          << error;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystemCrossCheck, ::testing::Range(0, 12));

// Parametric agreement: synthesis classification equals per-candidate oracle.
TEST(SynthCrossCheck, ClassificationMatchesExplicitOracle) {
  ts::TransitionSystem ts;
  const Expr x = expr::int_var("sxc_x", 0, 6);
  const Expr cap = expr::int_var("sxc_cap", 0, 6);
  ts.add_var(x);
  ts.add_param(cap);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x), expr::ite(expr::mk_lt(x, cap), x + 1, x)));
  const Expr invariant = expr::mk_le(x, expr::int_const(3));

  const auto result = core::synthesize_params(ts, invariant);
  ASSERT_TRUE(result.complete());
  for (const ts::State& candidate : result.safe) {
    ts::TransitionSystem pinned = ts;
    pinned.add_param_constraint(
        expr::mk_eq(cap, expr::constant_of(*candidate.get(cap), cap.type())));
    EXPECT_EQ(core::check_invariant_explicit(pinned, invariant).verdict, Verdict::kHolds);
  }
  for (const ts::State& candidate : result.unsafe) {
    ts::TransitionSystem pinned = ts;
    pinned.add_param_constraint(
        expr::mk_eq(cap, expr::constant_of(*candidate.get(cap), cap.type())));
    EXPECT_EQ(core::check_invariant_explicit(pinned, invariant).verdict,
              Verdict::kViolated);
  }
}

// The work-stealing driver must land on the identical classification the
// sequential driver computes (same safe/unsafe partition, same ordering).
TEST(SynthCrossCheck, ParallelMatchesSequentialClassification) {
  ts::TransitionSystem ts;
  const Expr x = expr::int_var("psxc_x", 0, 8);
  const Expr cap = expr::int_var("psxc_cap", 0, 8);
  const Expr step = expr::int_var("psxc_step", 1, 2);
  ts.add_var(x);
  ts.add_param(cap);
  ts.add_param(step);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x),
                           expr::ite(expr::mk_lt(x, cap), expr::mk_min(x + step, cap), x)));
  const Expr invariant = expr::mk_le(x, expr::int_const(4));

  const auto sequential = core::synthesize_params(ts, invariant);
  ASSERT_TRUE(sequential.complete());

  core::SynthOptions options;
  options.jobs = 4;
  const auto parallel = portfolio::synthesize_params_parallel(ts, invariant, options);
  ASSERT_TRUE(parallel.complete());

  EXPECT_EQ(parallel.safe, sequential.safe);
  EXPECT_EQ(parallel.unsafe, sequential.unsafe);
  ASSERT_EQ(parallel.witnesses.size(), parallel.unsafe.size());
  for (std::size_t i = 0; i < parallel.unsafe.size(); ++i) {
    std::string error;
    EXPECT_TRUE(ts.trace_conforms(parallel.witnesses[i], &error)) << error;
    EXPECT_FALSE(expr::eval_bool(
        invariant, ts.env_of(parallel.witnesses[i].states.back(), parallel.unsafe[i])));
  }
}

// The parallel driver runs behind the same optimizer as the sequential one:
// a parameter-free variable outside the property's cone is sliced away
// (opt.vars_removed moves) and the classification is unchanged.
TEST(SynthCrossCheck, ParallelMatchesSequentialBehindOptimizer) {
  ts::TransitionSystem ts;
  const Expr x = expr::int_var("posxc_x", 0, 6);
  const Expr idle = expr::int_var("posxc_idle", 0, 3);
  const Expr cap = expr::int_var("posxc_cap", 0, 6);
  ts.add_var(x);
  ts.add_var(idle);
  ts.add_param(cap);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_init(expr::mk_eq(idle, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x), expr::ite(expr::mk_lt(x, cap), x + 1, x)));
  ts.add_trans(expr::mk_eq(expr::next(idle), expr::mk_min(idle + 1, expr::int_const(3))));
  const Expr invariant = expr::mk_le(x, expr::int_const(3));

  const auto sequential = core::synthesize_params(ts, invariant);
  ASSERT_TRUE(sequential.complete());

  core::SynthOptions options;
  options.jobs = 2;
  const auto before = obs::counters_snapshot()["opt.vars_removed"];
  const auto parallel = portfolio::synthesize_params_parallel(ts, invariant, options);
  EXPECT_GE(obs::counters_snapshot()["opt.vars_removed"] - before, 1u);
  ASSERT_TRUE(parallel.complete());
  EXPECT_EQ(parallel.safe, sequential.safe);
  EXPECT_EQ(parallel.unsafe, sequential.unsafe);
  ASSERT_EQ(parallel.witnesses.size(), parallel.unsafe.size());
  for (const ts::Trace& witness : parallel.witnesses) {
    std::string error;
    EXPECT_TRUE(ts.trace_conforms(witness, &error)) << error;
  }
}

// --- Synthesis on the counting quotient ------------------------------------
//
// Both drivers sweep the counting quotient first (parameters symbolic), keep
// the candidates it proves safe, and re-sweep the rest on the original
// system (docs/abstraction.md, "Synthesis on the quotient").

std::uint64_t counter_value(const char* name) { return obs::counters_snapshot()[name]; }

std::vector<std::int64_t> p_values(const std::vector<ts::State>& states, Expr p) {
  std::vector<std::int64_t> out;
  for (const ts::State& s : states) out.push_back(std::get<std::int64_t>(*s.get(p)));
  return out;
}

/// Every witness is a trace of the ORIGINAL system that falsifies `property`.
void expect_witnesses_replay(const ts::TransitionSystem& system, const ltl::Formula& property,
                             const core::SynthResult& result) {
  ASSERT_EQ(result.witnesses.size(), result.unsafe.size());
  for (std::size_t i = 0; i < result.witnesses.size(); ++i) {
    EXPECT_EQ(result.witnesses[i].params, result.unsafe[i]);
    core::CheckOutcome outcome;
    outcome.verdict = Verdict::kViolated;
    outcome.counterexample = result.witnesses[i];
    std::string error;
    EXPECT_TRUE(core::confirm_counterexample(system, property, outcome, &error)) << error;
  }
}

// §4.2 over the wider domain p in {1..4} (k = m = 1): the quotient proves
// p = 1, 2, 3 and the concrete sweep finds p = 4's witness. Both provers,
// both drivers, in enumeration order, identical across the drivers.
TEST(SynthCrossCheck, QuotientSweepMatchesKnownBoundaryAcrossDrivers) {
  scenarios::RolloutPartitionOptions options;
  options.prefix = "qsyn";
  options.max_p = 4;
  const auto sc = scenarios::make_test_scenario(options);
  ts::TransitionSystem system = sc.system;
  system.add_param_constraint(expr::mk_eq(sc.k, expr::int_const(1)));
  system.add_param_constraint(expr::mk_eq(sc.m, expr::int_const(1)));
  system.add_param_constraint(expr::mk_le(expr::int_const(1), sc.p));
  const Expr invariant = ltl::invariant_atom(sc.property);

  for (const core::SynthProver prover : {core::SynthProver::kKInduction, core::SynthProver::kPdr}) {
    SCOPED_TRACE(prover == core::SynthProver::kPdr ? "pdr" : "k-induction");
    std::vector<core::SynthResult> results;
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(jobs);
      core::SynthOptions synth;
      synth.prover = prover;
      synth.jobs = jobs;
      synth.max_depth = 40;
      const std::uint64_t collapsed = counter_value("abs.vars_collapsed");
      results.push_back(jobs == 1 ? core::synthesize_params(system, invariant, synth)
                                  : portfolio::synthesize_params_parallel(system, invariant,
                                                                          synth));
      const core::SynthResult& result = results.back();
      EXPECT_GT(counter_value("abs.vars_collapsed"), collapsed) << "the quotient must engage";
      EXPECT_TRUE(result.complete());
      EXPECT_EQ(p_values(result.safe, sc.p), (std::vector<std::int64_t>{1, 2, 3}));
      EXPECT_EQ(p_values(result.unsafe, sc.p), (std::vector<std::int64_t>{4}));
      expect_witnesses_replay(system, sc.property, result);
    }
    EXPECT_EQ(results[0].safe, results[1].safe);
    EXPECT_EQ(results[0].unsafe, results[1].unsafe);
  }
}

// The CEGAR fixture of abs_test (Cegar.*): front-end F fans into R1, R2, R3;
// service node A hangs off R1 only, B off R2 and R3. The links are
// interchangeable for the system, so the quotient's threshold "at most B
// links down" is too coarse for A: with one failure allowed the quotient
// admits a violation the concrete system does not have.
scenarios::RolloutPartitionScenario cegar_scenario(const std::string& prefix) {
  net::Topology topo;
  const net::NodeId f = topo.add_node("F");
  const net::NodeId r1 = topo.add_node("R1");
  const net::NodeId r2 = topo.add_node("R2");
  const net::NodeId r3 = topo.add_node("R3");
  const net::NodeId a = topo.add_node("A");
  const net::NodeId b = topo.add_node("B");
  topo.add_link(f, r1);
  topo.add_link(f, r2);
  topo.add_link(f, r3);
  topo.add_link(r1, a);
  topo.add_link(r2, b);
  topo.add_link(r3, b);
  scenarios::RolloutPartitionOptions options;
  options.prefix = prefix;
  return scenarios::make_rollout_partition(topo, f, {a, b}, options);
}

// A concretely safe candidate the quotient cannot prove falls back to the
// concrete sweep, which classifies it safe. With p = 0, m = 1 synthesized
// over k in {0, 1}: k = 0 is proven on the quotient, k = 1 gets a spurious
// quotient violation and is decided safe concretely.
TEST(SynthCrossCheck, QuotientUnprovenCandidateFallsBackToConcreteSweep) {
  const auto sc = cegar_scenario("qsyn_cegar");
  ts::TransitionSystem system = sc.system;
  system.add_param_constraint(expr::mk_eq(sc.p, expr::int_const(0)));
  system.add_param_constraint(expr::mk_eq(sc.m, expr::int_const(1)));
  system.add_param_constraint(expr::mk_le(sc.k, expr::int_const(1)));
  const Expr invariant = ltl::invariant_atom(sc.property);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(jobs);
    core::SynthOptions synth;
    synth.prover = core::SynthProver::kKInduction;
    synth.jobs = jobs;
    synth.max_depth = 40;
    const std::uint64_t collapsed = counter_value("abs.vars_collapsed");
    const auto result = portfolio::synthesize_params_parallel(system, invariant, synth);
    EXPECT_GT(counter_value("abs.vars_collapsed"), collapsed);
    EXPECT_TRUE(result.complete());
    EXPECT_EQ(p_values(result.safe, sc.k), (std::vector<std::int64_t>{0, 1}));
    EXPECT_TRUE(result.unsafe.empty());
  }
}

// A replay prune on the quotient decides nothing: the quotient's spurious
// witness for the first candidate also replays under the second, which the
// model cannot tell apart (the parameter `spare` is read nowhere). Both are
// concretely safe, and pruned_by_replay counts only concrete prunes.
TEST(SynthCrossCheck, QuotientReplayPrunesAreNotCounted) {
  const auto sc = cegar_scenario("qsyn_prune");
  ts::TransitionSystem system = sc.system;
  const Expr spare = expr::int_var("qsyn_prune_spare", 0, 1);
  system.add_param(spare);
  system.add_param_constraint(expr::mk_eq(sc.p, expr::int_const(0)));
  system.add_param_constraint(expr::mk_eq(sc.k, expr::int_const(1)));
  system.add_param_constraint(expr::mk_eq(sc.m, expr::int_const(1)));

  core::SynthOptions synth;
  synth.prover = core::SynthProver::kKInduction;
  synth.max_depth = 40;
  const auto result =
      core::synthesize_params(system, ltl::invariant_atom(sc.property), synth);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(p_values(result.safe, spare), (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(result.pruned_by_replay, 0u);
}

// --- Optimizer crosscheck ---------------------------------------------------
//
// The opt/ pipeline (docs/optimizer.md) must be invisible in verdicts: for
// every engine and every property, core::check with optimization on and off
// must agree, and optimized-run counterexamples must replay on the ORIGINAL
// system (they are lifted back through opt::Optimized::lift_trace).

TEST_P(RandomSystemCrossCheck, OptimizerPreservesVerdictsPerEngine) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 60013 + 41);
  const RandomSystem sys = make_random_system(5000 + GetParam(), rng);

  const std::vector<Expr> invariants = {
      expr::mk_le(sys.x + sys.y, expr::int_const(6)),  // folds to true by bounds
      expr::mk_lt(sys.x, expr::int_const(3)),
      expr::mk_or({sys.b, expr::mk_le(sys.y, expr::int_const(2))}),
      expr::mk_not(expr::mk_and({expr::mk_eq(sys.x, expr::int_const(3)),
                                 expr::mk_eq(sys.y, expr::int_const(3))})),
  };

  for (const core::Engine engine :
       {core::Engine::kBmc, core::Engine::kKInduction, core::Engine::kPdr}) {
    for (const Expr& invariant : invariants) {
      const ltl::Formula property = ltl::G(ltl::atom(invariant));
      core::CheckOptions with_opt;
      with_opt.engine = engine;
      with_opt.max_depth = 40;
      core::CheckOptions without_opt = with_opt;
      without_opt.optimize = false;

      const auto optimized = core::check(sys.ts, property, with_opt);
      const auto plain = core::check(sys.ts, property, without_opt);
      EXPECT_EQ(optimized.verdict, plain.verdict)
          << "engine " << static_cast<int>(engine) << " on " << invariant.str();
      if (optimized.violated()) {
        std::string error;
        EXPECT_TRUE(
            core::confirm_counterexample(sys.ts, property, optimized, &error))
            << invariant.str() << ": " << error;
      }
    }
  }

  // BDD reachability (bdd::BddOptions::optimize) — both shortest.
  for (const Expr& invariant : invariants) {
    bdd::BddOptions without_opt;
    without_opt.optimize = false;
    const auto optimized = bdd::check_invariant_bdd(sys.ts, invariant);
    const auto plain = bdd::check_invariant_bdd(sys.ts, invariant, without_opt);
    EXPECT_EQ(optimized.verdict, plain.verdict) << invariant.str();
    if (optimized.verdict == Verdict::kViolated && plain.counterexample &&
        optimized.counterexample) {
      EXPECT_EQ(optimized.counterexample->states.size(),
                plain.counterexample->states.size())
          << "lifted BDD counterexample lost shortest-length guarantee on "
          << invariant.str();
      std::string error;
      EXPECT_TRUE(sys.ts.trace_conforms(*optimized.counterexample, &error)) << error;
    }
  }

  // Lasso liveness (fold/constprop apply; slicing is off on lasso paths).
  const std::vector<ltl::Formula> liveness = {
      ltl::F(ltl::G(ltl::atom(sys.b))),
      ltl::G(ltl::F(ltl::atom(expr::mk_eq(sys.x, expr::int_const(0))))),
  };
  for (const auto& property : liveness) {
    core::CheckOptions with_opt;
    with_opt.engine = core::Engine::kLtlLasso;
    with_opt.max_depth = 12;
    core::CheckOptions without_opt = with_opt;
    without_opt.optimize = false;
    const auto optimized = core::check(sys.ts, property, with_opt);
    const auto plain = core::check(sys.ts, property, without_opt);
    EXPECT_EQ(optimized.verdict, plain.verdict) << property.str();
    if (optimized.violated()) {
      std::string error;
      EXPECT_TRUE(core::confirm_counterexample(sys.ts, property, optimized, &error))
          << property.str() << ": " << error;
    }
  }
}

TEST_P(RandomSystemCrossCheck, OptimizerPreservesSessionBatchVerdicts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 70001 + 53);
  const RandomSystem sys = make_random_system(6000 + GetParam(), rng);

  const std::vector<ltl::Formula> properties = {
      ltl::G(ltl::atom(expr::mk_le(sys.x + sys.y, expr::int_const(6)))),
      ltl::G(ltl::atom(expr::mk_lt(sys.x, expr::int_const(3)))),
      ltl::G(ltl::atom(expr::mk_or({sys.b, expr::mk_le(sys.y, expr::int_const(2))}))),
      ltl::F(ltl::G(ltl::atom(sys.b))),
      ltl::U(ltl::atom(expr::mk_le(sys.x, expr::int_const(2))), ltl::atom(sys.b)),
  };

  for (const core::Engine engine :
       {core::Engine::kAuto, core::Engine::kBmc, core::Engine::kKInduction}) {
    const auto run = [&](bool optimize) {
      core::Session session(sys.ts);
      for (std::size_t i = 0; i < properties.size(); ++i)
        session.add_property("p" + std::to_string(i), properties[i]);
      core::SessionOptions batch_options;
      batch_options.engine = engine;
      batch_options.max_depth = 12;
      batch_options.optimize = optimize;
      return session.check_all(batch_options);
    };
    const auto optimized = run(true);
    const auto plain = run(false);
    ASSERT_EQ(optimized.properties.size(), plain.properties.size());
    for (std::size_t i = 0; i < properties.size(); ++i) {
      EXPECT_EQ(optimized.properties[i].outcome.verdict,
                plain.properties[i].outcome.verdict)
          << "engine " << static_cast<int>(engine) << " on " << properties[i].str();
      if (optimized.properties[i].outcome.violated()) {
        std::string error;
        EXPECT_TRUE(core::confirm_counterexample(
            sys.ts, properties[i], optimized.properties[i].outcome, &error))
            << properties[i].str() << ": " << error;
      }
    }
  }
}

// Scenario-level agreement: the paper's case-study models, every named
// property, with and without optimization.
TEST(OptimizerScenarioCrossCheck, RolloutPartitionAllPropertiesAgree) {
  struct Config {
    std::string prefix;
    std::int64_t p, k, m;
  };
  // Fig. 5's violated configuration and a holding one.
  const std::vector<Config> configs = {{"occ1", 1, 2, 1}, {"occ2", 1, 1, 1}};
  for (const Config& config : configs) {
    scenarios::RolloutPartitionOptions options;
    options.prefix = config.prefix;
    const auto sc = scenarios::make_test_scenario(options);
    ts::TransitionSystem pinned = sc.system;
    pinned.add_param_constraint(expr::mk_eq(sc.p, expr::int_const(config.p)));
    pinned.add_param_constraint(expr::mk_eq(sc.k, expr::int_const(config.k)));
    pinned.add_param_constraint(expr::mk_eq(sc.m, expr::int_const(config.m)));

    for (const auto& [name, property] : sc.properties) {
      core::CheckOptions with_opt;
      with_opt.max_depth = 10;
      core::CheckOptions without_opt = with_opt;
      without_opt.optimize = false;
      const auto optimized = core::check(pinned, property, with_opt);
      const auto plain = core::check(pinned, property, without_opt);
      EXPECT_EQ(optimized.verdict, plain.verdict)
          << config.prefix << "/" << name;
      if (optimized.violated()) {
        std::string error;
        EXPECT_TRUE(core::confirm_counterexample(pinned, property, optimized, &error))
            << config.prefix << "/" << name << ": " << error;
      }
    }
  }
}

TEST(OptimizerScenarioCrossCheck, K8sLoopScenariosAgree) {
  struct Case {
    std::string name;
    ts::TransitionSystem system;
    ltl::Formula property;
  };
  std::vector<Case> cases;
  {
    const auto sc = scenarios::make_descheduler_oscillation(45, "occ_dsc45");
    cases.push_back({"descheduler-45", sc.system, sc.eventually_settles});
  }
  {
    const auto sc = scenarios::make_descheduler_oscillation(55, "occ_dsc55");
    cases.push_back({"descheduler-55", sc.system, sc.eventually_settles});
  }
  {
    const auto sc = scenarios::make_taint_loop("occ_taint");
    cases.push_back({"taint-loop", sc.system, sc.eventually_converges});
  }
  {
    const auto sc = scenarios::make_hpa_surge(true, "occ_hpa_bad");
    cases.push_back({"hpa-defective", sc.system, sc.bounded_replicas});
  }
  {
    const auto sc = scenarios::make_hpa_surge(false, "occ_hpa_ok");
    cases.push_back({"hpa-fixed", sc.system, sc.bounded_replicas});
  }

  for (const Case& c : cases) {
    core::CheckOptions with_opt;
    with_opt.max_depth = 12;
    core::CheckOptions without_opt = with_opt;
    without_opt.optimize = false;
    const auto optimized = core::check(c.system, c.property, with_opt);
    const auto plain = core::check(c.system, c.property, without_opt);
    EXPECT_EQ(optimized.verdict, plain.verdict) << c.name;
    if (optimized.violated()) {
      std::string error;
      EXPECT_TRUE(core::confirm_counterexample(c.system, c.property, optimized, &error))
          << c.name << ": " << error;
    }
  }
}

// --- Abstraction crosscheck -------------------------------------------------
//
// The abs/ symmetry-reduction pass (docs/abstraction.md) must be invisible in
// verdicts exactly like the optimizer: for every engine and every property,
// core::check with abstraction on and off must agree. Abstracted-run
// counterexamples are concrete traces by construction (the CEGAR loop only
// reports a violation after a concrete BMC replay), so they must replay on
// the original system unchanged. Random systems rarely have orbits, which is
// itself coverage: the pass must fall through to the concrete engines without
// disturbing anything.

TEST_P(RandomSystemCrossCheck, AbstractionPreservesVerdictsPerEngine) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 80021 + 67);
  const RandomSystem sys = make_random_system(7000 + GetParam(), rng);

  const std::vector<Expr> invariants = {
      expr::mk_le(sys.x + sys.y, expr::int_const(6)),
      expr::mk_lt(sys.x, expr::int_const(3)),
      expr::mk_or({sys.b, expr::mk_le(sys.y, expr::int_const(2))}),
      expr::mk_not(expr::mk_and({expr::mk_eq(sys.x, expr::int_const(3)),
                                 expr::mk_eq(sys.y, expr::int_const(3))})),
  };

  for (const core::Engine engine :
       {core::Engine::kAuto, core::Engine::kBmc, core::Engine::kKInduction,
        core::Engine::kPdr}) {
    for (const Expr& invariant : invariants) {
      const ltl::Formula property = ltl::G(ltl::atom(invariant));
      core::CheckOptions with_abs;
      with_abs.engine = engine;
      with_abs.max_depth = 40;
      core::CheckOptions without_abs = with_abs;
      without_abs.abstract = false;

      const auto abstracted = core::check(sys.ts, property, with_abs);
      const auto plain = core::check(sys.ts, property, without_abs);
      EXPECT_EQ(abstracted.verdict, plain.verdict)
          << "engine " << static_cast<int>(engine) << " on " << invariant.str();
      if (abstracted.violated()) {
        std::string error;
        EXPECT_TRUE(
            core::confirm_counterexample(sys.ts, property, abstracted, &error))
            << invariant.str() << ": " << error;
      }
    }
  }
}

TEST_P(RandomSystemCrossCheck, AbstractionPreservesSessionBatchVerdicts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 91009 + 71);
  const RandomSystem sys = make_random_system(8000 + GetParam(), rng);

  const std::vector<ltl::Formula> properties = {
      ltl::G(ltl::atom(expr::mk_le(sys.x + sys.y, expr::int_const(6)))),
      ltl::G(ltl::atom(expr::mk_lt(sys.x, expr::int_const(3)))),
      ltl::G(ltl::atom(expr::mk_or({sys.b, expr::mk_le(sys.y, expr::int_const(2))}))),
      ltl::F(ltl::G(ltl::atom(sys.b))),
      ltl::U(ltl::atom(expr::mk_le(sys.x, expr::int_const(2))), ltl::atom(sys.b)),
  };

  for (const core::Engine engine :
       {core::Engine::kAuto, core::Engine::kBmc, core::Engine::kKInduction}) {
    const auto run = [&](bool abstract) {
      core::Session session(sys.ts);
      for (std::size_t i = 0; i < properties.size(); ++i)
        session.add_property("p" + std::to_string(i), properties[i]);
      core::SessionOptions batch_options;
      batch_options.engine = engine;
      batch_options.max_depth = 12;
      batch_options.abstract = abstract;
      return session.check_all(batch_options);
    };
    const auto abstracted = run(true);
    const auto plain = run(false);
    ASSERT_EQ(abstracted.properties.size(), plain.properties.size());
    for (std::size_t i = 0; i < properties.size(); ++i) {
      EXPECT_EQ(abstracted.properties[i].outcome.verdict,
                plain.properties[i].outcome.verdict)
          << "engine " << static_cast<int>(engine) << " on " << properties[i].str();
      if (abstracted.properties[i].outcome.violated()) {
        std::string error;
        EXPECT_TRUE(core::confirm_counterexample(
            sys.ts, properties[i], abstracted.properties[i].outcome, &error))
            << properties[i].str() << ": " << error;
      }
    }
  }
}

// Scenario-level agreement: the paper's case-study model on the topologies
// the quotient genuinely collapses. The test topology covers both a violated
// and a holding configuration through the full kAuto pipeline; fattree4 is
// where orbits exist (Quotient.CollapsesFatTreeLinks), so its holding
// configuration decides through the counting quotient on one side and the
// concrete engines on the other — the verdicts must still match.
TEST(AbstractionScenarioCrossCheck, RolloutPartitionAllPropertiesAgree) {
  struct Config {
    std::string prefix;
    std::int64_t p, k, m;
  };
  const std::vector<Config> configs = {{"axc1", 1, 2, 1}, {"axc2", 1, 1, 1}};
  for (const Config& config : configs) {
    scenarios::RolloutPartitionOptions options;
    options.prefix = config.prefix;
    const auto sc = scenarios::make_test_scenario(options);
    ts::TransitionSystem pinned = sc.system;
    pinned.add_param_constraint(expr::mk_eq(sc.p, expr::int_const(config.p)));
    pinned.add_param_constraint(expr::mk_eq(sc.k, expr::int_const(config.k)));
    pinned.add_param_constraint(expr::mk_eq(sc.m, expr::int_const(config.m)));

    for (const auto& [name, property] : sc.properties) {
      core::CheckOptions with_abs;
      with_abs.max_depth = 10;
      core::CheckOptions without_abs = with_abs;
      without_abs.abstract = false;
      const auto abstracted = core::check(pinned, property, with_abs);
      const auto plain = core::check(pinned, property, without_abs);
      EXPECT_EQ(abstracted.verdict, plain.verdict) << config.prefix << "/" << name;
      if (abstracted.violated()) {
        std::string error;
        EXPECT_TRUE(core::confirm_counterexample(pinned, property, abstracted, &error))
            << config.prefix << "/" << name << ": " << error;
      }
    }
  }
}

TEST(AbstractionScenarioCrossCheck, FatTreeQuotientAgreesWithConcrete) {
  scenarios::RolloutPartitionOptions options;
  options.prefix = "axc_ft4";
  const auto sc = scenarios::make_fat_tree_scenario(4, options);
  ts::TransitionSystem pinned = sc.system;
  pinned.add_param_constraint(expr::mk_eq(sc.p, expr::int_const(1)));
  pinned.add_param_constraint(expr::mk_eq(sc.k, expr::int_const(1)));
  pinned.add_param_constraint(expr::mk_eq(sc.m, expr::int_const(1)));

  // The quotient side must decide outright — fattree4 is exactly the
  // topology the orbits collapse (Quotient.CollapsesFatTreeLinks).
  core::CheckOptions with_abs;
  with_abs.engine = core::Engine::kKInduction;
  with_abs.max_depth = 60;
  const auto abstracted = core::check(pinned, sc.property, with_abs);
  EXPECT_EQ(abstracted.verdict, Verdict::kHolds) << core::describe(abstracted);

  // The concrete side is the paper's exponential wall: give it a bounded
  // budget and require agreement whenever it decides in time. (It usually
  // does at fattree4 — a full unbudgeted parity run was measured at ~100s
  // per property — but tier-1 must not hinge on that.)
  core::CheckOptions without_abs = with_abs;
  without_abs.abstract = false;
  without_abs.deadline = util::Deadline::after_seconds(120.0);
  const auto plain = core::check(pinned, sc.property, without_abs);
  if (plain.verdict == Verdict::kHolds || plain.verdict == Verdict::kViolated)
    EXPECT_EQ(abstracted.verdict, plain.verdict) << core::describe(plain);
}

}  // namespace
}  // namespace verdict
