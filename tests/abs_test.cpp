// abs/: symmetry detection, counting quotient, and the CEGAR loop.
//
// The load-bearing assertions: no unsound orbit survives the permutation
// self-check, abstraction-on verdicts match abstraction-off on the paper's
// scenarios, violating traces found through the abstraction replay on the
// concrete system, and a spurious abstract counterexample actually drives
// the refinement loop (the last test fails if CEGAR is bypassed).
#include <gtest/gtest.h>

#include "abs/quotient.h"
#include "abs/symmetry.h"
#include "core/checker.h"
#include "core/session.h"
#include "ltl/ltl.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "scenarios/lb_ecmp.h"
#include "scenarios/rollout_partition.h"
#include "ts/transition_system.h"

namespace verdict {
namespace {

ts::TransitionSystem pinned(const ts::TransitionSystem& base,
                            std::initializer_list<std::pair<expr::Expr, std::int64_t>> pins) {
  ts::TransitionSystem out = base;
  for (const auto& [param, value] : pins)
    out.add_param_constraint(expr::mk_eq(param, expr::int_const(value)));
  return out;
}

std::uint64_t counter(const char* name) {
  const auto snap = obs::counters_snapshot();
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

// --- orbit detection ---------------------------------------------------------

TEST(Symmetry, FatTreeLinksFormOrbits) {
  const auto scenario = scenarios::make_fat_tree_scenario(4);
  const auto orbits = abs::detect_orbits(scenario.system);
  // All 32 fattree4 links share one template (same fail rule, same budget
  // guard); the statuses of the 7 service nodes share another.
  std::size_t link_members = 0;
  std::size_t status_members = 0;
  for (const abs::Orbit& o : orbits) {
    ASSERT_GE(o.members.size(), 2u);
    for (const expr::Expr& m : o.members) {
      if (m.var_name().find(".up_") != std::string::npos) ++link_members;
      if (m.var_name().find(".status_") != std::string::npos) ++status_members;
    }
  }
  EXPECT_EQ(link_members, scenario.link_up.size());
  EXPECT_EQ(status_members, scenario.node_status.size());
}

TEST(Symmetry, LbScenarioDetectionIsSound) {
  // The LB weights are NOT interchangeable (each replica has its own
  // response-time expression); detection must either find nothing or only
  // orbits that pass the permutation self-check.
  const auto scenario = scenarios::make_lb_ecmp_scenario();
  for (const abs::Orbit& o : abs::detect_orbits(scenario.system)) {
    EXPECT_TRUE(abs::confirm_orbit(scenario.system, o.members));
  }
}

TEST(Symmetry, SelfCheckRejectsAsymmetricMembers) {
  // a and b step identically, but only a is guarded by c — swapping them is
  // not an automorphism even though both are bool state vars with similar
  // fingerprint ingredients. confirm_orbit must reject the pair outright.
  ts::TransitionSystem sys;
  const expr::Expr a = expr::bool_var("asym.a");
  const expr::Expr b = expr::bool_var("asym.b");
  const expr::Expr c = expr::bool_var("asym.c");
  sys.add_var(a);
  sys.add_var(b);
  sys.add_var(c);
  sys.add_init(expr::mk_not(a));
  sys.add_init(expr::mk_not(b));
  sys.add_init(expr::mk_not(c));
  sys.add_trans(expr::any_of({
      expr::all_of({c, expr::mk_eq(expr::next(a), expr::tru()),
                    expr::mk_eq(expr::next(b), b), expr::mk_eq(expr::next(c), c)}),
      expr::all_of({expr::mk_eq(expr::next(b), expr::tru()),
                    expr::mk_eq(expr::next(a), a), expr::mk_eq(expr::next(c), c)}),
  }));
  sys.validate();
  const expr::Expr members[] = {a, b};
  EXPECT_FALSE(abs::confirm_orbit(sys, members));
  for (const abs::Orbit& o : abs::detect_orbits(sys)) {
    EXPECT_EQ(o.members.size(), 1u) << "asymmetric pair must not form an orbit";
  }
}

TEST(Symmetry, ConfirmsGenuineOrbit) {
  ts::TransitionSystem sys;
  std::vector<expr::Expr> flags;
  for (int i = 0; i < 4; ++i) flags.push_back(expr::bool_var("sym.f" + std::to_string(i)));
  for (const expr::Expr& f : flags) {
    sys.add_var(f);
    sys.add_init(expr::mk_not(f));
  }
  std::vector<expr::Expr> rules;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    std::vector<expr::Expr> conjuncts{expr::mk_eq(expr::next(flags[i]), expr::tru())};
    for (std::size_t j = 0; j < flags.size(); ++j)
      if (j != i) conjuncts.push_back(expr::mk_eq(expr::next(flags[j]), flags[j]));
    rules.push_back(expr::all_of(conjuncts));
  }
  sys.add_trans(expr::any_of(rules));
  sys.validate();
  EXPECT_TRUE(abs::confirm_orbit(sys, flags));
  const auto orbits = abs::detect_orbits(sys);
  ASSERT_EQ(orbits.size(), 1u);
  EXPECT_EQ(orbits[0].members.size(), 4u);
}

// --- quotient ---------------------------------------------------------------

TEST(Quotient, CollapsesFatTreeLinks) {
  const auto scenario = scenarios::make_fat_tree_scenario(4);
  const auto system =
      pinned(scenario.system, {{scenario.p, 1}, {scenario.k, 1}, {scenario.m, 1}});
  const auto abstraction = abs::abstract_system(system, scenario.property);
  ASSERT_TRUE(abstraction.has_value());
  EXPECT_GE(abstraction->vars_collapsed, scenario.link_up.size());
  EXPECT_LT(abstraction->system.vars().size(), system.vars().size());
  for (const abs::OrbitAbstraction& o : abstraction->orbits)
    EXPECT_FALSE(o.justification.empty());
}

TEST(Quotient, RoundTripVerdictsMatchConcrete) {
  const auto scenario = scenarios::make_test_scenario();
  struct Config {
    std::int64_t p, k, m;
    core::Verdict expected;
  };
  // Fig. 5: p=1,m=1 holds through k=1 and breaks at k=2 (front-end cut).
  const Config configs[] = {
      {1, 0, 1, core::Verdict::kHolds},
      {1, 1, 1, core::Verdict::kHolds},
      {1, 2, 1, core::Verdict::kViolated},
  };
  for (const Config& cfg : configs) {
    const auto system =
        pinned(scenario.system, {{scenario.p, cfg.p}, {scenario.k, cfg.k}, {scenario.m, cfg.m}});
    core::CheckOptions with;
    with.deadline = util::Deadline::after_seconds(60);
    core::CheckOptions without = with;
    without.abstract = false;
    const auto on = core::check(system, scenario.property, with);
    const auto off = core::check(system, scenario.property, without);
    EXPECT_EQ(on.verdict, cfg.expected) << "abs-on p=" << cfg.p << " k=" << cfg.k;
    EXPECT_EQ(off.verdict, cfg.expected) << "abs-off p=" << cfg.p << " k=" << cfg.k;
  }
}

TEST(Quotient, AbstractHoldsIsTopologySizeIndependent) {
  // The headline claim: with abstraction the fattree verification collapses
  // to a counter system whose size does not grow with the topology, so the
  // k=1 verification that k-induction struggles with at fattree8+ closes
  // quickly. 30s is far below the concrete cost at fattree8.
  const auto scenario = scenarios::make_fat_tree_scenario(8);
  const auto system =
      pinned(scenario.system, {{scenario.p, 1}, {scenario.k, 1}, {scenario.m, 1}});
  core::CheckOptions options;
  options.deadline = util::Deadline::after_seconds(30);
  const auto outcome = core::check(system, scenario.property, options);
  EXPECT_EQ(outcome.verdict, core::Verdict::kHolds);
  EXPECT_NE(outcome.message.find("quotient"), std::string::npos)
      << "verdict must come from the abstraction path, got: " << outcome.message;
}

// The link orbit's threshold guard "at most B links down" is validated
// exactly: B is the largest bound under which every service node stays
// reachable, i.e. the front end's min cut minus one — not the largest power
// of two below it (fattree8's cut is 4, so B must be 3, not 2).
TEST(Quotient, ThresholdIsMinCutMinusOne) {
  struct Case {
    int fat_tree_k;  // 0 = the 5-node test topology
    std::int64_t min_cut;
  };
  for (const Case& c : {Case{0, 2}, Case{4, 2}, Case{6, 3}, Case{8, 4}}) {
    const auto scenario = c.fat_tree_k == 0 ? scenarios::make_test_scenario()
                                            : scenarios::make_fat_tree_scenario(c.fat_tree_k);
    const auto system =
        pinned(scenario.system, {{scenario.p, 1}, {scenario.k, 1}, {scenario.m, 1}});
    const auto abstraction = abs::abstract_system(system, scenario.property);
    ASSERT_TRUE(abstraction.has_value()) << "fattree" << c.fat_tree_k;
    const abs::OrbitAbstraction* links = nullptr;
    for (const abs::OrbitAbstraction& o : abstraction->orbits)
      if (o.orbit.members.front().var_name().find(".up_") != std::string::npos) links = &o;
    ASSERT_NE(links, nullptr) << "fattree" << c.fat_tree_k;
    EXPECT_EQ(links->threshold, c.min_cut - 1) << "fattree" << c.fat_tree_k;
    EXPECT_TRUE(links->strengthened_guard.valid());
  }
}

// Below the min cut the strengthened property is exact enough to hold on
// the quotient: no spurious trace, no refinement, no concrete fallback.
TEST(Quotient, Fattree8BelowCutHoldsOnQuotient) {
  const auto scenario = scenarios::make_fat_tree_scenario(8);
  const auto system =
      pinned(scenario.system, {{scenario.p, 1}, {scenario.k, 3}, {scenario.m, 1}});
  obs::reset_counters();
  core::CheckOptions options;
  options.deadline = util::Deadline::after_seconds(30);
  const auto outcome = core::check(system, scenario.property, options);
  EXPECT_EQ(outcome.verdict, core::Verdict::kHolds);
  EXPECT_NE(outcome.message.find("quotient"), std::string::npos)
      << "verdict must come from the abstraction path, got: " << outcome.message;
  EXPECT_EQ(counter("abs.spurious_traces"), 0u);
  EXPECT_EQ(counter("abs.fallback_concrete"), 0u);
}

// A probe whose budget is already spent is not run, so no bound is proven
// and no guard is guessed: the fattree4 property still names raw links and
// statuses, both orbits are blocked, and the caller checks concretely.
TEST(Quotient, ExpiredStrengtheningBudgetYieldsNoGuard) {
  const auto scenario = scenarios::make_fat_tree_scenario(4);
  const auto system =
      pinned(scenario.system, {{scenario.p, 1}, {scenario.k, 1}, {scenario.m, 1}});
  abs::AbstractionOptions options;
  options.strengthen_query_seconds = 0.0;
  obs::reset_counters();
  EXPECT_FALSE(abs::abstract_system(system, scenario.property, options).has_value());
  EXPECT_EQ(counter("abs.threshold_probes"), 0u);

  options.strengthen_query_seconds = 5.0;
  const auto abstraction = abs::abstract_system(system, scenario.property, options);
  ASSERT_TRUE(abstraction.has_value());
  EXPECT_GT(counter("abs.threshold_probes"), 0u);
}

TEST(Quotient, ViolatingTraceReplaysOnConcreteSystem) {
  const auto scenario = scenarios::make_test_scenario();
  const auto system =
      pinned(scenario.system, {{scenario.p, 1}, {scenario.k, 2}, {scenario.m, 1}});
  core::CheckOptions options;
  options.deadline = util::Deadline::after_seconds(60);
  const auto outcome = core::check(system, scenario.property, options);
  ASSERT_EQ(outcome.verdict, core::Verdict::kViolated);
  ASSERT_TRUE(outcome.counterexample.has_value());
  std::string error;
  EXPECT_TRUE(core::confirm_counterexample(system, scenario.property, outcome, &error))
      << error;
}

// --- CEGAR ------------------------------------------------------------------

// A topology engineered so the quotient's threshold strengthening is too
// coarse: front-end F fans into three routers; service node A hangs off R1,
// service node B off R2 and R3. The links are interchangeable for the
// *system* (same fail rule), but A's availability dies with one specific
// link while B survives any single failure. With k=2 pinned, the abstract
// property "at most B links deviate" admits a violation the concrete system
// does not have; the CEGAR loop must flag it spurious, refine, and land on
// kHolds via the concrete fallback.
struct CegarCase {
  ts::TransitionSystem system;
  ltl::Formula property;
};

CegarCase cegar_case() {
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
  options.prefix = "cegar";
  const auto scenario = scenarios::make_rollout_partition(topo, f, {a, b}, options);
  return {pinned(scenario.system, {{scenario.p, 0}, {scenario.k, 1}, {scenario.m, 1}}),
          scenario.property};
}

TEST(Cegar, SpuriousCounterexampleDrivesRefinement) {
  const CegarCase c = cegar_case();
  obs::reset_counters();
  core::CheckOptions check;
  check.deadline = util::Deadline::after_seconds(120);
  const auto outcome = core::check(c.system, c.property, check);
  EXPECT_EQ(outcome.verdict, core::Verdict::kHolds);
  EXPECT_GE(counter("abs.spurious_traces"), 1u)
      << "the abstract counterexample must be detected as spurious";
  EXPECT_GE(counter("abs.cegar_refinements"), 1u)
      << "a spurious trace must drive an orbit split, not a silent fallback";
}

// A batch session runs the same quotient stage as core::check: on the CEGAR
// system it reaches the same verdict with the same spurious / refinement /
// fallback counts, per engine.
TEST(Cegar, SessionMatchesOneShotCheck) {
  const CegarCase c = cegar_case();
  const char* const kCounters[] = {"abs.spurious_traces", "abs.cegar_refinements",
                                   "abs.fallback_concrete"};
  for (const core::Engine engine :
       {core::Engine::kKInduction, core::Engine::kBmc, core::Engine::kAuto}) {
    SCOPED_TRACE(static_cast<int>(engine));
    obs::reset_counters();
    core::CheckOptions check;
    check.engine = engine;
    check.deadline = util::Deadline::after_seconds(120);
    const core::Verdict one_shot = core::check(c.system, c.property, check).verdict;
    std::vector<std::uint64_t> expected;
    for (const char* name : kCounters) expected.push_back(counter(name));
    EXPECT_GE(expected[1], 1u);

    obs::reset_counters();
    core::Session session(c.system);
    session.add_property("cegar", c.property);
    core::SessionOptions options;
    options.engine = engine;
    options.deadline = util::Deadline::after_seconds(120);
    const core::SessionResult batch = session.check_all(options);
    EXPECT_EQ(batch.properties.front().outcome.verdict, one_shot);
    for (std::size_t j = 0; j < expected.size(); ++j)
      EXPECT_EQ(counter(kCounters[j]), expected[j]) << kCounters[j];
  }
}

// An abstract violation at the cut is concretized from its witness set: the
// BMC run guided by the pins decides, and its trace replays on the original
// system.
TEST(Cegar, GuidedConcretizationReplays) {
  scenarios::RolloutPartitionOptions options;
  options.prefix = "guided6";
  const auto scenario = scenarios::make_fat_tree_scenario(6, options);
  const auto system =
      pinned(scenario.system, {{scenario.p, 1}, {scenario.k, 3}, {scenario.m, 1}});
  obs::reset_counters();
  core::CheckOptions check;
  check.deadline = util::Deadline::after_seconds(60);
  const auto outcome = core::check(system, scenario.property, check);
  ASSERT_EQ(outcome.verdict, core::Verdict::kViolated);
  std::string error;
  EXPECT_TRUE(core::confirm_counterexample(system, scenario.property, outcome, &error))
      << error;
  EXPECT_EQ(counter("abs.guided_concretizations"), 1u);
  EXPECT_EQ(counter("abs.guided_fallbacks"), 0u);
}

// Four interchangeable flags and a `seen` bit that a flag sets by going up
// and coming back down. The only violation, "seen with no flag up", ends with
// every flag at its initial value, so the witness pins all of them and the
// guided run cannot reach it: the unguided BMC must still find it.
TEST(Cegar, GuidedMissFallsBackToBlindBmc) {
  ts::TransitionSystem sys;
  std::vector<expr::Expr> flags;
  for (int i = 0; i < 4; ++i) flags.push_back(expr::bool_var("miss.f" + std::to_string(i)));
  const expr::Expr seen = expr::bool_var("miss.seen");
  for (const expr::Expr f : flags) {
    sys.add_var(f);
    sys.add_init(expr::mk_not(f));
  }
  sys.add_var(seen);
  sys.add_init(expr::mk_not(seen));
  const auto keep_others = [&](std::size_t i) {
    std::vector<expr::Expr> keep;
    for (std::size_t j = 0; j < flags.size(); ++j)
      if (j != i) keep.push_back(expr::mk_eq(expr::next(flags[j]), flags[j]));
    return keep;
  };
  std::vector<expr::Expr> rules;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    std::vector<expr::Expr> up = keep_others(i);
    up.push_back(expr::mk_not(flags[i]));
    up.push_back(expr::mk_eq(expr::next(flags[i]), expr::tru()));
    up.push_back(expr::mk_eq(expr::next(seen), seen));
    rules.push_back(expr::all_of(up));
    std::vector<expr::Expr> down = keep_others(i);
    down.push_back(flags[i]);
    down.push_back(expr::mk_eq(expr::next(flags[i]), expr::fls()));
    down.push_back(expr::mk_eq(expr::next(seen), expr::tru()));
    rules.push_back(expr::all_of(down));
  }
  std::vector<expr::Expr> stutter = keep_others(flags.size());
  stutter.push_back(expr::mk_eq(expr::next(seen), seen));
  rules.push_back(expr::all_of(stutter));
  sys.add_trans(expr::any_of(rules));
  sys.validate();
  const ltl::Formula property =
      ltl::G(ltl::atom(expr::mk_or({expr::mk_not(seen), expr::count_true(flags) >= 1})));

  obs::reset_counters();
  core::CheckOptions check;
  check.deadline = util::Deadline::after_seconds(60);
  const auto outcome = core::check(sys, property, check);
  ASSERT_EQ(outcome.verdict, core::Verdict::kViolated);
  std::string error;
  EXPECT_TRUE(core::confirm_counterexample(sys, property, outcome, &error)) << error;
  EXPECT_GE(counter("abs.vars_collapsed"), flags.size()) << "the flags must form an orbit";
  EXPECT_EQ(counter("abs.guided_fallbacks"), 1u);
  EXPECT_EQ(counter("abs.guided_concretizations"), 0u);
  // Decided inside the quotient stage, by the unguided BMC: not counted
  // spurious, not left to the concrete fallback.
  EXPECT_EQ(counter("abs.spurious_traces"), 0u);
  EXPECT_EQ(counter("abs.fallback_concrete"), 0u);
}

TEST(Cegar, FallbackCountedWhenNoOrbitSurvives) {
  // A 2-variable system with no symmetry at all: the pass must fall back to
  // the concrete engines and say so in the counter.
  ts::TransitionSystem sys;
  const expr::Expr x = expr::int_var("nofb.x", 0, 3);
  sys.add_var(x);
  sys.add_init(expr::mk_eq(x, expr::int_const(0)));
  sys.add_trans(expr::mk_eq(expr::next(x), x));
  sys.validate();
  obs::reset_counters();
  core::CheckOptions check;
  check.deadline = util::Deadline::after_seconds(30);
  const auto outcome =
      core::check(sys, ltl::G(ltl::atom(expr::mk_le(x, expr::int_const(2)))), check);
  EXPECT_EQ(outcome.verdict, core::Verdict::kHolds);
  EXPECT_GE(counter("abs.fallback_concrete"), 1u);
}

}  // namespace
}  // namespace verdict
