// Multi-property verification sessions (core::Session).
//
// Three layers: (1) the cost assertions the subsystem exists for — a session
// over N properties constructs strictly fewer solvers and asserts strictly
// fewer frame formulas than N independent core::check calls; (2) verdict
// parity — for every (engine, property) pair the session verdict equals the
// one-shot verdict, and every counterexample replays through the exact
// evaluator; (3) the aggregate/result API (all_hold/any_violated/table).
#include <gtest/gtest.h>

#include <optional>

#include "core/checker.h"
#include "core/session.h"
#include "scenarios/rollout_partition.h"

namespace verdict {
namespace {

// The k of a k-induction proof artifact, if the outcome carries one.
std::optional<int> induction_k(const core::CheckOutcome& outcome) {
  if (!outcome.artifact || outcome.artifact->kind != core::ProofArtifact::Kind::kKInduction)
    return std::nullopt;
  return outcome.artifact->k;
}

using core::Engine;
using core::Verdict;
using expr::Expr;

scenarios::RolloutPartitionScenario test_scenario(const std::string& prefix) {
  scenarios::RolloutPartitionOptions options;
  options.prefix = prefix;
  return scenarios::make_test_scenario(options);
}

core::Stats one_shot_total(const scenarios::RolloutPartitionScenario& sc, Engine engine,
                           int depth, std::vector<core::CheckOutcome>* outcomes) {
  core::Stats total;
  for (const auto& [name, property] : sc.properties) {
    core::CheckOptions options;
    options.engine = engine;
    options.max_depth = depth;
    const auto outcome = core::check(sc.system, property, options);
    total.solvers_created += outcome.stats.solvers_created;
    total.frame_assertions += outcome.stats.frame_assertions;
    total.solver_checks += outcome.stats.solver_checks;
    if (outcomes) outcomes->push_back(outcome);
  }
  return total;
}

// --- Cost: the acceptance criterion of the shared encoding layer ------------

TEST(SessionStats, BmcSharesOneSolverAcrossProperties) {
  const auto sc = test_scenario("ses1");
  core::Session session(sc.system);
  for (const auto& [name, property] : sc.properties) session.add_property(name, property);
  ASSERT_EQ(session.num_properties(), 4u);

  core::SessionOptions batch_options;
  batch_options.engine = Engine::kBmc;
  batch_options.max_depth = 5;
  const auto batch = session.check_all(batch_options);

  std::vector<core::CheckOutcome> solo;
  const core::Stats solo_total = one_shot_total(sc, Engine::kBmc, 5, &solo);

  // One shared solver for all four properties; N one-shots build N.
  EXPECT_EQ(batch.total.solvers_created, 1u);
  EXPECT_LT(batch.total.solvers_created, solo_total.solvers_created);
  // The unrolling is translated once instead of once per property.
  EXPECT_LT(batch.total.frame_assertions, solo_total.frame_assertions);

  ASSERT_EQ(batch.properties.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i)
    EXPECT_EQ(batch.properties[i].outcome.verdict, solo[i].verdict)
        << batch.properties[i].name;
}

TEST(SessionStats, KInductionSharesBaseAndStepSolvers) {
  const auto sc = test_scenario("ses2");
  core::Session session(sc.system);
  for (const auto& [name, property] : sc.properties) session.add_property(name, property);

  core::SessionOptions batch_options;
  batch_options.engine = Engine::kKInduction;
  batch_options.max_depth = 10;
  const auto batch = session.check_all(batch_options);

  std::vector<core::CheckOutcome> solo;
  const core::Stats solo_total = one_shot_total(sc, Engine::kKInduction, 10, &solo);

  // One base + one step solver for the whole batch vs two per property.
  EXPECT_EQ(batch.total.solvers_created, 2u);
  EXPECT_LT(batch.total.solvers_created, solo_total.solvers_created);
  EXPECT_LT(batch.total.frame_assertions, solo_total.frame_assertions);

  ASSERT_EQ(batch.properties.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i)
    EXPECT_EQ(batch.properties[i].outcome.verdict, solo[i].verdict)
        << batch.properties[i].name;
}

// --- Parity: every (engine, property) pair, counterexamples confirmed -------

TEST(SessionParity, VerdictsMatchOneShotForEveryEngine) {
  const auto sc = test_scenario("ses3");
  for (const Engine engine :
       {Engine::kAuto, Engine::kBmc, Engine::kKInduction, Engine::kPdr}) {
    core::Session session(sc.system);
    for (const auto& [name, property] : sc.properties)
      session.add_property(name, property);

    core::SessionOptions batch_options;
    batch_options.engine = engine;
    batch_options.max_depth = 10;
    const auto batch = session.check_all(batch_options);

    std::size_t i = 0;
    for (const auto& [name, property] : sc.properties) {
      core::CheckOptions options;
      options.engine = engine;
      options.max_depth = 10;
      const auto solo = core::check(sc.system, property, options);
      const auto& outcome = batch.properties[i].outcome;
      EXPECT_EQ(outcome.verdict, solo.verdict)
          << name << " under engine " << static_cast<int>(engine);
      // kAuto sessions run their safety group by k-induction where one-shot
      // kAuto starts with PDR, so only the fixed engines share a depth. An
      // artifact is compared where both runs have one: a holds decided on the
      // counting quotient carries none, and the session's quotient covers
      // the whole group where the one-shot's covers one property.
      if (engine != Engine::kAuto) {
        EXPECT_EQ(outcome.stats.depth_reached, solo.stats.depth_reached)
            << name << " under engine " << static_cast<int>(engine);
      }
      if (induction_k(outcome) && induction_k(solo)) {
        EXPECT_EQ(*induction_k(outcome), *induction_k(solo)) << name;
      }
      if (outcome.violated()) {
        std::string error;
        EXPECT_TRUE(core::confirm_counterexample(sc.system, property, outcome, &error))
            << name << ": " << error;
      }
      ++i;
    }
  }
}

// --- Result API --------------------------------------------------------------

TEST(SessionResultApi, AggregatesAndTable) {
  const auto sc = test_scenario("ses5");
  core::Session session(sc.system);
  for (const auto& [name, property] : sc.properties) session.add_property(name, property);

  core::SessionOptions options;
  options.engine = Engine::kBmc;
  options.max_depth = 3;
  const auto result = session.check_all(options);

  // available_ge_m is violated (the checker may pick m > available); the
  // sanity invariants survive the bound.
  EXPECT_TRUE(result.any_violated());
  EXPECT_FALSE(result.all_hold());
  EXPECT_FALSE(result.all_clean());
  EXPECT_FALSE(result.any_undecided());

  const std::string table = result.table();
  EXPECT_NE(table.find("property"), std::string::npos);
  EXPECT_NE(table.find("available_ge_m"), std::string::npos);
  EXPECT_NE(table.find("violated"), std::string::npos);
  EXPECT_NE(table.find("bound-reached"), std::string::npos);
}

TEST(SessionResultApi, EmptySessionIsVacuouslyClean) {
  const auto sc = test_scenario("ses6");
  const core::Session session(sc.system);
  const auto result = session.check_all({});
  EXPECT_TRUE(result.all_hold());
  EXPECT_TRUE(result.all_clean());
  EXPECT_FALSE(result.any_violated());
  EXPECT_TRUE(result.properties.empty());
}

TEST(SessionResultApi, TextPropertiesParseThroughGlobalRegistry) {
  const auto sc = test_scenario("ses7");
  core::Session session(sc.system);
  // The scenario's variables are registered globally, so textual properties
  // resolve by name (satisfying the verdictc --props-file path end-to-end).
  session.add_property("m_nonneg", "G (ses7.m >= 0)");
  EXPECT_THROW(session.add_property("bad", ltl::Formula()), std::invalid_argument);

  core::SessionOptions options;
  options.engine = Engine::kKInduction;
  options.max_depth = 5;
  const auto result = session.check_all(options);
  ASSERT_EQ(result.properties.size(), 1u);
  EXPECT_EQ(result.properties[0].outcome.verdict, Verdict::kHolds);
}

// A deadline that is already gone must mark every property kTimeout and
// still populate the bookkeeping fields (no empty Stats on early exits).
TEST(SessionResultApi, ExpiredDeadlineTimesOutAllProperties) {
  const auto sc = test_scenario("ses8");
  core::Session session(sc.system);
  for (const auto& [name, property] : sc.properties) session.add_property(name, property);

  core::SessionOptions options;
  options.engine = Engine::kBmc;
  options.deadline = util::Deadline::after_seconds(0);
  const auto result = session.check_all(options);
  EXPECT_TRUE(result.any_undecided());
  for (const auto& pv : result.properties) {
    EXPECT_EQ(pv.outcome.verdict, Verdict::kTimeout) << pv.name;
    EXPECT_EQ(pv.outcome.stats.engine, "bmc");
  }
}

}  // namespace
}  // namespace verdict
