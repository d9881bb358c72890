// Incremental re-verification (src/inc/): delta fingerprints, proof-artifact
// portability, certificate revalidation, and the cross-version reuse engine.
//
// The load-bearing assertions are the soundness ones: a kHolds is never
// carried without a cone-locally checked certificate, disk is never trusted
// (post-restart reuse revalidates), and every exported artifact really is an
// inductive/sufficient certificate when re-checked against the ORIGINAL
// pre-optimization system — not just the optimized one the engine happened
// to run on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/checker.h"
#include "core/session.h"
#include "inc/artifact.h"
#include "inc/profile.h"
#include "inc/reuse_engine.h"
#include "inc/revalidate.h"
#include "obs/trace.h"
#include "scenarios/rollout_partition.h"
#include "svc/fingerprint.h"
#include "svc/segment.h"
#include "svc/service.h"
#include "svc/verdict_cache.h"

namespace {

using namespace verdict;
using expr::Expr;

std::uint64_t counter(const char* name) {
  const auto snap = obs::counters_snapshot();
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

// Two constraint-disjoint counters: `x` saturates at x_cap (the property
// cone), `y` cycles mod 3 from y_init (the out-of-cone "sidecar"). Editing
// y_init is exactly the single-component mutation the subsystem exploits.
struct TwoCounters {
  ts::TransitionSystem sys;
  Expr x, y;
};

TwoCounters make_two_counters(const std::string& prefix, std::int64_t x_cap,
                              std::int64_t y_init) {
  TwoCounters tc;
  tc.x = expr::int_var(prefix + "_x", 0, 10);
  tc.y = expr::int_var(prefix + "_y", 0, 2);
  tc.sys.add_var(tc.x);
  tc.sys.add_var(tc.y);
  tc.sys.add_init(tc.x == 0);
  tc.sys.add_init(tc.y == y_init);
  tc.sys.add_trans(expr::mk_eq(
      expr::next(tc.x),
      expr::ite(tc.x < expr::int_const(x_cap), tc.x + 1, tc.x)));
  tc.sys.add_trans(expr::mk_eq(
      expr::next(tc.y),
      expr::ite(tc.y < 2, tc.y + 1, expr::int_const(0))));
  return tc;
}

ltl::Formula holds_property(const TwoCounters& tc, std::int64_t cap) {
  return ltl::G(ltl::atom(tc.x <= expr::int_const(cap)));
}

core::CheckOutcome run(const TwoCounters& tc, const ltl::Formula& p,
                       core::Engine engine) {
  core::CheckOptions options;
  options.engine = engine;
  options.max_depth = 30;
  return core::check(tc.sys, p, options);
}

// --- SystemProfile -----------------------------------------------------------

TEST(SystemProfile, DisjointCountersSplitIntoComponents) {
  const TwoCounters tc = make_two_counters("prof_a", 5, 0);
  const inc::SystemProfile profile(tc.sys);
  ASSERT_EQ(profile.components().size(), 2u);

  const ltl::Formula p = holds_property(tc, 5);
  const std::vector<std::size_t> cone = profile.cone_of(p);
  ASSERT_EQ(cone.size(), 1u);
  const inc::Component& c = profile.components()[cone[0]];
  ASSERT_EQ(c.vars.size(), 1u);
  EXPECT_TRUE(c.vars[0].is(tc.x));
}

TEST(SystemProfile, OutOfConeEditPreservesConeFingerprint) {
  const TwoCounters v1 = make_two_counters("prof_b", 5, 0);
  const TwoCounters v2 = make_two_counters("prof_b", 5, 1);  // y_init edited
  const ltl::Formula p = holds_property(v1, 5);

  // The full systems differ...
  EXPECT_NE(svc::fingerprint(v1.sys), svc::fingerprint(v2.sys));
  // ...but the property's cone does not.
  EXPECT_EQ(inc::SystemProfile(v1.sys).cone_fp(p),
            inc::SystemProfile(v2.sys).cone_fp(p));
}

TEST(SystemProfile, InConeEditChangesConeFingerprint) {
  const TwoCounters v1 = make_two_counters("prof_c", 5, 0);
  const TwoCounters v2 = make_two_counters("prof_c", 4, 0);  // x trans edited
  const ltl::Formula p = holds_property(v1, 5);
  EXPECT_NE(inc::SystemProfile(v1.sys).cone_fp(p),
            inc::SystemProfile(v2.sys).cone_fp(p));
}

TEST(SystemProfile, ConeSystemKeepsOnlyTheCone) {
  const TwoCounters tc = make_two_counters("prof_d", 5, 0);
  const inc::SystemProfile profile(tc.sys);
  const ts::TransitionSystem cone =
      profile.cone_system(profile.cone_of(holds_property(tc, 5)));
  ASSERT_EQ(cone.vars().size(), 1u);
  EXPECT_TRUE(cone.vars()[0].is(tc.x));
  EXPECT_EQ(cone.init_constraints().size(), 1u);
  EXPECT_EQ(cone.trans_constraints().size(), 1u);
}

TEST(SystemProfile, PropertyKeyIgnoresTheSystemButNotTheRequest) {
  const TwoCounters tc = make_two_counters("prof_e", 5, 0);
  const ltl::Formula p = holds_property(tc, 5);
  EXPECT_EQ(inc::property_key(p, core::Engine::kPdr, 30),
            inc::property_key(p, core::Engine::kPdr, 30));
  EXPECT_NE(inc::property_key(p, core::Engine::kPdr, 30),
            inc::property_key(p, core::Engine::kKInduction, 30));
  EXPECT_NE(inc::property_key(p, core::Engine::kPdr, 30),
            inc::property_key(p, core::Engine::kPdr, 31));
}

// --- Artifact serialization --------------------------------------------------

TEST(Artifact, RoundTripsThroughJson) {
  const TwoCounters tc = make_two_counters("art_a", 5, 0);
  core::ProofArtifact artifact;
  artifact.kind = core::ProofArtifact::Kind::kPdrInvariant;
  artifact.k = 3;
  ts::State cube;
  cube.set(tc.x, std::int64_t{7});
  cube.set(tc.y, std::int64_t{1});
  artifact.cubes.push_back(cube);
  artifact.pinned.set(tc.y, std::int64_t{0});

  const std::string json = inc::artifact_to_json(artifact);
  const std::optional<core::ProofArtifact> back = inc::artifact_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, artifact.kind);
  EXPECT_EQ(back->k, 3);
  ASSERT_EQ(back->cubes.size(), 1u);
  EXPECT_EQ(back->cubes[0], cube);
  EXPECT_EQ(back->pinned, artifact.pinned);
}

TEST(Artifact, RejectsMalformedDocuments) {
  EXPECT_FALSE(inc::artifact_from_json(std::string("not json")).has_value());
  EXPECT_FALSE(inc::artifact_from_json(
                   std::string(R"({"schema":"other","kind":"pdr","k":0})"))
                   .has_value());
  EXPECT_FALSE(inc::artifact_from_json(std::string(
                   R"({"schema":"verdict-artifact-v1","kind":"alien","k":0})"))
                   .has_value());
  // k outside int, or not whole, rejects rather than reach the cast.
  for (const char* k : {"-1", "-5", "1e300", "-1e300", "3e9", "2.5"}) {
    EXPECT_FALSE(inc::artifact_from_json(
                     std::string(R"({"schema":"verdict-artifact-v1","kind":"pdr","k":)") + k +
                     "}")
                     .has_value())
        << "k = " << k;
  }
  EXPECT_TRUE(inc::artifact_from_json(
                  std::string(R"({"schema":"verdict-artifact-v1","kind":"pdr","k":2147483647})"))
                  .has_value());
}

// --- Revalidation ------------------------------------------------------------

TEST(Revalidate, PdrArtifactPassesOnItsOwnSystem) {
  const TwoCounters tc = make_two_counters("rev_a", 5, 0);
  const ltl::Formula p = holds_property(tc, 5);
  const core::CheckOutcome out = run(tc, p, core::Engine::kPdr);
  ASSERT_EQ(out.verdict, core::Verdict::kHolds);
  ASSERT_TRUE(out.artifact.has_value());
  EXPECT_EQ(out.artifact->kind, core::ProofArtifact::Kind::kPdrInvariant);

  const inc::RevalidateResult r =
      inc::revalidate(tc.sys, p, *out.artifact, util::Deadline::never());
  EXPECT_TRUE(r.valid) << r.reason;
  EXPECT_LE(r.solver_checks, 2u);
}

TEST(Revalidate, KInductionArtifactPassesOnItsOwnSystem) {
  const TwoCounters tc = make_two_counters("rev_b", 5, 0);
  const ltl::Formula p = holds_property(tc, 5);
  const core::CheckOutcome out = run(tc, p, core::Engine::kKInduction);
  ASSERT_EQ(out.verdict, core::Verdict::kHolds);
  ASSERT_TRUE(out.artifact.has_value());
  EXPECT_EQ(out.artifact->kind, core::ProofArtifact::Kind::kKInduction);

  const inc::RevalidateResult r =
      inc::revalidate(tc.sys, p, *out.artifact, util::Deadline::never());
  EXPECT_TRUE(r.valid) << r.reason;
  EXPECT_EQ(r.solver_checks, 2u);
}

TEST(Revalidate, FailsOnASystemThatBreaksTheProperty) {
  const TwoCounters good = make_two_counters("rev_c", 5, 0);
  const ltl::Formula p = holds_property(good, 5);
  const core::CheckOutcome out = run(good, p, core::Engine::kPdr);
  ASSERT_EQ(out.verdict, core::Verdict::kHolds);
  ASSERT_TRUE(out.artifact.has_value());

  // Same variables, but x now saturates at 8 > 5: G(x <= 5) is false and NO
  // certificate may survive the re-check.
  const TwoCounters bad = make_two_counters("rev_c", 8, 0);
  const inc::RevalidateResult r =
      inc::revalidate(bad.sys, p, *out.artifact, util::Deadline::never());
  EXPECT_FALSE(r.valid);
}

TEST(Revalidate, FailsWhenCertificateVariablesAreMissing) {
  const TwoCounters tc = make_two_counters("rev_d", 5, 0);
  const ltl::Formula p = holds_property(tc, 5);
  core::ProofArtifact artifact;
  artifact.kind = core::ProofArtifact::Kind::kPdrInvariant;
  ts::State cube;
  cube.set(expr::int_var("rev_d_alien", 0, 1), std::int64_t{0});
  artifact.cubes.push_back(cube);
  const inc::RevalidateResult r =
      inc::revalidate(tc.sys, p, artifact, util::Deadline::never());
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.solver_checks, 0u);  // rejected before any solver work
}

// --- ReuseEngine -------------------------------------------------------------

TEST(ReuseEngine, CarriesHoldsAcrossOutOfConeEditWithZeroSolverWork) {
  svc::VerdictCache cache;
  inc::ReuseEngine engine(cache);
  svc::SessionCache hook(cache, &engine);

  const TwoCounters v1 = make_two_counters("re_a", 5, 0);
  const ltl::Formula p = holds_property(v1, 5);
  const core::CheckOutcome cold = run(v1, p, core::Engine::kPdr);
  ASSERT_EQ(cold.verdict, core::Verdict::kHolds);
  hook.store(v1.sys, p, core::Engine::kPdr, 30, cold);
  EXPECT_GE(counter("inc.artifact_exported"), 1u);

  const TwoCounters v2 = make_two_counters("re_a", 5, 1);  // sidecar edited
  const std::uint64_t reused_before = counter("inc.properties_reused");
  const std::uint64_t revalidated_before = counter("inc.invariants_revalidated");

  // The plan agrees this is a zero-solver carry...
  const inc::DeltaPlan plan =
      engine.plan(v2.sys, std::vector<ltl::Formula>{p}, core::Engine::kPdr, 30);
  ASSERT_EQ(plan.entries.size(), 1u);
  EXPECT_EQ(plan.entries[0].action, inc::DeltaPlan::Action::kReuseVerdict);

  // ...and the live path delivers it: a lookup miss on the exact fingerprint
  // falls through to cross-version reuse and returns the prior verdict.
  const std::optional<core::CheckOutcome> warm =
      hook.lookup(v2.sys, p, core::Engine::kPdr, 30, util::Deadline::never());
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->verdict, core::Verdict::kHolds);
  EXPECT_EQ(warm->message, cold.message);  // bit-identical carry
  EXPECT_EQ(counter("inc.properties_reused"), reused_before + 1);
  EXPECT_EQ(counter("inc.invariants_revalidated"), revalidated_before);

  // Second lookup on the SAME new version is now an exact cache hit.
  EXPECT_TRUE(
      hook.lookup(v2.sys, p, core::Engine::kPdr, 30, util::Deadline::never()).has_value());
}

TEST(ReuseEngine, RevalidatesWhenTheConeItselfChanged) {
  svc::VerdictCache cache;
  inc::ReuseEngine engine(cache);
  svc::SessionCache hook(cache, &engine);

  const TwoCounters v1 = make_two_counters("re_b", 4, 0);
  const ltl::Formula p = holds_property(v1, 5);
  const core::CheckOutcome cold = run(v1, p, core::Engine::kPdr);
  ASSERT_EQ(cold.verdict, core::Verdict::kHolds);
  hook.store(v1.sys, p, core::Engine::kPdr, 30, cold);

  // In-cone edit that PRESERVES the property: x saturates at 5 instead of 4;
  // the old invariant must be re-proved, not trusted.
  const TwoCounters v2 = make_two_counters("re_b", 5, 0);

  const std::uint64_t revalidated_before = counter("inc.invariants_revalidated");
  const std::uint64_t failed_before = counter("inc.revalidation_failed");
  const std::optional<core::CheckOutcome> warm =
      hook.lookup(v2.sys, p, core::Engine::kPdr, 30, util::Deadline::never());
  const std::uint64_t revalidated_after = counter("inc.invariants_revalidated");
  const std::uint64_t failed_after = counter("inc.revalidation_failed");

  // Whether the old certificate survives the new cone is the solver's call —
  // what is NOT allowed is a carried verdict without a revalidation.
  if (warm.has_value()) {
    EXPECT_EQ(warm->verdict, core::Verdict::kHolds);
    EXPECT_EQ(revalidated_after, revalidated_before + 1);
  } else {
    EXPECT_EQ(failed_after, failed_before + 1);
  }
  // Either way the scratch answer agrees.
  EXPECT_EQ(run(v2, p, core::Engine::kPdr).verdict, core::Verdict::kHolds);
}

TEST(ReuseEngine, NeverCarriesHoldsIntoASystemWhereItIsFalse) {
  svc::VerdictCache cache;
  inc::ReuseEngine engine(cache);
  svc::SessionCache hook(cache, &engine);

  const TwoCounters v1 = make_two_counters("re_c", 5, 0);
  const ltl::Formula p = holds_property(v1, 5);
  const core::CheckOutcome cold = run(v1, p, core::Engine::kPdr);
  ASSERT_EQ(cold.verdict, core::Verdict::kHolds);
  hook.store(v1.sys, p, core::Engine::kPdr, 30, cold);

  // In-cone edit that BREAKS the property: x now climbs to 9.
  const TwoCounters v2 = make_two_counters("re_c", 9, 0);

  const std::uint64_t failed_before = counter("inc.revalidation_failed");
  const std::optional<core::CheckOutcome> warm =
      hook.lookup(v2.sys, p, core::Engine::kPdr, 30, util::Deadline::never());
  EXPECT_FALSE(warm.has_value());  // revalidation fails -> scratch
  EXPECT_EQ(counter("inc.revalidation_failed"), failed_before + 1);
  EXPECT_EQ(run(v2, p, core::Engine::kPdr).verdict, core::Verdict::kViolated);
}

TEST(ReuseEngine, ReplaysCounterexamplesOnTheNewFullSystem) {
  svc::VerdictCache cache;
  inc::ReuseEngine engine(cache);
  svc::SessionCache hook(cache, &engine);

  const TwoCounters v1 = make_two_counters("re_d", 5, 0);
  const ltl::Formula p = holds_property(v1, 3);  // violated: x reaches 4
  const core::CheckOutcome cold = run(v1, p, core::Engine::kBmc);
  ASSERT_EQ(cold.verdict, core::Verdict::kViolated);
  hook.store(v1.sys, p, core::Engine::kBmc, 30, cold);

  // Out-of-cone edit that PRESERVES executions (a tightened but vacuous
  // monitoring invariant on y): the old trace is still a genuine execution
  // of the new system and the violation carries with zero solver work. Note
  // an out-of-cone edit that changes executions (say y's init) correctly
  // does NOT replay — the stored trace embeds out-of-cone values.
  TwoCounters v2 = make_two_counters("re_d", 5, 0);
  v2.sys.add_invar(v2.y <= expr::int_const(2));
  ASSERT_NE(svc::fingerprint(v1.sys), svc::fingerprint(v2.sys));
  const std::uint64_t replayed_before = counter("inc.cex_replayed");
  const std::optional<core::CheckOutcome> warm =
      hook.lookup(v2.sys, p, core::Engine::kBmc, 30, util::Deadline::never());
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->verdict, core::Verdict::kViolated);
  EXPECT_EQ(counter("inc.cex_replayed"), replayed_before + 1);

  // In-cone edit that FIXES the bug (x saturates at 3): the stale trace must
  // not replay, and reuse must decline.
  const TwoCounters v3 = make_two_counters("re_d", 3, 0);
  EXPECT_FALSE(
      hook.lookup(v3.sys, p, core::Engine::kBmc, 30, util::Deadline::never()).has_value());
}

// A scratch directory holding one segment file, removed with the fixture.
struct SegmentDir {
  SegmentDir() {
    char dir[] = "/tmp/inc_test.XXXXXX";
    if (::mkdtemp(dir) == nullptr) throw std::runtime_error("mkdtemp failed");
    path = dir;
  }
  ~SegmentDir() {
    ::unlink(segment().c_str());
    ::rmdir(path.c_str());
  }
  [[nodiscard]] std::string segment() const { return path + "/verdicts.seg"; }
  std::string path;
};

TEST(ReuseEngine, RestartRevalidatesInsteadOfTrustingDisk) {
  const SegmentDir dir;
  const TwoCounters tc = make_two_counters("re_e", 5, 0);
  const ltl::Formula p = holds_property(tc, 5);
  {
    svc::VerdictCache cache;
    svc::SegmentStore segment(dir.segment());
    inc::ReuseEngine engine(cache);
    svc::SessionCache hook(cache, &engine, &segment);
    const core::CheckOutcome cold = run(tc, p, core::Engine::kPdr);
    ASSERT_EQ(cold.verdict, core::Verdict::kHolds);
    hook.store(tc.sys, p, core::Engine::kPdr, 30, cold);
  }

  // "Restarted daemon": a fresh service warms its cache from the reopened
  // segment, and a fresh engine indexes it. The entry for the IDENTICAL
  // system is an exact hit (no revalidation involved); for an edited system
  // — even one whose cone is unchanged — the artifact came from disk and
  // must be re-proved before it is carried.
  svc::Service service({.jobs = 1, .segment_file = dir.segment()});
  inc::ReuseEngine engine(service.cache());
  ASSERT_GT(engine.rebuild_from_cache(), 0u);
  svc::SessionCache hook(service.cache(), &engine, service.segment());

  const TwoCounters v2 = make_two_counters("re_e", 5, 1);  // out-of-cone edit
  const std::uint64_t revalidated_before = counter("inc.invariants_revalidated");
  const std::optional<core::CheckOutcome> warm =
      hook.lookup(v2.sys, p, core::Engine::kPdr, 30, util::Deadline::never());
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->verdict, core::Verdict::kHolds);
  EXPECT_EQ(counter("inc.invariants_revalidated"), revalidated_before + 1);
}

// A verdict the incremental layer carries over is stored like a computed
// one: written through to the segment under the edited model's fingerprint.
// So a service restarted on the same segment answers the edited model as an
// exact hit, without revalidating or carrying anything again.
TEST(ReuseEngine, CarriedVerdictSurvivesARestart) {
  const SegmentDir dir;
  const TwoCounters v1 = make_two_counters("re_f", 5, 0);
  const TwoCounters v2 = make_two_counters("re_f", 5, 1);  // out-of-cone edit
  svc::CheckRequest request;
  request.property = holds_property(v1, 5);
  request.engine = core::Engine::kPdr;
  request.max_depth = 30;
  {
    svc::Service service({.jobs = 1, .segment_file = dir.segment()});
    inc::ReuseEngine engine(service.cache());
    service.set_reuse(&engine);
    request.system = &v1.sys;
    const svc::CheckResponse cold = service.check(request);
    ASSERT_EQ(cold.outcome.verdict, core::Verdict::kHolds);
    ASSERT_FALSE(cold.cache_hit);
    request.system = &v2.sys;
    const svc::CheckResponse edited = service.check(request);
    ASSERT_EQ(edited.outcome.verdict, core::Verdict::kHolds);
    ASSERT_TRUE(edited.cache_hit) << "the edited model must be answered by reuse";
  }

  svc::Service service({.jobs = 1, .segment_file = dir.segment()});
  inc::ReuseEngine engine(service.cache());
  (void)engine.rebuild_from_cache();
  service.set_reuse(&engine);
  const std::uint64_t revalidated_before = counter("inc.invariants_revalidated");
  const std::uint64_t reused_before = counter("inc.properties_reused");
  request.system = &v2.sys;
  const svc::CheckResponse warm = service.check(request);
  EXPECT_EQ(warm.outcome.verdict, core::Verdict::kHolds);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(counter("inc.invariants_revalidated"), revalidated_before);
  EXPECT_EQ(counter("inc.properties_reused"), reused_before);
}

// --- Crosscheck: artifacts against the original pre-optimization system ------
//
// core::check runs its engines on the OPTIMIZED (folded, constant-propagated,
// sliced) system; the artifact records the optimizer's pins precisely so the
// certificate can stand on un-optimized ground. This suite re-checks every
// exported artifact against the original full system across the engine set —
// if an optimization pass ever produced a certificate that only holds on the
// rewritten model, this is the test that catches it.

class ArtifactCrosscheck : public ::testing::TestWithParam<core::Engine> {};

TEST_P(ArtifactCrosscheck, ExportedArtifactsHoldOnTheOriginalSystem) {
  scenarios::RolloutPartitionOptions options;
  options.prefix = "inc_xc";
  const auto scenario = scenarios::make_test_scenario(options);
  ts::TransitionSystem system = scenario.system;
  // Safe configuration (§4.2): p = k = m = 1 holds.
  system.add_param_constraint(scenario.p == expr::int_const(1));
  system.add_param_constraint(scenario.k == expr::int_const(1));
  system.add_param_constraint(scenario.m == expr::int_const(1));

  for (const auto& [name, property] : scenario.properties) {
    core::CheckOptions check;
    check.engine = GetParam();
    check.max_depth = 30;
    check.optimize = true;  // certificates must survive the pipeline
    const core::CheckOutcome out = core::check(system, property, check);
    if (out.verdict != core::Verdict::kHolds || !out.artifact) continue;

    // Against the original full system...
    const inc::RevalidateResult full =
        inc::revalidate(system, property, *out.artifact, util::Deadline::never());
    EXPECT_TRUE(full.valid) << name << " (full system): " << full.reason;

    // ...and against the raw cone subsystem the reuse engine would use.
    const inc::SystemProfile profile(system);
    const inc::RevalidateResult cone = inc::revalidate(
        profile.cone_system(profile.cone_of(property)), property, *out.artifact,
        util::Deadline::never());
    EXPECT_TRUE(cone.valid) << name << " (cone system): " << cone.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ArtifactCrosscheck,
                         ::testing::Values(core::Engine::kPdr,
                                           core::Engine::kKInduction),
                         [](const auto& info) {
                           return info.param == core::Engine::kPdr ? "pdr"
                                                                   : "kinduction";
                         });

// Session-level: check_all exports artifacts through the shared-k-induction
// path too; everything it records must revalidate.
TEST(ArtifactCrosscheck, SessionExportsRevalidatableArtifacts) {
  svc::VerdictCache cache;
  inc::ReuseEngine engine(cache);
  svc::SessionCache hook(cache, &engine);

  scenarios::RolloutPartitionOptions options;
  options.prefix = "inc_xs";
  const auto scenario = scenarios::make_test_scenario(options);
  ts::TransitionSystem system = scenario.system;
  system.add_param_constraint(scenario.p == expr::int_const(1));
  system.add_param_constraint(scenario.k == expr::int_const(1));
  system.add_param_constraint(scenario.m == expr::int_const(1));

  core::Session session(system);
  for (const auto& [name, property] : scenario.properties)
    session.add_property(name, property);
  core::SessionOptions batch;
  batch.engine = core::Engine::kAuto;
  batch.max_depth = 30;
  batch.cache = &hook;
  const core::SessionResult result = session.check_all(batch);

  // record() validated each artifact eagerly; every kHolds with a stored
  // artifact must revalidate cone-locally.
  std::size_t with_artifact = 0;
  const inc::SystemProfile profile(system);
  for (const auto& pv : result.properties) {
    if (pv.outcome.verdict != core::Verdict::kHolds || !pv.outcome.artifact)
      continue;
    ++with_artifact;
    const inc::RevalidateResult r = inc::revalidate(
        profile.cone_system(profile.cone_of(pv.property)), pv.property,
        *pv.outcome.artifact, util::Deadline::never());
    EXPECT_TRUE(r.valid) << pv.name << ": " << r.reason;
  }
  EXPECT_GT(with_artifact, 0u);
}

// --- svc fingerprint memo bound (the satellite fix) --------------------------

TEST(FingerprintMemo, GlobalMemoClearsInsteadOfGrowingUnbounded) {
  // Hash >2^16 distinct nodes through svc::fingerprint in one process: the
  // process-global memo must wholesale-clear (and count it) rather than
  // retain every node ever hashed.
  const std::uint64_t clears_before = counter("svc.fp_memo_clears");
  for (int i = 0; i < 70000; ++i)
    (void)svc::fingerprint(expr::int_var("memo_v" + std::to_string(i), 0, 3));
  EXPECT_GT(counter("svc.fp_memo_clears"), clears_before);
}

}  // namespace
