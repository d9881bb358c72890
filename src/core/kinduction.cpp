#include "core/kinduction.h"

#include "core/engine_util.h"
#include "enc/unroller.h"
#include "portfolio/lemma_bus.h"
#include "smt/solver.h"
#include "util/log.h"

namespace verdict::core {

using expr::Expr;

CheckOutcome check_invariant_kinduction(const ts::TransitionSystem& ts, Expr invariant,
                                        const KInductionOptions& options) {
  if (!invariant.valid() || !invariant.type().is_bool())
    throw std::invalid_argument("check_invariant_kinduction: invariant must be boolean");
  ts.validate();

  CheckOutcome outcome;
  EngineRun run(outcome, "k-induction");
  const Expr bad = expr::mk_not(invariant);

  // Base-case solver: init + unrolling, queried for !P at the frontier.
  smt::Solver base_solver;
  enc::Unroller base(base_solver, ts);
  run.track(base_solver);

  // Step solver: an arbitrary (not necessarily initial) simple path of k
  // states satisfying P, asked whether it can step into !P.
  smt::Solver step_solver;
  enc::Unroller step(step_solver, ts, {.assert_init = false});
  run.track(step_solver);

  // Shared-lemma feeds. Base: models are real executions, so asserting
  // reachability invariants changes no verdict. Step: a shortest (or
  // simple-path-compressed) counterexample suffix consists of reachable
  // states, which satisfy every bus lemma — asserting them keeps kViolated
  // and kHolds intact and can only make the step case UNSAT at a smaller k.
  portfolio::LemmaFeed base_lemmas(options.lemma_bus);
  portfolio::LemmaFeed step_lemmas(options.lemma_bus);

  for (int k = 0; k <= options.max_k; ++k) {
    run.note_depth(k);
    if (options.deadline.expired_or_cancelled())
      return run.finish(Verdict::kTimeout, "deadline expired at k=" + std::to_string(k));
    const double solve_before = base_solver.check_seconds() + step_solver.check_seconds();

    // --- Base: init-reachable violation within k steps?
    base.ensure_frames(k);
    base_lemmas.sync(base_solver, k);
    const std::vector<z3::expr> base_assumptions{base.literal(bad, k)};
    const smt::CheckResult base_result =
        base_solver.check_assuming(base_assumptions, options.deadline);
    if (base_result == smt::CheckResult::kSat) {
      base_solver.refine_real_model(ts.params(), 0, options.deadline, base_assumptions);
      ts::Trace trace;
      trace.params = base_solver.state_at(ts.params(), 0);
      for (int i = 0; i <= k; ++i) trace.states.push_back(base_solver.state_at(ts.vars(), i));
      outcome.counterexample = std::move(trace);
      return run.finish(Verdict::kViolated);
    }
    if (base_result == smt::CheckResult::kUnknown)
      return run.give_up(options.deadline, "base case unknown at k=" + std::to_string(k));

    // --- Step: P holds along frames 0..k, can frame k+1 violate it?
    step.ensure_frames(k + 1);
    step_lemmas.sync(step_solver, k + 1);
    step_solver.add(invariant, k);
    if (options.simple_path) {
      for (int j = 0; j < k + 1; ++j)
        step_solver.add(states_distinct(step_solver, ts, j, k + 1));
    }
    const std::vector<z3::expr> step_assumptions{step.literal(bad, k + 1)};
    const smt::CheckResult step_result =
        step_solver.check_assuming(step_assumptions, options.deadline);
    if (obs::TraceSink* s = obs::sink())
      s->event("kinduction.k")
          .attr("k", k)
          .attr("step_blocked", step_result == smt::CheckResult::kUnsat)
          .attr("solve_seconds",
                base_solver.check_seconds() + step_solver.check_seconds() - solve_before)
          .emit();
    if (step_result == smt::CheckResult::kUnsat) {
      // Certify the proof: a later model revision can re-check (k+1)-induction
      // at exactly this k (one base + one step query) instead of searching.
      ProofArtifact artifact;
      artifact.kind = ProofArtifact::Kind::kKInduction;
      artifact.k = k;
      outcome.artifact = std::move(artifact);
      return run.finish(Verdict::kHolds,
                        "proved by " + std::to_string(k + 1) + "-induction");
    }
    if (step_result == smt::CheckResult::kUnknown)
      return run.give_up(options.deadline, "step case unknown at k=" + std::to_string(k));
  }
  return run.finish(Verdict::kBoundReached,
                    "no proof or counterexample within k=" + std::to_string(options.max_k));
}

}  // namespace verdict::core
