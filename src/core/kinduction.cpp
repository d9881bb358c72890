#include "core/kinduction.h"

#include <algorithm>

#include "core/engine_util.h"
#include "enc/unroller.h"
#include "smt/solver.h"
#include "util/log.h"

namespace verdict::core {

using expr::Expr;

CheckOutcome check_invariant_kinduction(const ts::TransitionSystem& ts, Expr invariant,
                                        const KInductionOptions& options) {
  const InvariantQuery query{.invariant = invariant};
  return std::move(check_invariant_kinduction_batch(ts, std::span(&query, 1), options)
                       .outcomes.front());
}

InvariantBatchResult check_invariant_kinduction_batch(
    const ts::TransitionSystem& ts, std::span<const InvariantQuery> queries,
    const KInductionOptions& options) {
  ts.validate();
  EngineRun run(queries, "k-induction", "check_invariant_kinduction");
  std::vector<Expr> bad;
  for (const InvariantQuery& q : queries) bad.push_back(expr::mk_not(q.invariant));
  const bool one_invariant =
      std::all_of(queries.begin(), queries.end(), [&](const InvariantQuery& q) {
        return q.invariant.is(queries.front().invariant);
      });

  // Base-case solver: init + unrolling, queried for !P at the frontier.
  smt::Solver base_solver;
  enc::Unroller base(base_solver, ts);
  run.track(base_solver);

  // Step solver: an arbitrary (not necessarily initial) simple path of k
  // states satisfying P, asked whether it can step into !P.
  smt::Solver step_solver;
  enc::Unroller step(step_solver, ts, {.assert_init = false});
  run.track(step_solver);

  for (int k = 0; k <= options.max_k && !run.done(); ++k) {
    run.note_depth(k);
    if (options.deadline.expired_or_cancelled()) {
      run.resolve_pending(Verdict::kTimeout, "deadline expired at k=" + std::to_string(k));
      break;
    }
    const double solve_before = base_solver.check_seconds() + step_solver.check_seconds();

    // --- Base: init-reachable violation within k steps?
    base.ensure_frames(k);
    for (const std::size_t i : run.pending()) {
      const util::Deadline slice = run.slice(i, options.deadline);
      const std::vector<z3::expr> assumptions =
          run.assumptions(base, i, base.literal(bad[i], k));
      const smt::CheckResult r = run.check(base_solver, i, assumptions, slice);
      if (r == smt::CheckResult::kSat) {
        base_solver.refine_real_model(ts.params(), 0, slice, assumptions);
        run.outcome(i).counterexample = extract_trace(base_solver, ts, k);
        run.resolve(i, Verdict::kViolated);
      } else if (r == smt::CheckResult::kUnknown) {
        run.give_up(i, slice, "base case unknown at k=" + std::to_string(k));
      }
    }
    if (run.done()) break;

    // --- Step: P holds along frames 0..k, can frame k+1 violate it?
    step.ensure_frames(k + 1);
    if (one_invariant) step_solver.add(queries.front().invariant, k);
    for (int j = 0; j < k + 1; ++j)
      step_solver.add(states_distinct(step_solver, ts, j, k + 1));
    bool step_blocked = false;
    for (const std::size_t i : run.pending()) {
      const util::Deadline slice = run.slice(i, options.deadline);
      std::vector<z3::expr> assumptions =
          run.assumptions(step, i, step.literal(bad[i], k + 1));
      if (!one_invariant)
        for (int j = 0; j <= k; ++j)
          assumptions.push_back(step.literal(queries[i].invariant, j));
      const smt::CheckResult r = run.check(step_solver, i, assumptions, slice);
      if (r == smt::CheckResult::kUnsat) {
        // Certify the proof: a later model revision can re-check
        // (k+1)-induction at exactly this k (one base + one step query)
        // instead of searching.
        step_blocked = true;
        ProofArtifact artifact;
        artifact.kind = ProofArtifact::Kind::kKInduction;
        artifact.k = k;
        run.outcome(i).artifact = std::move(artifact);
        run.resolve(i, Verdict::kHolds, "proved by " + std::to_string(k + 1) + "-induction");
      } else if (r == smt::CheckResult::kUnknown) {
        run.give_up(i, slice, "step case unknown at k=" + std::to_string(k));
      }
    }
    if (obs::TraceSink* s = obs::sink())
      s->event("kinduction.k")
          .attr("k", k)
          .attr("step_blocked", step_blocked)
          .attr("pending", run.pending().size())
          .attr("solve_seconds",
                base_solver.check_seconds() + step_solver.check_seconds() - solve_before)
          .emit();
  }
  return run.finish(Verdict::kBoundReached,
                    "no proof or counterexample within k=" + std::to_string(options.max_k));
}

}  // namespace verdict::core
