#include "core/bmc.h"

#include "core/engine_util.h"
#include "enc/unroller.h"
#include "smt/solver.h"
#include "util/log.h"

namespace verdict::core {

using expr::Expr;

CheckOutcome check_invariant_bmc(const ts::TransitionSystem& ts, Expr invariant,
                                 const BmcOptions& options) {
  const InvariantQuery query{.invariant = invariant};
  return std::move(check_invariant_bmc_batch(ts, std::span(&query, 1), options)
                       .outcomes.front());
}

InvariantBatchResult check_invariant_bmc_batch(const ts::TransitionSystem& ts,
                                               std::span<const InvariantQuery> queries,
                                               const BmcOptions& options) {
  ts.validate();
  EngineRun run(queries, "bmc", "check_invariant_bmc");

  smt::Solver solver;
  enc::Unroller unroller(solver, ts);
  run.track(solver);
  std::vector<Expr> bad;
  for (const InvariantQuery& q : queries) bad.push_back(expr::mk_not(q.invariant));

  for (int k = 0; k <= options.max_depth && !run.done(); ++k) {
    if (options.deadline.expired_or_cancelled()) {
      run.resolve_pending(Verdict::kTimeout,
                          "deadline expired before depth " + std::to_string(k));
      break;
    }
    unroller.ensure_frames(k);
    run.note_depth(k);
    const double solve_before = solver.check_seconds();
    bool sat = false;
    for (const std::size_t i : run.pending()) {
      const util::Deadline slice = run.slice(i, options.deadline);
      const std::vector<z3::expr> assumptions =
          run.assumptions(unroller, i, unroller.literal(bad[i], k));
      const smt::CheckResult r = run.check(solver, i, assumptions, slice);
      if (r == smt::CheckResult::kSat) {
        sat = true;
        solver.refine_real_model(ts.params(), 0, slice, assumptions);
        run.outcome(i).counterexample = extract_trace(solver, ts, k);
        run.resolve(i, Verdict::kViolated);
      } else if (r == smt::CheckResult::kUnknown) {
        run.give_up(i, slice, "solver returned unknown at depth " + std::to_string(k));
      }
    }
    if (obs::TraceSink* s = obs::sink())
      s->event("bmc.depth")
          .attr("k", k)
          .attr("sat", sat)
          .attr("pending", run.pending().size())
          .attr("solve_seconds", solver.check_seconds() - solve_before)
          .emit();
  }
  return run.finish(Verdict::kBoundReached);
}

}  // namespace verdict::core
