#include "core/bmc.h"

#include "core/engine_util.h"
#include "enc/unroller.h"
#include "portfolio/lemma_bus.h"
#include "smt/solver.h"
#include "util/log.h"

namespace verdict::core {

using expr::Expr;

CheckOutcome check_invariant_bmc(const ts::TransitionSystem& ts, Expr invariant,
                                 const BmcOptions& options) {
  if (!invariant.valid() || !invariant.type().is_bool())
    throw std::invalid_argument("check_invariant_bmc: invariant must be boolean");
  ts.validate();

  CheckOutcome outcome;
  EngineRun run(outcome, "bmc");

  smt::Solver solver;
  enc::Unroller unroller(solver, ts);
  run.track(solver);
  const Expr bad = expr::mk_not(invariant);
  portfolio::LemmaFeed lemmas(options.lemma_bus);

  for (int k = 0; k <= options.max_depth; ++k) {
    if (options.deadline.expired_or_cancelled())
      return run.finish(Verdict::kTimeout,
                        "deadline expired before depth " + std::to_string(k));
    unroller.ensure_frames(k);
    lemmas.sync(solver, k);
    const double solve_before = solver.check_seconds();
    const std::vector<z3::expr> assumptions{unroller.literal(bad, k)};
    const smt::CheckResult r = solver.check_assuming(assumptions, options.deadline);
    run.note_depth(k);
    if (obs::TraceSink* s = obs::sink())
      s->event("bmc.depth")
          .attr("k", k)
          .attr("sat", r == smt::CheckResult::kSat)
          .attr("solve_seconds", solver.check_seconds() - solve_before)
          .emit();
    if (r == smt::CheckResult::kSat) {
      solver.refine_real_model(ts.params(), 0, options.deadline, assumptions);
      outcome.counterexample = extract_trace(solver, ts, k);
      return run.finish(Verdict::kViolated);
    }
    if (r == smt::CheckResult::kUnknown)
      return run.give_up(options.deadline,
                         "solver returned unknown at depth " + std::to_string(k));
  }
  return run.finish(Verdict::kBoundReached);
}

}  // namespace verdict::core
