// Shared engine-run bookkeeping.
//
// Every bounded engine used to stamp Stats::{solver_checks, seconds,
// depth_reached} by hand at each return site, and the copies drifted (the
// timeout `break` path of the old BMC loop reported different numbers than
// its early returns). EngineRun is the one place those fields are written:
// engines register the solvers they keep alive with track() (counters are
// read at finish time) and leave through finish() or give_up() on every
// path — success, bound, timeout, and unknown alike.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/result.h"
#include "expr/eval.h"
#include "obs/trace.h"
#include "smt/solver.h"
#include "util/stopwatch.h"

namespace verdict::core {

class EngineRun {
 public:
  EngineRun(CheckOutcome& outcome, std::string engine) : outcome_(outcome) {
    outcome_.stats.engine = std::move(engine);
    if (obs::TraceSink* s = obs::sink())
      s->event("engine.start").attr("engine", outcome_.stats.engine).emit();
  }

  /// Registers a solver that stays alive until finish()/give_up(); its
  /// check/assertion counters are folded into the stats on exit.
  void track(const smt::Solver& solver) { tracked_.push_back(&solver); }

  /// Records exploration progress (unroll depth / induction k / frame).
  void note_depth(int depth) { outcome_.stats.depth_reached = depth; }

  /// Stamps the stats and verdict; the single exit point for every path.
  /// Also emits the "engine.finish" trace event every engine shares.
  CheckOutcome& finish(Verdict verdict, std::string message = "") {
    outcome_.verdict = verdict;
    if (!message.empty()) outcome_.message = std::move(message);
    outcome_.stats.seconds = watch_.elapsed_seconds();
    outcome_.stats.solver_checks = 0;
    outcome_.stats.frame_assertions = 0;
    outcome_.stats.solvers_created = tracked_.size();
    outcome_.stats.solver_seconds = 0.0;
    for (const smt::Solver* s : tracked_) {
      outcome_.stats.solver_checks += s->num_checks();
      outcome_.stats.frame_assertions += s->num_assertions();
      outcome_.stats.solver_seconds += s->check_seconds();
    }
    if (obs::TraceSink* s = obs::sink())
      s->event("engine.finish")
          .attr("engine", outcome_.stats.engine)
          .attr("verdict", verdict_name(verdict))
          .attr("seconds", outcome_.stats.seconds)
          .attr("solver_seconds", outcome_.stats.solver_seconds)
          .attr("checks", outcome_.stats.solver_checks)
          .attr("depth", outcome_.stats.depth_reached)
          .emit();
    return outcome_;
  }

  /// The timeout/unknown split every engine needs: kTimeout when the deadline
  /// (or a portfolio cancellation) caused the solver to give up, kUnknown
  /// when the solver gave up on its own.
  CheckOutcome& give_up(const util::Deadline& deadline, std::string message) {
    return finish(deadline.expired_or_cancelled() ? Verdict::kTimeout : Verdict::kUnknown,
                  std::move(message));
  }

 private:
  CheckOutcome& outcome_;
  util::Stopwatch watch_;
  std::vector<const smt::Solver*> tracked_;
};

/// The trace of frames 0..depth in the solver's current model.
inline ts::Trace extract_trace(smt::Solver& solver, const ts::TransitionSystem& ts,
                               int depth) {
  ts::Trace trace;
  trace.params = solver.state_at(ts.params(), 0);
  for (int i = 0; i <= depth; ++i) trace.states.push_back(solver.state_at(ts.vars(), i));
  return trace;
}

/// "State i differs from state j" as a formula over frames i and j: the
/// simple-path strengthening of k-induction.
inline z3::expr states_distinct(smt::Solver& solver, const ts::TransitionSystem& ts,
                                int i, int j) {
  z3::expr_vector diffs(solver.context());
  for (const expr::Expr v : ts.vars())
    diffs.push_back(solver.translate(v, i) != solver.translate(v, j));
  return z3::mk_or(diffs);
}

/// A copy of `ts` whose parameters are pinned to the given assignment.
inline ts::TransitionSystem pinned_system(const ts::TransitionSystem& ts,
                                          const ts::State& params) {
  ts::TransitionSystem pinned = ts;
  for (const expr::Expr p : ts.params()) {
    const auto v = params.get(p);
    if (!v) throw std::invalid_argument("pinned_system: missing parameter value");
    pinned.add_param_constraint(expr::mk_eq(p, expr::constant_of(*v, p.type())));
  }
  return pinned;
}

/// Does a previously found counterexample stay feasible under `params`, with
/// its final state still violating `invariant`?
inline bool trace_feasible_under(const ts::TransitionSystem& ts, const ts::Trace& witness,
                                 const ts::State& params, expr::Expr invariant) {
  ts::Trace replay = witness;
  replay.params = params;
  std::string ignored;
  if (!ts.trace_conforms(replay, &ignored)) return false;
  return !expr::eval_bool(invariant, ts.env_of(replay.states.back(), params));
}

}  // namespace verdict::core
