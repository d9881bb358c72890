// Shared engine-run bookkeeping of the bounded batch engines.
//
// BMC and k-induction answer a span of InvariantQuery over one unrolling.
// EngineRun is the one place their stats are written: engines register the
// solvers they keep alive with track() (counters are read at finish time),
// run every query's check through check() (its checks and time are charged to
// that query, under its budget), retire queries with resolve()/give_up(), and
// leave through finish() on every path — success, bound, timeout, and unknown
// alike. The run is one engine.start/engine.finish span whatever the batch
// size.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/bmc.h"
#include "core/result.h"
#include "enc/unroller.h"
#include "expr/eval.h"
#include "obs/trace.h"
#include "smt/solver.h"
#include "util/stopwatch.h"

namespace verdict::core {

class EngineRun {
 public:
  /// Validates the queries (`entry` names the caller in the error) and opens
  /// the run's engine.start span.
  EngineRun(std::span<const InvariantQuery> queries, std::string engine, const char* entry)
      : queries_(queries), spent_(queries.size(), 0.0) {
    for (const InvariantQuery& q : queries) {
      if (!q.invariant.valid() || !q.invariant.type().is_bool())
        throw std::invalid_argument(std::string(entry) + ": invariant must be boolean");
      if (q.assume.valid() && !q.assume.type().is_bool())
        throw std::invalid_argument(std::string(entry) + ": assumption must be boolean");
    }
    result_.shared.engine = std::move(engine);
    result_.outcomes.resize(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      result_.outcomes[i].stats.engine = result_.shared.engine;
      pending_.push_back(i);
    }
    if (obs::TraceSink* s = obs::sink())
      s->event("engine.start").attr("engine", result_.shared.engine).emit();
  }

  /// Registers a solver that stays alive until finish(); its check/assertion
  /// counters are folded into the shared stats on exit.
  void track(const smt::Solver& solver) { tracked_.push_back(&solver); }

  /// Unresolved queries in batch order (a copy: resolving erases).
  [[nodiscard]] std::vector<std::size_t> pending() const { return pending_; }
  [[nodiscard]] bool done() const { return pending_.empty(); }
  [[nodiscard]] CheckOutcome& outcome(std::size_t i) { return result_.outcomes[i]; }

  /// Records exploration progress (unroll depth / induction k) on every
  /// pending query.
  void note_depth(int depth) {
    result_.shared.depth_reached = depth;
    for (const std::size_t i : pending_) result_.outcomes[i].stats.depth_reached = depth;
  }

  /// `deadline` clipped to what is left of query i's budget.
  [[nodiscard]] util::Deadline slice(std::size_t i, const util::Deadline& deadline) const {
    const double budget = queries_[i].budget_seconds;
    return budget == std::numeric_limits<double>::infinity()
               ? deadline
               : deadline.clipped_to(std::max(0.0, budget - spent_[i]));
  }

  /// The query's frame-0 assumption (if any) plus `goal`, as literals.
  [[nodiscard]] std::vector<z3::expr> assumptions(enc::Unroller& unroller, std::size_t i,
                                                  z3::expr goal) const {
    std::vector<z3::expr> out;
    if (queries_[i].assume.valid()) out.push_back(unroller.literal(queries_[i].assume, 0));
    out.push_back(std::move(goal));
    return out;
  }

  /// One check for query i; its solver call and time are charged to it. A
  /// query whose slice is already spent gets kUnknown without a call.
  smt::CheckResult check(smt::Solver& solver, std::size_t i,
                         std::span<const z3::expr> assumptions,
                         const util::Deadline& slice) {
    if (slice.expired_or_cancelled()) return smt::CheckResult::kUnknown;
    const util::Stopwatch watch;
    const smt::CheckResult r = solver.check_assuming(assumptions, slice);
    spent_[i] += watch.elapsed_seconds();
    ++result_.outcomes[i].stats.solver_checks;
    return r;
  }

  void resolve(std::size_t i, Verdict verdict, std::string message = "") {
    CheckOutcome& o = result_.outcomes[i];
    o.verdict = verdict;
    if (!message.empty()) o.message = std::move(message);
    o.stats.seconds = watch_.elapsed_seconds();
    std::erase(pending_, i);
  }

  void resolve_pending(Verdict verdict, const std::string& message) {
    for (const std::size_t i : pending()) resolve(i, verdict, message);
  }

  /// The timeout/unknown split every engine needs: kTimeout when the slice
  /// (the deadline, the query's budget or a service cancellation) caused
  /// the solver to give up, kUnknown when the solver gave up on its own.
  void give_up(std::size_t i, const util::Deadline& slice, std::string message) {
    resolve(i, slice.expired_or_cancelled() ? Verdict::kTimeout : Verdict::kUnknown,
            std::move(message));
  }

  /// Resolves what is still pending as `rest`, stamps the shared stats and
  /// emits the engine.finish event; the single exit point for every path.
  InvariantBatchResult finish(Verdict rest, const std::string& message = "") {
    resolve_pending(rest, message);
    Stats& shared = result_.shared;
    shared.seconds = watch_.elapsed_seconds();
    shared.solvers_created = tracked_.size();
    for (const smt::Solver* s : tracked_) {
      shared.solver_checks += s->num_checks();
      shared.frame_assertions += s->num_assertions();
      shared.solver_seconds += s->check_seconds();
    }
    // A batch of one reports the whole run's cost, like any one-shot engine.
    if (result_.outcomes.size() == 1) result_.outcomes.front().stats = shared;
    if (obs::TraceSink* s = obs::sink())
      s->event("engine.finish")
          .attr("engine", shared.engine)
          .attr("verdict", summary_verdict())
          .attr("seconds", shared.seconds)
          .attr("solver_seconds", shared.solver_seconds)
          .attr("checks", shared.solver_checks)
          .attr("depth", shared.depth_reached)
          .emit();
    return std::move(result_);
  }

 private:
  // The verdict every query reached, or "mixed".
  [[nodiscard]] std::string summary_verdict() const {
    const std::vector<CheckOutcome>& o = result_.outcomes;
    if (o.empty()) return verdict_name(Verdict::kBoundReached);
    const bool same = std::all_of(o.begin(), o.end(), [&](const CheckOutcome& x) {
      return x.verdict == o.front().verdict;
    });
    return same ? verdict_name(o.front().verdict) : "mixed";
  }

  std::span<const InvariantQuery> queries_;
  InvariantBatchResult result_;
  std::vector<std::size_t> pending_;
  std::vector<double> spent_;  // solver time charged to each query
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
