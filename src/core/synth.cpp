#include "core/synth.h"

#include <algorithm>

#include "core/engine_util.h"
#include "core/explicit.h"
#include "core/kinduction.h"
#include "core/pdr.h"
#include "core/reduce.h"

namespace verdict::core {

using expr::Expr;

namespace {

// Files `candidate` by the verdict its prover reached.
void classify(SynthResult& result, const ts::State& candidate, CheckOutcome& outcome) {
  switch (outcome.verdict) {
    case Verdict::kHolds:
      result.safe.push_back(candidate);
      break;
    case Verdict::kViolated: {
      result.unsafe.push_back(candidate);
      ts::Trace witness = std::move(*outcome.counterexample);
      witness.params = candidate;
      result.witnesses.push_back(std::move(witness));
      break;
    }
    default:
      result.undecided.push_back(candidate);
      break;
  }
}

// The k-induction sweep is ONE k-induction batch: every candidate is a query
// whose frame-0 assumption pins the parameters, so the unrolling, the
// invariant frames and the simple-path constraints, all candidate-
// independent, are encoded once for the whole enumeration. Every pending
// candidate is queried at each k, which keeps them all on one frame prefix.
SynthResult sweep_kinduction(const ts::TransitionSystem& ts, Expr invariant,
                             const SynthOptions& options,
                             const std::vector<ts::State>& candidates) {
  util::Stopwatch watch;
  std::vector<InvariantQuery> queries;
  queries.reserve(candidates.size());
  for (const ts::State& candidate : candidates) {
    std::vector<Expr> pins;
    for (const Expr p : ts.params())
      pins.push_back(expr::mk_eq(p, expr::constant_of(*candidate.get(p), p.type())));
    queries.push_back({.invariant = invariant,
                       .assume = expr::mk_and(pins),
                       .budget_seconds = options.per_candidate_seconds});
  }
  InvariantBatchResult batch = check_invariant_kinduction_batch(
      ts, queries, {.max_k = options.max_depth, .deadline = options.deadline});

  // Emitted in enumeration order so results are deterministic.
  SynthResult result;
  for (std::size_t i = 0; i < candidates.size(); ++i)
    classify(result, candidates[i], batch.outcomes[i]);
  result.stats = batch.shared;
  result.stats.engine = "synth/k-induction";
  result.stats.seconds = watch.elapsed_seconds();
  return result;
}

// The PDR sweep checks one pinned copy of `ts` per candidate, after
// replaying every counterexample found so far under it: a trace that stays
// feasible condemns the candidate without a solver call.
SynthResult sweep_pdr(const ts::TransitionSystem& ts, Expr invariant,
                      const SynthOptions& options,
                      const std::vector<ts::State>& candidates) {
  util::Stopwatch watch;
  SynthResult result;
  result.stats.engine = "synth/pdr";
  for (const ts::State& candidate : candidates) {
    if (options.deadline.expired_or_cancelled()) {
      result.undecided.push_back(candidate);
      continue;
    }

    // Free classification: replay known counterexamples under this candidate.
    bool condemned = false;
    const std::size_t known_witnesses = result.witnesses.size();
    for (std::size_t w = 0; w < known_witnesses; ++w) {
      if (trace_feasible_under(ts, result.witnesses[w], candidate, invariant)) {
        result.unsafe.push_back(candidate);
        ts::Trace replay = result.witnesses[w];
        replay.params = candidate;
        result.witnesses.push_back(std::move(replay));
        ++result.pruned_by_replay;
        condemned = true;
        break;
      }
    }
    if (condemned) continue;

    PdrOptions po;
    po.max_frames = options.max_depth;
    po.deadline = util::Deadline::after_seconds(
        std::min(options.per_candidate_seconds, options.deadline.remaining_seconds()));
    CheckOutcome outcome = check_invariant_pdr(pinned_system(ts, candidate), invariant, po);
    result.stats.solver_checks += outcome.stats.solver_checks;
    result.stats.solvers_created += outcome.stats.solvers_created;
    result.stats.frame_assertions += outcome.stats.frame_assertions;
    result.stats.depth_reached =
        std::max(result.stats.depth_reached, outcome.stats.depth_reached);
    classify(result, candidate, outcome);
  }
  result.stats.seconds = watch.elapsed_seconds();
  return result;
}

SynthResult sweep_sequential(const ts::TransitionSystem& ts, Expr invariant,
                             const SynthOptions& options) {
  const std::vector<ts::State> candidates = enumerate_params(ts);
  return options.prover == SynthProver::kKInduction
             ? sweep_kinduction(ts, invariant, options, candidates)
             : sweep_pdr(ts, invariant, options, candidates);
}

}  // namespace

SynthResult synthesize_params(const ts::TransitionSystem& ts, Expr invariant,
                              const SynthOptions& options) {
  return synthesize_optimized(ts, invariant, options, sweep_sequential);
}

}  // namespace verdict::core
