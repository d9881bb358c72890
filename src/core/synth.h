// Configuration-parameter synthesis.
//
// Answers the paper's "suggest safe configuration parameters" use case
// (§4.2: for the rollout scenario with k = 1, m = 1 the tool suggests
// p ∈ {1, 2}): classify every finite-domain parameter assignment as safe
// (property proven), unsafe (counterexample found), or undecided (prover ran
// out of budget).
//
// The search enumerates the (constraint-filtered) parameter space, but before
// spending solver time on a candidate it replays every counterexample trace
// found so far under the candidate's parameter values — a trace that stays
// feasible condemns the candidate for free. This trace-generalization step is
// what makes the enumeration practical on larger spaces.
//
// With SynthProver::kKInduction the sweep additionally shares TWO persistent
// solvers (base + step) across the whole candidate space: candidates are
// pinned through assumption literals (p == value) per check_assuming, so the
// frame unrolling and simple-path constraints — which do not depend on the
// candidate — are encoded once for the entire enumeration instead of once
// per candidate (see enc::Unroller).
//
// Both drivers (this one and portfolio::synthesize_params_parallel) run their
// sweep through core::synthesize_optimized (core/reduce.h): first on the
// counting quotient with the parameters left symbolic, where every candidate
// proven safe is final, then on the original system restricted to the
// candidates the quotient left open, where every witness is a concrete trace
// (docs/abstraction.md, "Synthesis on the quotient").
#pragma once

#include <vector>

#include "core/result.h"
#include "expr/expr.h"
#include "ts/transition_system.h"
#include "util/stopwatch.h"

namespace verdict::core {

enum class SynthProver : std::uint8_t { kKInduction, kPdr };

struct SynthOptions {
  SynthProver prover = SynthProver::kPdr;
  /// Budget per candidate; kTimeout/kBoundReached candidates become undecided.
  double per_candidate_seconds = 30.0;
  util::Deadline deadline = util::Deadline::never();
  int max_depth = 100;  // prover frame/k bound
  /// Worker threads. synthesize_params itself is sequential and ignores this;
  /// portfolio::synthesize_params_parallel work-steals candidates across this
  /// many workers (0 = all hardware threads) and honors every other knob.
  std::size_t jobs = 1;
};

struct SynthResult {
  std::vector<ts::State> safe;
  std::vector<ts::State> unsafe;
  std::vector<ts::State> undecided;
  /// One witness trace per unsafe assignment (parallel to `unsafe`).
  std::vector<ts::Trace> witnesses;
  Stats stats;
  /// Candidates condemned by trace replay without a solver call.
  std::size_t pruned_by_replay = 0;

  [[nodiscard]] bool complete() const { return undecided.empty(); }
};

/// Classifies every parameter assignment of `ts` w.r.t. G(invariant).
/// All parameters must be finite-domain. The sweep runs in the reduction
/// stage, on the counting quotient and then behind the optimizer
/// (core::synthesize_optimized in core/reduce.h).
[[nodiscard]] SynthResult synthesize_params(const ts::TransitionSystem& ts,
                                            expr::Expr invariant,
                                            const SynthOptions& options = {});

}  // namespace verdict::core
