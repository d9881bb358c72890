// IC3 / property-directed reachability for safety properties.
//
// Proves G(invariant) without unrolling by maintaining a sequence of frames
// F_0 = init ⊆ F_1 ⊆ ... ⊆ F_N of over-approximations of the states reachable
// in at most i steps, learning inductive lemmas (negated generalized cubes)
// until either two adjacent frames coincide (property proved; the frame is an
// inductive invariant) or a chain of concrete predecessor states reaches the
// initial states (counterexample trace).
//
// Parameters are handled by folding them into the state vector with a
// frame-equality constraint next(p) = p: a counterexample then carries one
// consistent parameter choice, while a proof covers every parameter value —
// matching the paper's "verify the rollout config is safe under assumptions
// about the number of failures" use case.
//
// Cubes are conjunctions of variable/value equalities, generalized by
// unsat-core literal dropping (with an initial-states intersection guard).
// On finite-domain systems the procedure is complete; on infinite domains it
// is sound but may diverge — bound it with the deadline.
#pragma once

#include "core/result.h"
#include "expr/expr.h"
#include "ts/transition_system.h"
#include "util/stopwatch.h"

namespace verdict::core {

struct PdrOptions {
  int max_frames = 200;
  util::Deadline deadline = util::Deadline::never();
  /// Unsat-core based cube generalization (disable to measure its benefit).
  bool generalize = true;
};

[[nodiscard]] CheckOutcome check_invariant_pdr(const ts::TransitionSystem& ts,
                                               expr::Expr invariant,
                                               const PdrOptions& options = {});

}  // namespace verdict::core
