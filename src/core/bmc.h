// Bounded model checking for safety (invariant) properties.
//
// Searches for an execution of the parametric transition system that reaches
// a state violating the invariant, unrolling the transition relation frame by
// frame on one incremental SMT solver. Because parameters are rigid symbolic
// constants, a reported counterexample includes the parameter values
// (configuration + environment constants) that enable the failure — this is
// the paper's core use case (Fig. 5: p = m = 1, k = 2 drives the available
// service-node count to zero).
#pragma once

#include "core/result.h"
#include "expr/expr.h"
#include "ts/transition_system.h"
#include "util/stopwatch.h"

namespace verdict::portfolio {
class LemmaBus;
}

namespace verdict::core {

struct BmcOptions {
  int max_depth = 50;
  util::Deadline deadline = util::Deadline::never();
  /// When set, reachability-invariant clauses published by other portfolio
  /// lanes are asserted at every unrolled frame as they arrive. Sound: the
  /// verdict and depth are bit-identical to an isolated run (see
  /// portfolio/lemma_bus.h).
  portfolio::LemmaBus* lemma_bus = nullptr;
};

/// Checks G(invariant): returns kViolated + trace, kBoundReached, or kTimeout.
/// `invariant` must be a boolean expression over the system's vars/params.
[[nodiscard]] CheckOutcome check_invariant_bmc(const ts::TransitionSystem& ts,
                                               expr::Expr invariant,
                                               const BmcOptions& options = {});

}  // namespace verdict::core
