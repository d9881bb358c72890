// Bounded model checking for safety (invariant) properties.
//
// Searches for an execution of the parametric transition system that reaches
// a state violating the invariant, unrolling the transition relation frame by
// frame on one incremental SMT solver. Because parameters are rigid symbolic
// constants, a reported counterexample includes the parameter values
// (configuration + environment constants) that enable the failure — this is
// the paper's core use case (Fig. 5: p = m = 1, k = 2 drives the available
// service-node count to zero).
//
// BMC and k-induction are batch engines: one run answers a span of
// InvariantQuery over ONE unrolling, each query activated per check by its
// own assumption literals (enc::Unroller::literal). core::Session batches its
// invariant group this way and core::synthesize_params batches its parameter
// candidates; check_invariant_bmc is the batch of one.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "core/result.h"
#include "expr/expr.h"
#include "ts/transition_system.h"
#include "util/stopwatch.h"

namespace verdict::core {

/// One "does G invariant hold?" question of a batch. Only what differs
/// between the queries of one unrolling is here; the bound and the deadline
/// belong to the batch's options.
struct InvariantQuery {
  /// Boolean expression over the system's vars/params.
  expr::Expr invariant{};
  /// Optional boolean assumption at frame 0 (a synthesis candidate's
  /// parameter pins); an invalid Expr assumes nothing.
  expr::Expr assume{};
  /// Solver time this query may spend across the whole run; once spent it
  /// resolves kTimeout. The batch deadline bounds it either way.
  double budget_seconds = std::numeric_limits<double>::infinity();
};

/// `outcomes` is parallel to the queries; each carries its verdict, trace or
/// artifact, depth and its own solver checks. `shared` accounts the run's
/// solvers once. A batch of one reports the shared cost on its outcome.
struct InvariantBatchResult {
  std::vector<CheckOutcome> outcomes;
  Stats shared;
};

struct BmcOptions {
  int max_depth = 50;
  util::Deadline deadline = util::Deadline::never();
};

/// Checks G(invariant): returns kViolated + trace, kBoundReached, or kTimeout.
/// `invariant` must be a boolean expression over the system's vars/params.
[[nodiscard]] CheckOutcome check_invariant_bmc(const ts::TransitionSystem& ts,
                                               expr::Expr invariant,
                                               const BmcOptions& options = {});

/// Checks every query over one init+unrolling solver: per depth, each pending
/// query is one check_assuming of its !invariant literal at the frontier.
[[nodiscard]] InvariantBatchResult check_invariant_bmc_batch(
    const ts::TransitionSystem& ts, std::span<const InvariantQuery> queries,
    const BmcOptions& options = {});

}  // namespace verdict::core
