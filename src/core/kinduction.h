// k-induction for safety properties.
//
// Alternates a BMC base case with an inductive step strengthened by
// simple-path constraints (all unrolled states pairwise distinct). On
// finite-domain systems this is a complete proof method: either a
// counterexample appears in the base case, or the step becomes unsatisfiable
// at some k, proving G(invariant) outright — the "verification" side of the
// paper's Figure 6 runtime curves.
//
// Like BMC (core/bmc.h) this is a batch engine: one base and one step
// unrolling answer every InvariantQuery of the batch. The step unrolling and
// its simple-path constraints are query-independent. When all queries share
// one invariant (a one-shot check, a synthesis sweep) P@0..k is asserted on
// the step solver; otherwise each query assumes its own P@0..k literals (a
// multi-property session). check_invariant_kinduction is the batch of one.
#pragma once

#include <span>

#include "core/bmc.h"
#include "core/result.h"
#include "expr/expr.h"
#include "ts/transition_system.h"
#include "util/stopwatch.h"

namespace verdict::core {

struct KInductionOptions {
  int max_k = 50;
  util::Deadline deadline = util::Deadline::never();
};

/// Checks G(invariant); may return kHolds (proved), kViolated (+ trace),
/// kBoundReached (max_k hit without a proof) or kTimeout.
[[nodiscard]] CheckOutcome check_invariant_kinduction(const ts::TransitionSystem& ts,
                                                      expr::Expr invariant,
                                                      const KInductionOptions& options = {});

/// Checks every query over one shared base and one shared step unrolling.
/// Per k, every pending query gets its base check, then every query still
/// pending gets its step check.
[[nodiscard]] InvariantBatchResult check_invariant_kinduction_batch(
    const ts::TransitionSystem& ts, std::span<const InvariantQuery> queries,
    const KInductionOptions& options = {});

}  // namespace verdict::core
