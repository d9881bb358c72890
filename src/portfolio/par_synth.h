// Work-stealing parallel parameter synthesis.
//
// core::synthesize_params classifies every finite-domain parameter
// assignment one prover call at a time. The candidates are independent, so
// this driver distributes them over SynthOptions::jobs workers: each worker
// owns a deque of candidate indices and steals the back half of the largest
// remaining deque when its own runs dry, which keeps all workers busy even
// when classification cost is wildly uneven (safe candidates need a full
// proof, unsafe ones often fall to a quick BMC-style base case).
//
// The sequential driver's trace-generalization step is preserved across
// workers: every counterexample lands in a mutex-guarded shared pool, and a
// worker replays the pooled traces against each fresh candidate before
// spending solver time — a trace found by one worker prunes candidates on
// all workers, and such prunes count toward `pruned_by_replay` exactly as in
// the sequential driver.
//
// Result classification is identical to the sequential driver's (safe /
// unsafe / undecided partitions match modulo deadline races), and the
// safe/unsafe/undecided vectors come back in candidate-enumeration order, so
// output is deterministic for a fixed classification. Like the sequential
// driver, the sweep runs in the reduction stage (core::synthesize_optimized):
// on the counting quotient first, then on the original system restricted to
// the candidates the quotient did not prove safe.
#pragma once

#include "core/synth.h"
#include "expr/expr.h"
#include "ts/transition_system.h"

namespace verdict::portfolio {

/// Parallel drop-in for core::synthesize_params. jobs <= 1 delegates to the
/// sequential driver (identical code path, zero thread overhead).
[[nodiscard]] core::SynthResult synthesize_params_parallel(
    const ts::TransitionSystem& ts, expr::Expr invariant,
    const core::SynthOptions& options = {});

}  // namespace verdict::portfolio
