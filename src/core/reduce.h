// The reduction stage: the one place the two model reductions run.
//
// The paper's Fig. 4 workflow reduces the model, checks it, and carries the
// verdict back to the original system. Both reductions take the caller's
// engine as a callback, so core::check, core::Session, bdd::check_invariant_bdd
// and parameter synthesis share one set of transfer, lift, refine and
// fallback rules. Callers run the quotient first, then the optimizer (on the
// quotient and on the concrete fallback alike). Synthesis does the same with
// its whole parameter sweep as the callback: the quotient proves candidates
// safe, and the concrete sweep decides the rest (synthesize_optimized).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/checker.h"
#include "core/synth.h"
#include "opt/optimize.h"

namespace verdict::core {

/// Decides `properties` on `system` under `options`, one outcome per property.
using QuotientDecide = std::function<std::vector<CheckOutcome>(
    const ts::TransitionSystem& system, std::span<const ltl::Formula> properties,
    const CheckOptions& options)>;

/// Decides `properties` on `system`: one outcome per property, or for
/// parameter synthesis one per witness trace.
using Decide = std::function<std::vector<CheckOutcome>(
    const ts::TransitionSystem& system, std::span<const ltl::Formula> properties)>;

/// True for the final verdicts a reduction hands back (kHolds, kViolated).
[[nodiscard]] bool decided(const CheckOutcome& outcome);

/// The abs/ counting quotient with its CEGAR loop (docs/abstraction.md), for
/// the invariant-shaped properties when options.abstract is set and the
/// engine is not kLtlLasso. The quotient is decided with abstract off, kAuto
/// mapped to kKInduction, and half the remaining budget. A quotient kHolds
/// transfers without its artifact (it names counter variables). A kViolated
/// is concretized from its final state's counts: one witness query finds a
/// violating concrete state with those counts (none: the trace is spurious),
/// and kBmc at the trace's depth runs through `decide` on `ts` with the
/// members the witness leaves at their initial value pinned there, optimizer
/// on. Its trace is kept once it replays on `ts`; otherwise kBmc runs again
/// on `ts` itself, with both reductions off. A spurious trace splits an
/// orbit, at most twice. Returns one outcome per property: decided ones are
/// final, the rest are kUnknown carrying the cost spent, for the caller's
/// concrete path. Counts abs.guided_concretizations, abs.guided_fallbacks,
/// abs.spurious_traces, abs.cegar_refinements and abs.fallback_concrete (per
/// attempted property left undecided).
[[nodiscard]] std::vector<CheckOutcome> check_quotient(
    const ts::TransitionSystem& ts, std::span<const ltl::Formula> properties,
    const CheckOptions& options, const QuotientDecide& decide);

/// One opt::optimize run over `properties` (docs/optimizer.md), decided by
/// `decide`. Artifacts are pinned to the propagated constants and every trace
/// is lifted back (core::lift_counterexample). If a trace does not lift,
/// `decide` runs again on `ts`, with the discarded attempt's cost merged in.
[[nodiscard]] std::vector<CheckOutcome> check_optimized(
    const ts::TransitionSystem& ts, std::span<const ltl::Formula> properties,
    const opt::OptimizeOptions& options, const util::Deadline& deadline,
    const Decide& decide);

/// A parameter sweep: classifies every parameter assignment of `ts` w.r.t.
/// G(invariant) under `options`, with one witness trace per unsafe assignment.
using SynthSweep = std::function<SynthResult(
    const ts::TransitionSystem& ts, expr::Expr invariant, const SynthOptions& options)>;

/// Parameter synthesis in two sweeps, each behind check_optimized with the
/// parameters kept rigid-symbolic. (1) One counting quotient of `ts` is built
/// with the parameters left symbolic and swept by k-induction (whatever
/// `options.prover` says, as check_quotient maps kAuto) with half the
/// remaining deadline and half the per-candidate budget: a candidate proven
/// safe there is final, because the quotient under each assignment simulates
/// `ts` under that assignment. (2) The candidates it leaves unsafe or
/// undecided are swept with `options.prover` on `ts` restricted to them by
/// one parameter constraint, so every witness is a concrete trace, lifted
/// back like any counterexample (or the sweep redone if one does not lift). Without a quotient, (2) sweeps every
/// candidate. Lists come out in enumeration order; pruned_by_replay counts
/// only (2)'s prunes. Shared by the sequential and the parallel drivers.
[[nodiscard]] SynthResult synthesize_optimized(const ts::TransitionSystem& ts,
                                               expr::Expr invariant,
                                               const SynthOptions& options,
                                               const SynthSweep& sweep);

}  // namespace verdict::core
