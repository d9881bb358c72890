// Semantics-preserving model optimization: the pass pipeline every engine
// runs behind (CheckOptions::optimize, on by default).
//
// Three passes over a ts::TransitionSystem, in order:
//
//   1. fold       — constant folding + algebraic rewriting of every
//                   constraint and property atom through expr::Simplifier
//                   (builder canonicalization re-triggered bottom-up, plus
//                   bounds-based comparison folding for bounded ints), and
//                   splitting of top-level conjunctions into separate
//                   conjuncts so the later passes see fine-grained units.
//   2. constprop  — detected-constant propagation: parameters pinned by a
//                   parameter constraint `p == c`, and state variables that
//                   are pinned in every reachable state (an invar conjunct
//                   `v == c`, or an init pin `v == c` together with the
//                   identity transition conjunct `next(v) == v`), are
//                   substituted away and re-folded, to a fixpoint.
//   3. slice      — per-property cone-of-influence slicing: starting from
//                   the support of the property atoms (plus extra_support),
//                   close over constraint co-occurrence — a conjunct that
//                   mentions an in-cone variable pulls its whole support into
//                   the cone and is kept. What remains outside the cone is a
//                   constraint-disjoint independent component: it is removed
//                   from the checked system and retained as `dropped` so
//                   counterexamples can be completed again (see lift_trace).
//
// Soundness: fold rewrites are equivalences (declared ranges are invariants —
// see expr/simplify.h). Constprop substitutes facts implied by the system,
// and lift_trace re-inserts the exact pinned values, so traces round-trip
// losslessly. Slicing only ever *removes* constraints over a disjoint
// variable set, so proofs and exhausted bounds transfer to the original
// system unconditionally (every original execution projects to a sliced
// execution). A *violation* of the sliced system lifts only if the dropped
// component can actually execute alongside it — lift_trace searches for such
// an execution explicitly and reports failure (empty or deadlocked dropped
// component), in which case the caller must fall back to the unoptimized
// system. core::check_optimized implements exactly that fallback.
//
// Layering: opt/ sits with the substrate — it depends only on expr, ts, ltl
// and obs, and is linked by core, bdd and svc.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "expr/expr.h"
#include "ltl/ltl.h"
#include "ts/transition_system.h"

namespace verdict::opt {

/// Bumped whenever a pass changes observable behavior. Mixed into request
/// fingerprints (svc/fingerprint.cpp) so cached verdicts computed by an
/// older optimizer are invalidated instead of silently reused.
inline constexpr std::uint32_t kOptimizerVersion = 1;

struct OptimizeOptions {
  bool fold = true;
  bool propagate_constants = true;
  bool slice = true;
  /// Parameter synthesis: keep every parameter (and its constraints) in the
  /// system and never propagate pinned parameters — the synthesizer must
  /// still enumerate and report the full parameter space.
  bool keep_params = false;
  /// Extra expressions whose support is added to the slicing seed (fairness
  /// constraints, auxiliary predicates the caller will evaluate on traces).
  std::vector<expr::Expr> extra_support;
  /// Work budget for lift_trace's explicit reconstruction of the dropped
  /// component (number of candidate assignments examined before giving up).
  std::size_t max_lift_work = 1u << 16;
};

/// The result of optimize(): the system to hand to an engine, the properties
/// rewritten onto it, and everything needed to lift verdict artifacts back.
struct Optimized {
  ts::TransitionSystem system;
  /// Input properties with their atoms rewritten (parallel to the input).
  std::vector<ltl::Formula> properties;

  // Constants substituted away (exact values, re-inserted by lift_trace).
  std::vector<std::pair<expr::Expr, expr::Value>> propagated_vars;
  std::vector<std::pair<expr::Expr, expr::Value>> propagated_params;

  // The sliced-away independent component (empty when nothing was sliced).
  ts::TransitionSystem dropped;
  std::vector<expr::Expr> dropped_vars;
  std::vector<expr::Expr> dropped_params;

  // Pass accounting (also bumped on the obs counters opt.nodes_folded,
  // opt.constants_propagated, opt.vars_removed).
  std::size_t nodes_folded = 0;
  std::size_t constants_propagated = 0;
  std::size_t vars_removed = 0;

  std::size_t max_lift_work = 1u << 16;

  /// True when any pass changed the system or a property. When false, the
  /// caller should use the original system (this->system is still a faithful
  /// copy, but skipping avoids pointless re-validation).
  [[nodiscard]] bool changed() const { return changed_; }

  /// Lifts a trace of the optimized system back to a trace of the original:
  /// re-inserts propagated constants into every state, then completes the
  /// sliced-away component by explicitly searching for an execution of
  /// `dropped` with the same length. Returns false when no such execution
  /// exists within the work budget (the sliced violation may then be
  /// spurious; callers must re-check unoptimized). Lasso traces with a
  /// non-empty dropped component are always refused — slicing is only wired
  /// on safety paths, where counterexamples are finite.
  [[nodiscard]] bool lift_trace(ts::Trace& trace) const;

  bool changed_ = false;
};

/// Runs the pipeline. The input system is never modified.
[[nodiscard]] Optimized optimize(const ts::TransitionSystem& system,
                                 std::span<const ltl::Formula> properties,
                                 const OptimizeOptions& options = {});
[[nodiscard]] Optimized optimize(const ts::TransitionSystem& system,
                                 const ltl::Formula& property,
                                 const OptimizeOptions& options = {});
/// Invariant-checking convenience: optimizes for G(invariant) and returns
/// the rewritten invariant atom via `invariant_atom(result)`.
[[nodiscard]] Optimized optimize_invariant(const ts::TransitionSystem& system,
                                           expr::Expr invariant,
                                           const OptimizeOptions& options = {});
/// The rewritten atom of an Optimized produced from a G(atom) property.
[[nodiscard]] expr::Expr invariant_atom(const Optimized& o);

}  // namespace verdict::opt
