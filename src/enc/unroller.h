// Shared frame-indexed encoding of a transition system onto one incremental
// SMT solver.
//
// Every bounded engine used to hand-roll the same loop — assert init at frame
// 0, the transition relation between adjacent frames, and the invariant/range
// constraints at every frame — and every engine call re-paid the whole
// translation. The Unroller owns that unrolling exactly once per solver:
// ensure_frames(k) asserts only the frames not yet built, and literal(e, k)
// hands out a cached assumption literal activating an arbitrary boolean
// formula at a frame, so N properties (or N parameter candidates) can share
// one unrolling through incremental check_assuming instead of rebuilding N
// solvers. This is the encoding layer of the batch engines
// (core::check_invariant_{bmc,kinduction}_batch), through which sessions and
// parameter synthesis run, and of the lasso engine. Bounded unrollings are
// built only there and in inc/revalidate.cpp, the independent re-checker of
// cached proofs.
//
// Construction order matters: the Unroller calls set_rigid on the solver, so
// it must be created before anything is translated on that solver. The
// transition system must outlive the Unroller.
#pragma once

#include <map>
#include <utility>

#include "smt/solver.h"
#include "ts/transition_system.h"

namespace verdict::enc {

struct UnrollerOptions {
  /// Assert the initial-state predicate at frame 0. Disable for "any
  /// reachable window" unrollings such as the k-induction step case.
  bool assert_init = true;
  /// Assert the parameter-space constraints and parameter ranges (once).
  bool assert_params = true;
};

class Unroller {
 public:
  Unroller(smt::Solver& solver, const ts::TransitionSystem& ts,
           UnrollerOptions options = {});

  Unroller(const Unroller&) = delete;
  Unroller& operator=(const Unroller&) = delete;

  /// Asserts every frame up to and including `upto` that is not yet built:
  /// invariant constraints and variable ranges at each new frame, the
  /// transition relation from its predecessor, and (per options) init/params
  /// at frame 0. Idempotent; frames are never rebuilt.
  void ensure_frames(int upto);

  /// Highest frame built so far (-1 before the first ensure_frames call).
  [[nodiscard]] int max_frame() const { return max_frame_; }

  /// Cached assumption literal L with L => translate(e, frame) asserted on
  /// first use. Repeated calls for the same (expression, frame) return the
  /// same literal, so per-property activation costs one translation total.
  z3::expr literal(expr::Expr e, int frame);

  [[nodiscard]] smt::Solver& solver() { return solver_; }
  [[nodiscard]] const ts::TransitionSystem& ts() const { return ts_; }

 private:
  smt::Solver& solver_;
  const ts::TransitionSystem& ts_;
  UnrollerOptions options_;
  int max_frame_ = -1;
  std::map<std::pair<std::uint64_t, int>, z3::expr> literals_;
};

}  // namespace verdict::enc
