// Z3 backend: translates verdict expressions into Z3 terms and wraps an
// incremental solver.
//
// Unrolling convention: a state variable `v` referenced at time frame k
// becomes the Z3 constant "v@k"; a next(v) reference inside a frame-k
// transition formula becomes "v@k+1". Rigid variables (the transition
// system's parameters) translate to a single frame-independent constant
// "v!p" — the solver is free to pick their value once per (counter)example,
// which is exactly the paper's "the model checker should figure out the
// parameters, in addition to execution steps, that lead to failure".
#pragma once

#include <z3++.h>

#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/expr.h"
#include "ts/transition_system.h"
#include "util/stopwatch.h"

namespace verdict::smt {

enum class CheckResult : std::uint8_t { kSat, kUnsat, kUnknown };

/// Ablation knob for the cross-frame translation memo (bench/micro_engines):
/// when disabled, frame-invariant subtrees are keyed per frame like everything
/// else, i.e. the pre-memo behaviour. Process-global so benches can bracket
/// whole engine runs; defaults to enabled.
void set_translate_memo(bool enabled);
[[nodiscard]] bool translate_memo_enabled();

class Solver {
 public:
  Solver();

  /// Marks variables that translate frame-independently (parameters).
  void set_rigid(const std::set<expr::VarId>& rigid);

  /// Translates `e` with current-state variables at `frame` and next-state
  /// references at `frame + 1`.
  z3::expr translate(expr::Expr e, int frame);

  /// Asserts translate(e, frame).
  void add(expr::Expr e, int frame);
  void add(const z3::expr& e);

  /// Native pseudo-Boolean cardinality constraint "at most `bound` of `lits`
  /// hold", each literal translated at `frame`. Not asserted: callers scope
  /// it with push()/add()/pop(). Z3 decides it in its cardinality solver,
  /// not as a linear sum of ite terms in the arithmetic core.
  z3::expr at_most(std::span<const expr::Expr> lits, int frame, unsigned bound);

  void push();
  void pop();

  /// Runs a satisfiability check; the deadline (if finite) is forwarded to
  /// Z3 as a per-query timeout.
  CheckResult check(const util::Deadline& deadline = util::Deadline::never());
  CheckResult check_assuming(std::span<const z3::expr> assumptions,
                             const util::Deadline& deadline = util::Deadline::never());

  /// After a kSat check: the value of `var` (a variable handle) at `frame`.
  /// Unconstrained variables are completed to a default value.
  [[nodiscard]] expr::Value value_of(expr::Expr var, int frame);

  /// After a kSat check: concrete assignment to `vars` at `frame`.
  [[nodiscard]] ts::State state_at(std::span<const expr::Expr> vars, int frame);

  /// After a kSat check: the raw Z3 model (throws when none is available).
  [[nodiscard]] z3::model model() const;

  /// After a kSat check: greedily pins real-valued variables (at `frame`) to
  /// simple rationals (0, 1, 2, 1/2, ...) while satisfiability is preserved,
  /// re-checking under accumulated assumptions. This keeps counterexample
  /// values human-readable and within 64-bit extraction range (Z3 is
  /// otherwise free to answer with astronomically large rationals). Returns
  /// false if the final re-check did not land on kSat (model unchanged).
  /// `base` assumptions (e.g. the property-activation literal of a session
  /// check_assuming) are held through every re-check so the refined model
  /// still satisfies them.
  bool refine_real_model(std::span<const expr::Expr> vars, int frame,
                         const util::Deadline& deadline = util::Deadline::never(),
                         std::span<const z3::expr> base = {});

  /// After a kUnsat check_assuming: the subset of assumptions in the core.
  [[nodiscard]] std::vector<z3::expr> unsat_core();

  /// Fresh boolean constant usable as an activation literal.
  z3::expr fresh_bool(const std::string& prefix);

  z3::context& context() { return ctx_; }

  /// Number of check() calls made (benchmark instrumentation).
  [[nodiscard]] std::size_t num_checks() const { return num_checks_; }

  /// Number of asserted formulas (both overloads of add); together with
  /// num_checks this is the encoding-reuse instrumentation behind
  /// core::Stats::{frame_assertions, solver_checks}.
  [[nodiscard]] std::size_t num_assertions() const { return num_assertions_; }

  /// Accumulated wall time spent inside check()/check_assuming() — the
  /// timing hook behind core::Stats::solver_seconds and the obs layer's
  /// per-query "smt.check" events.
  [[nodiscard]] double check_seconds() const { return check_seconds_; }

  /// Process-unique serial number (correlates "smt.check" trace events with
  /// the solver that issued them).
  [[nodiscard]] std::size_t serial() const { return serial_; }

 private:
  z3::expr constant_for(expr::Expr var, int frame);
  z3::sort sort_of(const expr::Type& type);
  // True iff `e` translates to the same Z3 term at every frame: it mentions
  // only constants, rigid variables, and next() of rigid variables. Memoized
  // per expression id (the answer never changes after set_rigid).
  bool frame_invariant(expr::Expr e);
  // Timing/tracing hook shared by both check overloads.
  void note_check(double seconds, CheckResult result, std::size_t assumptions);

  z3::context ctx_;
  z3::solver solver_;
  std::set<expr::VarId> rigid_;
  // cache key: (expr id, frame) — except that frame-invariant subtrees use a
  // sentinel frame slot, so re-translating them at every frame of an
  // unrolling hits the same entry instead of rebuilding the Z3 term
  // (smt.translate_memo.hit / .miss count those lookups).
  std::unordered_map<std::uint64_t, z3::expr> cache_;
  std::unordered_map<std::uint32_t, bool> invariant_memo_;
  std::unordered_map<std::string, z3::expr> constants_;
  std::optional<z3::model> model_;
  std::size_t fresh_counter_ = 0;
  std::size_t num_checks_ = 0;
  std::size_t num_assertions_ = 0;
  double check_seconds_ = 0.0;
  std::size_t serial_ = 0;
};

/// Convenience: builds a State holding concrete values for the system's
/// parameters from a sat model.
[[nodiscard]] ts::State params_from_model(Solver& solver, const ts::TransitionSystem& ts);

/// Runtime Z3 version ("4.12.2"), for --version banners.
[[nodiscard]] std::string z3_version();

}  // namespace verdict::smt
