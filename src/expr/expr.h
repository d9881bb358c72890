// Hash-consed, typed expression DAG.
//
// This is the intermediate representation shared by every part of verdict:
// transition systems are pairs of expressions, controller models compile to
// expressions, the SMT backend translates expressions to Z3 terms, the BDD
// engine bit-blasts them, and counterexample traces are replayed through the
// expression evaluator.
//
// Expressions are immutable and interned in a process-global arena: two
// structurally equal expressions always have the same id, so structural
// equality, hashing, and memoized traversals are O(1) per node. `Expr` itself
// is a trivially copyable 4-byte handle.
//
// Construction canonicalizes aggressively (constant folding, flattening of
// conjunctions, double-negation, neutral/absorbing elements, if-then-else
// collapsing) so that downstream engines see small formulas. The surviving
// kinds form a deliberately small core:
//
//   Constant Variable Next Not And Or Ite Eq Lt Le Add Mul Div ToReal
//
// `Implies`, `Iff`, `Ne`, `Gt`, `Ge`, unary minus, `Sub`, `min`, `max` are
// provided as builders that rewrite into the core.
//
// Threading: the arena is a process-global singleton that is safe to use
// from multiple threads (concurrent service batches on the svc/ pool workers
// build formulas concurrently).
// Interning serializes on one mutex; reads of already-interned nodes are
// lock-free. Z3 contexts remain single-threaded — each engine/worker owns
// its own smt::Solver (and thus its own z3::context).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/rational.h"

namespace verdict::expr {

enum class Kind : std::uint8_t {
  kConstant,
  kVariable,
  kNext,  // next-state reference; child is always a Variable
  kNot,
  kAnd,  // n-ary
  kOr,   // n-ary
  kIte,  // kids: condition, then, else
  kEq,
  kLt,
  kLe,
  kAdd,  // n-ary
  kMul,  // n-ary
  kDiv,
  kToReal,  // int -> real promotion
};

enum class TypeKind : std::uint8_t { kBool, kInt, kReal };

/// The type of an expression. Int variables may carry a declared finite range
/// [lo, hi]; the range is metadata used by the BDD bit-blaster and the
/// explicit-state engine, and is also asserted as an invariant by engines that
/// honor `TransitionSystem::var_range_invariant`.
struct Type {
  TypeKind kind = TypeKind::kBool;
  bool bounded = false;
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  static Type boolean() { return {TypeKind::kBool, false, 0, 0}; }
  static Type integer() { return {TypeKind::kInt, false, 0, 0}; }
  static Type integer_range(std::int64_t lo, std::int64_t hi) {
    return {TypeKind::kInt, true, lo, hi};
  }
  static Type real() { return {TypeKind::kReal, false, 0, 0}; }

  [[nodiscard]] bool is_bool() const { return kind == TypeKind::kBool; }
  [[nodiscard]] bool is_int() const { return kind == TypeKind::kInt; }
  [[nodiscard]] bool is_real() const { return kind == TypeKind::kReal; }

  friend bool operator==(const Type& a, const Type& b) {
    return a.kind == b.kind && a.bounded == b.bounded && a.lo == b.lo && a.hi == b.hi;
  }
};

/// A concrete value: the result of evaluating an expression, or one slot of a
/// counterexample state.
using Value = std::variant<bool, std::int64_t, util::Rational>;

[[nodiscard]] std::string value_str(const Value& v);
[[nodiscard]] bool value_eq(const Value& a, const Value& b);

class Expr;

/// Identifier of a declared variable (stable for the process lifetime).
using VarId = std::uint32_t;

/// A handle to an interned expression node. Default-constructed handles are
/// invalid; all builders return valid handles.
class Expr {
 public:
  constexpr Expr() noexcept : id_(0) {}

  [[nodiscard]] bool valid() const noexcept { return id_ != 0; }
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

  [[nodiscard]] Kind kind() const;
  [[nodiscard]] Type type() const;

  /// Children of this node (empty for constants/variables).
  [[nodiscard]] std::span<const Expr> kids() const;

  /// For kConstant nodes: the value. Throws otherwise.
  [[nodiscard]] const Value& constant_value() const;

  /// For kVariable nodes (or kNext of a variable): the variable id / name.
  [[nodiscard]] VarId var() const;
  [[nodiscard]] const std::string& var_name() const;

  /// Identity (structural equality thanks to hash-consing).
  [[nodiscard]] bool is(Expr other) const noexcept { return id_ == other.id_; }

  [[nodiscard]] bool is_true() const;
  [[nodiscard]] bool is_false() const;
  [[nodiscard]] bool is_constant() const { return valid() && kind() == Kind::kConstant; }
  [[nodiscard]] bool is_variable() const { return valid() && kind() == Kind::kVariable; }

  /// Infix rendering, for diagnostics and trace printing.
  [[nodiscard]] std::string str() const;

  // --- Operator sugar. NOTE: operator== builds an equality *expression*
  // (like z3++); use is() for handle identity. ---
  friend Expr operator!(Expr e);
  friend Expr operator&&(Expr a, Expr b);
  friend Expr operator||(Expr a, Expr b);
  friend Expr operator+(Expr a, Expr b);
  friend Expr operator-(Expr a, Expr b);
  friend Expr operator*(Expr a, Expr b);
  friend Expr operator/(Expr a, Expr b);
  friend Expr operator-(Expr a);
  friend Expr operator==(Expr a, Expr b);
  friend Expr operator!=(Expr a, Expr b);
  friend Expr operator<(Expr a, Expr b);
  friend Expr operator<=(Expr a, Expr b);
  friend Expr operator>(Expr a, Expr b);
  friend Expr operator>=(Expr a, Expr b);

 private:
  friend Expr detail_make_expr(std::uint32_t id) noexcept;
  explicit constexpr Expr(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_;
};

/// Internal: wraps a raw arena id into a handle. Not part of the public API.
Expr detail_make_expr(std::uint32_t id) noexcept;

struct ExprHash {
  std::size_t operator()(Expr e) const noexcept { return e.id(); }
};
struct ExprEq {
  bool operator()(Expr a, Expr b) const noexcept { return a.is(b); }
};

// --- Variable declaration ---------------------------------------------------

/// Declares (or retrieves) a variable. Re-declaring an existing name with the
/// same type returns the same node; with a different type it throws.
Expr bool_var(std::string_view name);
Expr int_var(std::string_view name);
Expr int_var(std::string_view name, std::int64_t lo, std::int64_t hi);
Expr real_var(std::string_view name);
Expr declare_var(std::string_view name, Type type);

/// Looks up a declared variable by name; throws if unknown.
Expr var_by_name(std::string_view name);
[[nodiscard]] bool var_exists(std::string_view name);
[[nodiscard]] Type var_type(VarId id);
[[nodiscard]] const std::string& var_name(VarId id);

// --- Constants ---------------------------------------------------------------

Expr tru();
Expr fls();
Expr bool_const(bool b);
Expr int_const(std::int64_t v);
Expr real_const(util::Rational r);
Expr constant_of(const Value& v, const Type& type);

// --- Core builders -----------------------------------------------------------

Expr mk_not(Expr e);
Expr mk_and(std::span<const Expr> kids);
Expr mk_and(std::initializer_list<Expr> kids);
Expr mk_or(std::span<const Expr> kids);
Expr mk_or(std::initializer_list<Expr> kids);
Expr mk_implies(Expr a, Expr b);
Expr mk_iff(Expr a, Expr b);
Expr ite(Expr cond, Expr then_e, Expr else_e);
Expr mk_eq(Expr a, Expr b);
Expr mk_lt(Expr a, Expr b);
Expr mk_le(Expr a, Expr b);
Expr mk_add(std::span<const Expr> kids);
Expr mk_add(std::initializer_list<Expr> kids);
Expr mk_mul(std::span<const Expr> kids);
Expr mk_mul(std::initializer_list<Expr> kids);
Expr mk_div(Expr a, Expr b);
Expr to_real(Expr e);

/// Next-state reference. `e` must be a variable.
Expr next(Expr e);

// --- Convenience -------------------------------------------------------------

/// min/max via ite.
Expr mk_min(Expr a, Expr b);
Expr mk_max(Expr a, Expr b);
/// ite(b, 1, 0) as an int.
Expr bool_to_int(Expr b);
/// Sum of ite(b_i, 1, 0); int-typed. Handy for "number of available nodes".
Expr count_true(std::span<const Expr> bools);
/// Conjunction / disjunction over a vector (empty -> true / false).
Expr all_of(const std::vector<Expr>& es);
Expr any_of(const std::vector<Expr>& es);

// Mixed Expr/integer operator sugar.
Expr operator+(Expr a, std::int64_t b);
Expr operator+(std::int64_t a, Expr b);
Expr operator-(Expr a, std::int64_t b);
Expr operator-(std::int64_t a, Expr b);
Expr operator*(Expr a, std::int64_t b);
Expr operator*(std::int64_t a, Expr b);
Expr operator==(Expr a, std::int64_t b);
Expr operator!=(Expr a, std::int64_t b);
Expr operator<(Expr a, std::int64_t b);
Expr operator<=(Expr a, std::int64_t b);
Expr operator>(Expr a, std::int64_t b);
Expr operator>=(Expr a, std::int64_t b);

/// Total number of interned nodes (diagnostics / benchmarks).
[[nodiscard]] std::size_t arena_size();

/// Pre-sizes the global intern tables for `nodes` additional expression
/// nodes and `vars` additional variables. A model builder that knows its
/// size up front (e.g. a scenario over a topology with L links) calls this
/// once so construction never rehashes mid-build — rehashing the node table
/// is the single biggest allocation spike of a large model build, and in the
/// service it happens while other batches contend for the arena lock.
void reserve_arena(std::size_t nodes, std::size_t vars);

/// Number of node-intern-table rehashes since process start. A correctly
/// pre-sized build leaves this unchanged (asserted for fattree8 in tests).
[[nodiscard]] std::size_t arena_rehashes();

}  // namespace verdict::expr
