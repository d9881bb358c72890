// Counting quotient: collapse each confirmed orbit to per-value counters.
//
// For an orbit of N interchangeable variables over an enumerable domain
// {d1..dk}, the quotient replaces the members by counter variables
// c_d : int[0,N] ("how many members currently hold d") with the invariant
// sum(c_d) = N. Constraints translate by template:
//
//   init/invar  AND_i t(v_i)            ->  for each d: t[d] \/ c_d = 0
//   guards      sum_i ite(t(v_i),1,0)   ->  sum_d ite(t[d], c_d, 0)
//   trans       one member steps d->d'  ->  c_d >= pins, c_d' = c_d - 1,
//               (guard pins pre-value)      c_d'' = c_d'' + 1, rest keep
//
// Every abstract transition disjunct is implied by its concrete source, so
// the quotient simulates the concrete system: a concrete violation of the
// rewritten property maps to an abstract one, and an abstract kHolds
// transfers back (see docs/abstraction.md for the full argument). The
// per-member rules of an orbit collapse into one hash-consed abstract
// disjunct — the quotient's size is independent of the topology size, which
// is what carries bench/fig6_scalability past the paper's fattree12 wall.
//
// Properties observe individual members (reachability formulas name concrete
// paths), so the property atom is rewritten separately:
//   - count shapes rewrite exactly, as above;
//   - a monotone member-only subformula (a reach_i) at positive polarity is
//     *strengthened* to a deviation threshold "at most B members deviate
//     from their initial value". B is validated with a native cardinality
//     constraint (unsat: atmost(B; m_i != d0) and the subformula false) and
//     searched exactly: doubling to the first sat, then bisecting below the
//     sat model's deviation count, so B is the largest valid bound (for
//     reachability: the min cut minus one). An unknown probe ends the
//     search at the last proven bound; with none, there is no guard. At
//     negative polarity the subformula weakens to `true`. Both directions
//     make the rewritten atom imply the original, so kHolds still transfers;
//     abstract violations may now be spurious, which is exactly what the
//     CEGAR loop in core::check concretizes and refines.
//
// An orbit the rewrite cannot handle (a raw member survives anywhere) is
// blocked and the pass reruns without it — unsound quotients are never
// produced, at worst the abstraction degrades to the concrete system.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "abs/symmetry.h"
#include "ltl/ltl.h"
#include "ts/transition_system.h"
#include "util/stopwatch.h"

namespace verdict::abs {

/// One applied orbit with its audit trail.
struct OrbitAbstraction {
  Orbit orbit;
  std::vector<expr::Value> domain;    // member domain, in order
  std::vector<expr::Expr> counters;   // counter variable per domain value
  /// Valid when the property was threshold-strengthened over this orbit:
  /// the counter-space predicate substituted for the member subformulas.
  expr::Expr strengthened_guard;
  std::int64_t threshold = -1;
  std::vector<std::string> justification;
};

struct Abstraction {
  ts::TransitionSystem system;           // the counting quotient
  std::vector<ltl::Formula> properties;  // rewritten, input order
  std::vector<OrbitAbstraction> orbits;
  std::size_t vars_collapsed = 0;        // member vars replaced by counters

  [[nodiscard]] const ltl::Formula& property() const { return properties.front(); }
};

struct AbstractionOptions {
  SymmetryOptions symmetry;
  /// Orbits whose member domain has more values than this are left concrete
  /// (the counter tuple would not be smaller than the members).
  std::size_t max_domain = 4;
  /// Monotone threshold strengthening of property subformulas; turning it
  /// off restricts the rewrite to exact count shapes.
  bool strengthen = true;
  /// Budget per threshold-validation solver query; a probe with no budget
  /// left is not run (abs.threshold_probes counts the ones that are).
  double strengthen_query_seconds = 5.0;
  util::Deadline deadline = util::Deadline::never();
};

/// Builds the counting quotient of `ts` for invariant-shaped properties.
/// Returns nullopt when any property is not invariant-shaped or when no
/// orbit survives the rewrite — callers then check the concrete system.
/// Increments abs.orbits_found / abs.vars_collapsed on success.
[[nodiscard]] std::optional<Abstraction> abstract_system(
    const ts::TransitionSystem& ts, std::span<const ltl::Formula> properties,
    const AbstractionOptions& options = {});

[[nodiscard]] std::optional<Abstraction> abstract_system(
    const ts::TransitionSystem& ts, const ltl::Formula& property,
    const AbstractionOptions& options = {});

}  // namespace verdict::abs
