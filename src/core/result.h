// Engine verdicts, statistics, and outcome records.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ts/transition_system.h"

namespace verdict::core {

enum class Verdict : std::uint8_t {
  kHolds,         // property proven for all executions
  kViolated,      // counterexample found (see trace)
  kBoundReached,  // no violation up to the exploration bound; not a proof
  kTimeout,       // deadline expired before a decision
  kUnknown,       // solver gave up for another reason
};

[[nodiscard]] constexpr const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kHolds:
      return "holds";
    case Verdict::kViolated:
      return "violated";
    case Verdict::kBoundReached:
      return "bound-reached";
    case Verdict::kTimeout:
      return "timeout";
    case Verdict::kUnknown:
      return "unknown";
  }
  return "?";
}

struct Stats {
  std::string engine;
  double seconds = 0.0;
  /// Wall time spent inside smt::Solver::check* calls — the solver share of
  /// `seconds`. The gap between the two is encoding/bookkeeping time, which
  /// is exactly what the session/encoding layer exists to shrink.
  double solver_seconds = 0.0;
  std::size_t solver_checks = 0;
  int depth_reached = -1;  // engine-specific: unroll depth / frame count
  /// SMT solver instances constructed for this run. Batch sessions exist to
  /// drive this (and frame_assertions) below the N-independent-checks cost.
  std::size_t solvers_created = 0;
  /// Formulas asserted across those solvers (smt::Solver::num_assertions) —
  /// the per-frame translation work that sessions amortize across properties.
  std::size_t frame_assertions = 0;

  /// Folds another engine run into this record: solver calls and solver time
  /// accumulate, depth keeps the maximum, and the engine label concatenates
  /// ("pdr+bmc") so fallback outcomes show every engine that ran.
  void merge(const Stats& other) {
    seconds += other.seconds;
    solver_seconds += other.solver_seconds;
    solver_checks += other.solver_checks;
    solvers_created += other.solvers_created;
    frame_assertions += other.frame_assertions;
    depth_reached = depth_reached > other.depth_reached ? depth_reached
                                                        : other.depth_reached;
    if (engine.empty()) {
      engine = other.engine;
    } else if (!other.engine.empty()) {
      engine += "+" + other.engine;
    }
  }
};

/// Re-checkable certificate exported by a safety engine on a kHolds verdict.
///
/// kPdrInvariant: the inductive invariant is `P /\ AND(!cube)` over `cubes`
/// (each cube a partial assignment over vars+params, negated into a clause),
/// where P is the property's invariant atom. kKInduction: the property was
/// proved by (k+1)-induction; re-validation re-runs one base and one step
/// check at exactly that k instead of searching.
///
/// `pinned` records constants the optimizer propagated away before the engine
/// ran: the certificate is only valid relative to those equalities, so any
/// re-validation against the unoptimized system must conjoin them.
struct ProofArtifact {
  enum class Kind : std::uint8_t { kPdrInvariant, kKInduction };
  Kind kind = Kind::kPdrInvariant;
  int k = 0;                    // kKInduction: proved by (k+1)-induction
  std::vector<ts::State> cubes; // kPdrInvariant: blocked cubes of the invariant
  ts::State pinned;             // optimizer-propagated constants (may be empty)
};

struct CheckOutcome {
  Verdict verdict = Verdict::kUnknown;
  std::optional<ts::Trace> counterexample;
  Stats stats;
  std::string message;  // human-readable detail (e.g. timeout context)
  /// Present only on kHolds from an engine that can certify its proof.
  std::optional<ProofArtifact> artifact;

  [[nodiscard]] bool violated() const { return verdict == Verdict::kViolated; }
  [[nodiscard]] bool holds() const { return verdict == Verdict::kHolds; }
};

}  // namespace verdict::core
