// Top-level model-checking façade — the library's main entry point.
//
// Mirrors the paper's Figure 4 workflow: a parametric transition system
// (control-component models + environment models), a temporal property, and
// parameter constraints go in; a verification verdict, a counterexample
// trace with concrete parameter values, or suggested safe parameters
// (core/synth.h) come out.
//
//   ts::TransitionSystem system = ...;            // or via mdl:: composition
//   ltl::Formula p = ltl::parse_ltl("G (converged -> available >= m)");
//   core::CheckOutcome r = core::check(system, p);
//   if (r.violated()) std::cout << r.counterexample->str();
#pragma once

#include "core/result.h"
#include "ltl/ltl.h"
#include "opt/optimize.h"
#include "ts/transition_system.h"
#include "util/stopwatch.h"

namespace verdict::core {

enum class Engine : std::uint8_t {
  kAuto,        // safety -> PDR with BMC fallback; liveness -> lasso BMC
  kBmc,         // bounded search only (finds violations, never proves)
  kKInduction,  // bounded search + inductive proof
  kPdr,         // IC3-style unbounded proof
  kExplicit,    // brute-force enumeration (finite domains)
  kLtlLasso,    // bounded lasso search for arbitrary LTL
};

struct CheckOptions {
  Engine engine = Engine::kAuto;
  /// Unroll depth (BMC/lasso), induction bound, or PDR frame limit.
  int max_depth = 50;
  util::Deadline deadline = util::Deadline::never();
  /// Run the opt/ model-optimization pipeline (fold + constant propagation +
  /// cone-of-influence slicing for safety properties) before the engine sees
  /// the system. Counterexamples are lifted back to the original system; if
  /// a sliced violation cannot be lifted, the check transparently reruns
  /// unoptimized. verdictc --no-opt / the wire field "optimize" turn it off.
  bool optimize = true;
  /// Run the abs/ symmetry-reduction pass ahead of the engines: verify the
  /// counting quotient first and fall back through a CEGAR loop (concretize
  /// abstract counterexamples, split the orbit behind a spurious trace) to
  /// the concrete system. Only engages for invariant-shaped properties; the
  /// verdict is always decided soundly. verdictc --no-abs / the wire field
  /// "abstract" turn it off.
  bool abstract = true;
};

/// Checks an LTL property. G(atom) properties route to the safety engines;
/// everything else to the lasso engine (which can only find violations).
[[nodiscard]] CheckOutcome check(const ts::TransitionSystem& ts,
                                 const ltl::Formula& property,
                                 const CheckOptions& options = {});

/// Parses `property_text` with ltl::parse_ltl and checks it.
[[nodiscard]] CheckOutcome check(const ts::TransitionSystem& ts,
                                 std::string_view property_text,
                                 const CheckOptions& options = {});

/// Independently validates a kViolated outcome: the trace must be a genuine
/// execution of `ts` (ts::trace_conforms) and must falsify `property`
/// (final-state evaluation for safety, ltl::holds_on_lasso for lassos).
/// Returns true when the counterexample is confirmed.
[[nodiscard]] bool confirm_counterexample(const ts::TransitionSystem& ts,
                                          const ltl::Formula& property,
                                          const CheckOutcome& outcome,
                                          std::string* error = nullptr);

/// Lifts a sliced counterexample back to the original system. Tries the
/// optimizer's explicit reconstruction (opt::Optimized::lift_trace) first;
/// when the dropped component is too large for explicit enumeration, falls
/// back to a solver-based completion: BMC on the dropped component alone —
/// augmented with a step counter so "an execution with exactly this trace's
/// length" becomes a reachability question — whose witness values merge into
/// the trace. Returns false when no completion exists within the deadline;
/// the sliced violation may then be spurious and the caller must re-decide
/// on the original system. Lasso traces with a non-empty dropped component
/// are always refused (neither completion preserves the loop).
[[nodiscard]] bool lift_counterexample(const opt::Optimized& optimized,
                                       ts::Trace& trace,
                                       const util::Deadline& deadline);

/// One-line human-readable summary ("violated in 0.12s at depth 4 [bmc]").
[[nodiscard]] std::string describe(const CheckOutcome& outcome);

}  // namespace verdict::core
