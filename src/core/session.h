// Multi-property verification sessions.
//
// The paper's workflow (Fig. 4) checks *sets* of safety/liveness properties
// against one parametric transition system, but core::check is a one-shot
// API: every call builds fresh solvers and re-translates the transition
// relation frame by frame. A Session amortizes that encoding across
// properties the way an inference stack batches requests: add_property() N
// times, then check_all() verifies all N over ONE shared unrolling — N
// properties cost one solver construction and one set of frame assertions
// instead of N (see Stats::{solvers_created, frame_assertions}).
//
//   core::Session session(scenario.system);
//   session.add_property("available_ge_m", scenario.property);
//   session.add_property("available_nonneg", "G (available >= 0)");
//   core::SessionResult r = session.check_all({.engine = core::Engine::kBmc});
//   std::cout << r.table();
//
// Sharing by engine: the invariant group is one batch of the bounded engines
// (core/bmc.h, core/kinduction.h), each property one InvariantQuery
// activated per check by its own assumption literals: kBmc runs the BMC
// batch, kKInduction the k-induction batch (one base and one step solver).
// Liveness properties share one solver per depth (check_ltl_lasso_batch:
// path + loop selectors + fairness encoded once, per-property subformula
// tables activated by assumption). kAuto runs the k-induction batch first
// (its base case is a shared BMC) and falls back to one-shot kAuto for
// properties it leaves undecided. kPdr/kExplicit cannot share an unrolling
// and delegate to core::check per property.
//
// Reductions run through core/reduce.h, with the same rules as core::check:
// the invariant group first meets one counting quotient (core::check_quotient,
// refinement included), and what it leaves undecided runs on the concrete
// system behind one optimizer pass per group (core::check_optimized: one
// slice for the shared safety group, fold + constant propagation for the
// lasso group). Re-decides and delegated core::check calls skip the quotient,
// which has already had its turn.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/checker.h"
#include "core/result.h"
#include "ltl/ltl.h"
#include "ts/transition_system.h"
#include "util/stopwatch.h"

namespace verdict::core {

/// Verdict memoization hook. The service layer (svc::VerdictCache via
/// svc::SessionCache) implements this; core only defines the seam so the
/// dependency keeps pointing downward. check_all() consults the hook per
/// property before any engine runs and offers every freshly computed outcome
/// back afterwards — the implementation decides what is safe to keep (svc
/// stores only definitive verdicts). `deadline` is the session's: work the
/// lookup does itself (revalidating a proof from an earlier model version)
/// must stop when the session would.
class PropertyCacheHook {
 public:
  virtual ~PropertyCacheHook() = default;
  virtual std::optional<CheckOutcome> lookup(const ts::TransitionSystem& system,
                                             const ltl::Formula& property,
                                             Engine engine, int max_depth,
                                             const util::Deadline& deadline) = 0;
  virtual void store(const ts::TransitionSystem& system, const ltl::Formula& property,
                     Engine engine, int max_depth, const CheckOutcome& outcome) = 0;
};

struct SessionOptions {
  Engine engine = Engine::kAuto;
  /// Unroll depth (BMC/lasso), induction bound, or PDR frame limit.
  int max_depth = 50;
  /// Budget for the whole session (all properties).
  util::Deadline deadline = util::Deadline::never();
  /// Optional verdict memoization (not owned; may be shared across sessions
  /// and threads — implementations must be thread-safe). nullptr = off.
  PropertyCacheHook* cache = nullptr;
  /// Run the opt/ pipeline once per shared group (one cone-of-influence
  /// slice for the safety group, fold + constant propagation for the lasso
  /// group). Counterexamples are lifted back before
  /// they are reported or offered to the cache hook.
  bool optimize = true;
  /// Run the abs/ symmetry-reduction stage once per session: the whole
  /// invariant group is checked against one counting quotient first (see
  /// core::check_quotient); holds transfer directly, abstract violations must
  /// replay concretely, spurious ones refine the quotient, and anything else
  /// falls through to the concrete engines. Like optimize=false, turning
  /// this off also bypasses the cache lookup (hits may have been produced
  /// through the abstraction) while still refreshing stored entries.
  bool abstract = true;
};

struct PropertyVerdict {
  std::string name;
  ltl::Formula property;
  CheckOutcome outcome;
  /// The outcome came from SessionOptions::cache, not from an engine run.
  bool cache_hit = false;
};

struct SessionResult {
  std::vector<PropertyVerdict> properties;
  /// Aggregate cost of the whole session. Shared solvers are counted once,
  /// which is the point: with N properties, total.solvers_created and
  /// total.frame_assertions are strictly below N one-shot core::check calls.
  Stats total;

  [[nodiscard]] bool all_hold() const;      // every property proven
  [[nodiscard]] bool any_violated() const;  // some counterexample found
  [[nodiscard]] bool any_undecided() const; // some timeout/unknown
  /// No violations and no undecided results (kHolds/kBoundReached only).
  [[nodiscard]] bool all_clean() const;
  /// Human-readable per-property verdict table.
  [[nodiscard]] std::string table() const;
};

class Session {
 public:
  /// The session keeps its own copy of the system (cheap: shared expression
  /// handles), so the argument need not outlive it.
  explicit Session(ts::TransitionSystem system);

  /// Registers a property; returns its index into SessionResult::properties.
  std::size_t add_property(std::string name, ltl::Formula property);
  /// Parses `property_text` with ltl::parse_ltl and registers it.
  std::size_t add_property(std::string name, std::string_view property_text);

  [[nodiscard]] std::size_t num_properties() const { return properties_.size(); }
  [[nodiscard]] const ts::TransitionSystem& system() const { return system_; }

  /// Checks every added property. Verdicts agree with one-shot core::check
  /// of the same engine (asserted by the crosscheck suite); only the cost
  /// profile differs.
  [[nodiscard]] SessionResult check_all(const SessionOptions& options = {}) const;

 private:
  struct Prop {
    std::string name;
    ltl::Formula formula;
  };

  ts::TransitionSystem system_;
  std::vector<Prop> properties_;
};

}  // namespace verdict::core
