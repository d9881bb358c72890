#include "core/checker.h"

#include <sstream>

#include "core/bmc.h"
#include "core/explicit.h"
#include "core/kinduction.h"
#include "core/l2s.h"
#include "core/liveness.h"
#include "core/pdr.h"
#include "core/reduce.h"
#include "expr/eval.h"
#include "ltl/parser.h"
#include "ltl/trace_eval.h"
#include "obs/trace.h"
#include "opt/optimize.h"
#include "util/log.h"

namespace verdict::core {

namespace {

CheckOutcome check_safety(const ts::TransitionSystem& ts, expr::Expr invariant,
                          const CheckOptions& options) {
  switch (options.engine) {
    case Engine::kBmc: {
      BmcOptions o;
      o.max_depth = options.max_depth;
      o.deadline = options.deadline;
      return check_invariant_bmc(ts, invariant, o);
    }
    case Engine::kKInduction: {
      KInductionOptions o;
      o.max_k = options.max_depth;
      o.deadline = options.deadline;
      return check_invariant_kinduction(ts, invariant, o);
    }
    case Engine::kExplicit: {
      ExplicitOptions o;
      o.deadline = options.deadline;
      return check_invariant_explicit(ts, invariant, o);
    }
    case Engine::kPdr: {
      PdrOptions o;
      o.max_frames = options.max_depth;
      o.deadline = options.deadline;
      return check_invariant_pdr(ts, invariant, o);
    }
    case Engine::kAuto: {
      // PDR first; when it gives up without a decision (and budget remains),
      // fall back to BMC to at least hunt for a bounded violation. The two
      // runs report one merged Stats record ("pdr+bmc"). Under a finite
      // budget PDR only gets half of it — otherwise it consumes the whole
      // deadline and the fallback (which often finds a cheap bounded
      // violation where PDR struggles) could never run.
      PdrOptions o;
      o.max_frames = options.max_depth;
      o.deadline = options.deadline.is_finite()
                       ? options.deadline.clipped_to(options.deadline.remaining_seconds() / 2)
                       : options.deadline;
      CheckOutcome pdr = check_invariant_pdr(ts, invariant, o);
      if (pdr.verdict == Verdict::kHolds || pdr.verdict == Verdict::kViolated ||
          options.deadline.expired_or_cancelled())
        return pdr;
      BmcOptions b;
      b.max_depth = options.max_depth;
      b.deadline = options.deadline;
      CheckOutcome bmc = check_invariant_bmc(ts, invariant, b);
      Stats merged = pdr.stats;
      merged.merge(bmc.stats);
      bmc.stats = std::move(merged);
      return bmc;
    }
    case Engine::kLtlLasso:
      break;  // dispatched by the caller before reaching check_safety
  }
  LivenessOptions o;
  o.max_depth = options.max_depth;
  o.deadline = options.deadline;
  return check_ltl_lasso(ts, ltl::G(ltl::atom(invariant)), o);
}

}  // namespace

CheckOutcome check(const ts::TransitionSystem& ts, const ltl::Formula& property,
                   const CheckOptions& options) {
  const auto decide_one = [](const ts::TransitionSystem& system,
                             std::span<const ltl::Formula> properties,
                             const CheckOptions& o) {
    return std::vector<CheckOutcome>{check(system, properties.front(), o)};
  };
  if (options.abstract) {
    CheckOutcome reduced =
        std::move(check_quotient(ts, {&property, 1}, options, decide_one).front());
    if (decided(reduced)) return reduced;
    CheckOptions concrete = options;
    concrete.abstract = false;
    CheckOutcome full = check(ts, property, concrete);
    full.stats.merge(reduced.stats);
    return full;
  }

  if (options.optimize) {
    opt::OptimizeOptions oo;
    // Slicing is only sound to lift on finite safety counterexamples, so it
    // stays off for the lasso/liveness paths; fold + constant propagation
    // apply everywhere (their lifting is exact, lassos included).
    oo.slice = ltl::is_invariant_property(property) &&
               options.engine != Engine::kLtlLasso;
    CheckOptions inner = options;
    inner.optimize = false;
    return std::move(
        check_optimized(ts, {&property, 1}, oo, options.deadline,
                        [&](const ts::TransitionSystem& system,
                            std::span<const ltl::Formula> properties) {
                          return decide_one(system, properties, inner);
                        })
            .front());
  }

  if (ltl::is_invariant_property(property) && options.engine != Engine::kLtlLasso)
    return check_safety(ts, ltl::invariant_atom(property), options);

  // Stabilization/recurrence shapes: decide outright (proof or lasso) via the
  // liveness-to-safety reduction — complete only on finite domains, so
  // infinite-domain (real-valued) systems stay on the bounded lasso engine.
  if (options.engine == Engine::kAuto && ts.is_finite_domain() &&
      (ltl::is_fg_property(property) || ltl::is_gf_property(property))) {
    L2sOptions l2s;
    l2s.max_depth = options.max_depth > 0 ? options.max_depth * 4 : 200;
    l2s.deadline = options.deadline;
    return ltl::is_fg_property(property)
               ? check_fg_via_safety(ts, ltl::stabilization_atom(property), l2s)
               : check_gf_via_safety(ts, ltl::stabilization_atom(property), l2s);
  }

  if (options.engine == Engine::kExplicit)
    throw std::invalid_argument(
        "explicit engine only supports G(atom) safety properties; use "
        "check_ctl_explicit for branching-time properties");

  LivenessOptions o;
  o.max_depth = options.max_depth;
  o.deadline = options.deadline;
  return check_ltl_lasso(ts, property, o);
}

CheckOutcome check(const ts::TransitionSystem& ts, std::string_view property_text,
                   const CheckOptions& options) {
  return check(ts, ltl::parse_ltl(property_text), options);
}

bool confirm_counterexample(const ts::TransitionSystem& ts, const ltl::Formula& property,
                            const CheckOutcome& outcome, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  if (outcome.verdict != Verdict::kViolated) return fail("outcome is not a violation");
  if (!outcome.counterexample) return fail("violation without a trace");
  const ts::Trace& trace = *outcome.counterexample;

  std::string conform_error;
  if (!ts.trace_conforms(trace, &conform_error))
    return fail("trace is not an execution: " + conform_error);

  if (trace.is_lasso()) {
    if (ltl::holds_on_lasso(property, ts, trace))
      return fail("lasso trace satisfies the property it should refute");
    return true;
  }

  // Finite trace: only meaningful for invariant violations.
  if (!ltl::is_invariant_property(property))
    return fail("finite trace for a non-invariant property");
  const expr::Expr atom = ltl::invariant_atom(property);
  if (expr::eval_bool(atom, ts.env_of(trace.states.back(), trace.params)))
    return fail("final trace state satisfies the invariant it should violate");
  return true;
}

bool lift_counterexample(const opt::Optimized& optimized, ts::Trace& trace,
                         const util::Deadline& deadline) {
  // Explicit reconstruction first: free when nothing was sliced, cheap when
  // the dropped component's state space fits the enumeration budget. It also
  // re-inserts the propagated constants, which the solver path relies on.
  if (optimized.lift_trace(trace)) return true;
  if (trace.is_lasso()) return false;
  const std::size_t len = trace.states.size();
  if (len == 0) return false;

  // Solver-based completion. A step counter turns "the dropped component has
  // an execution with exactly `len` states" into a BMC reachability question:
  // G(step < len-1) is first violated at frame len-1, so the shortest
  // counterexample is exactly len states of the dropped component,
  // independent of the kept half (slicing guarantees the two share no
  // variables). The counter is keyed by len, not by a per-lift id:
  // re-declaring the same name with the same [0, len] type returns the
  // already-interned variable, so a long-running daemon interns at most one
  // step variable per distinct trace length instead of one per lift.
  const std::string step_name = "__opt_lift_step" + std::to_string(len);
  ts::TransitionSystem d = optimized.dropped;
  const expr::Expr step = expr::int_var(step_name, 0, static_cast<std::int64_t>(len));
  d.add_var(step);
  d.add_init(expr::mk_eq(step, expr::int_const(0)));
  d.add_trans(expr::mk_eq(expr::next(step), step + 1));

  BmcOptions b;
  b.max_depth = static_cast<int>(len);
  b.deadline = deadline;
  const CheckOutcome run = check_invariant_bmc(
      d, expr::mk_lt(step, expr::int_const(static_cast<std::int64_t>(len) - 1)), b);
  if (run.verdict != Verdict::kViolated || !run.counterexample ||
      run.counterexample->states.size() != len)
    return false;

  for (std::size_t i = 0; i < len; ++i) {
    for (const expr::Expr v : optimized.dropped_vars) {
      const std::optional<expr::Value> val = run.counterexample->states[i].get(v);
      if (!val) return false;
      trace.states[i].set(v, *val);
    }
  }
  for (const expr::Expr p : optimized.dropped_params) {
    const std::optional<expr::Value> val = run.counterexample->params.get(p);
    if (!val) return false;
    trace.params.set(p, *val);
  }
  obs::count("opt.solver_lifts");
  return true;
}

std::string describe(const CheckOutcome& outcome) {
  std::ostringstream os;
  os << verdict_name(outcome.verdict) << " in " << outcome.stats.seconds << "s";
  if (outcome.stats.depth_reached >= 0) os << " at depth " << outcome.stats.depth_reached;
  os << " [" << outcome.stats.engine << ", " << outcome.stats.solver_checks << " checks]";
  if (!outcome.message.empty()) os << " — " << outcome.message;
  return os.str();
}

}  // namespace verdict::core
