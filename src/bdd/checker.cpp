#include "bdd/checker.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "bdd/reach_index.h"
#include "core/reduce.h"
#include "expr/walk.h"
#include "obs/trace.h"
#include "util/log.h"

namespace verdict::bdd {

using core::CheckOutcome;
using core::Verdict;
using expr::Expr;

namespace {

ts::Trace trace_from_chain(const SymbolicSystem& system,
                           const std::vector<ts::State>& chain) {
  ts::Trace trace;
  const ts::TransitionSystem& ts = system.system();
  if (!chain.empty()) {
    for (Expr p : ts.params()) {
      const auto v = chain.front().get(p);
      if (v) trace.params.set(p, *v);
    }
  }
  for (const ts::State& s : chain) {
    ts::State vars_only;
    for (Expr v : ts.vars()) {
      const auto value = s.get(v);
      if (value) vars_only.set(v, *value);
    }
    trace.states.push_back(std::move(vars_only));
  }
  return trace;
}

}  // namespace

CheckOutcome check_invariant_bdd(const ts::TransitionSystem& ts, Expr invariant,
                                 const BddOptions& options) {
  if (options.optimize) {
    BddOptions inner = options;
    inner.optimize = false;
    const ltl::Formula property = ltl::G(ltl::atom(invariant));
    return std::move(
        core::check_optimized(ts, {&property, 1}, {}, options.deadline,
                              [&](const ts::TransitionSystem& system,
                                  std::span<const ltl::Formula> properties) {
                                return std::vector<CheckOutcome>{check_invariant_bdd(
                                    system, ltl::invariant_atom(properties.front()), inner)};
                              })
            .front());
  }
  util::Stopwatch watch;
  CheckOutcome outcome;
  outcome.stats.engine = "bdd-reach";

  SymbolicSystem system(ts, options.order, options.reorder);
  Manager& m = system.manager();
  // Bound even a single diverging apply: encode_predicate below can blow up
  // long before the loop's per-iteration deadline polls run.
  m.set_abort_check([&options] { return options.deadline.expired(); });

  // Forward BFS keeping onion rings for counterexample reconstruction.
  std::vector<Bdd> rings;
  Bdd reached = system.init();
  rings.push_back(system.init());
  int depth = 0;
  ReachIndex index;  // sound: `reached` only ever grows (see reach_index.h)
  index.advance(reached);

  const auto finish = [&](Verdict v, const std::string& message = "") {
    outcome.verdict = v;
    outcome.message = message;
    outcome.stats.depth_reached = depth;
    outcome.stats.seconds = watch.elapsed_seconds();
    return outcome;
  };

  try {
  const Bdd bad = m.apply_and(system.state_space(),
                              m.apply_not(system.encode_predicate(invariant)));

  while (true) {
    if (options.deadline.expired())
      return finish(Verdict::kTimeout, "deadline during reachability");

    const Bdd hit = m.apply_and(rings.back(), bad);
    if (!hit.is_zero()) {
      // Walk the rings backwards from a violating state.
      std::vector<ts::State> chain;
      ts::State cur = system.decode(m.any_sat(hit));
      chain.push_back(cur);
      for (std::size_t ring = rings.size() - 1; ring-- > 0;) {
        const Bdd pred =
            m.apply_and(system.preimage(system.encode_state(cur)), rings[ring]);
        cur = system.decode(m.any_sat(pred));
        chain.push_back(cur);
      }
      std::reverse(chain.begin(), chain.end());
      outcome.counterexample = trace_from_chain(system, chain);
      outcome.stats.depth_reached = static_cast<int>(rings.size()) - 1;
      outcome.stats.seconds = watch.elapsed_seconds();
      outcome.verdict = Verdict::kViolated;
      return outcome;
    }

    const Bdd next = system.image(rings.back());
    const Bdd fresh = options.reach_index
                          ? m.apply_diff(next, reached, &index)
                          : m.apply_and(next, m.apply_not(reached));
    if (fresh.is_zero()) return finish(Verdict::kHolds, "reachability fixpoint");
    reached = m.apply_or(reached, fresh);
    index.advance(reached);
    rings.push_back(fresh);
    ++depth;
    if (obs::TraceSink* s = obs::sink())
      s->event("bdd.ring")
          .attr("depth", depth)
          .attr("nodes", m.num_nodes())
          .emit();
  }
  } catch (const AbortRequested&) {
    // A single apply outgrew the deadline (typically encode_predicate on an
    // order-hostile invariant). The manager is still valid; report timeout.
    return finish(Verdict::kTimeout, "deadline during symbolic encoding");
  }
}

Bdd ctl_sat_set(SymbolicSystem& system, const ltl::CtlFormula& formula) {
  using ltl::CtlOp;
  Manager& m = system.manager();
  const Bdd space = system.state_space();
  const ltl::CtlFormula f = formula.to_existential_basis();

  const std::function<Bdd(const ltl::CtlFormula&)> sat =
      [&](const ltl::CtlFormula& g) -> Bdd {
    switch (g.op()) {
      case CtlOp::kAtom:
        return m.apply_and(space, system.encode_predicate(g.atom()));
      case CtlOp::kNot:
        return m.apply_and(space, m.apply_not(sat(g.kids()[0])));
      case CtlOp::kAnd:
        return m.apply_and(sat(g.kids()[0]), sat(g.kids()[1]));
      case CtlOp::kOr:
        return m.apply_or(sat(g.kids()[0]), sat(g.kids()[1]));
      case CtlOp::kEX:
        return m.apply_and(space, system.preimage(sat(g.kids()[0])));
      case CtlOp::kEU: {
        const Bdd a = sat(g.kids()[0]);
        const Bdd b = sat(g.kids()[1]);
        Bdd z = b;
        while (true) {
          const Bdd next = m.apply_or(z, m.apply_and(a, system.preimage(z)));
          if (next == z) return z;
          z = next;
        }
      }
      case CtlOp::kEG: {
        const Bdd a = sat(g.kids()[0]);
        Bdd z = a;
        while (true) {
          const Bdd next = m.apply_and(z, system.preimage(z));
          if (next == z) return z;
          z = next;
        }
      }
      default:
        throw std::logic_error("ctl_sat_set: non-basis operator after rewrite");
    }
  };
  return sat(f);
}

CheckOutcome check_ctl_bdd(const ts::TransitionSystem& ts, const ltl::CtlFormula& formula,
                           const BddOptions& options) {
  util::Stopwatch watch;
  CheckOutcome outcome;
  outcome.stats.engine = "bdd-ctl";

  SymbolicSystem system(ts, options.order, options.reorder);
  Manager& m = system.manager();
  const Bdd sat = ctl_sat_set(system, formula);
  const Bdd failing = m.apply_and(system.init(), m.apply_not(sat));
  if (failing.is_zero()) {
    outcome.verdict = Verdict::kHolds;
  } else {
    outcome.verdict = Verdict::kViolated;
    const ts::State witness = system.decode(m.any_sat(failing));
    outcome.counterexample = trace_from_chain(system, {witness});
    outcome.message = "initial state fails CTL property";
  }
  outcome.stats.seconds = watch.elapsed_seconds();
  return outcome;
}

namespace {

// Reachable-state set of one symbolic system (fixpoint of image). The
// termination test is the allocation-free subset predicate: converged iff the
// image adds nothing, without building the union first.
Bdd reachable_set(SymbolicSystem& system, const util::Deadline& deadline) {
  Manager& m = system.manager();
  Bdd reached = system.init();
  while (!deadline.expired()) {
    const Bdd img = system.image(reached);
    if (m.subset(img, reached)) return reached;
    reached = m.apply_or(reached, img);
  }
  throw std::runtime_error("blast_radius: deadline during reachability");
}

// Counts assignments of `set` over current-state levels only.
double count_states(SymbolicSystem& system, Bdd set) {
  const double raw = system.manager().sat_count(set);
  return raw / std::pow(2.0, static_cast<double>(system.next_levels().size()));
}

}  // namespace

BlastRadius blast_radius(const ts::TransitionSystem& ts, expr::Expr event,
                         std::span<const MonitoredPredicate> monitored,
                         const BddOptions& options) {
  if (!event.valid() || !event.type().is_bool())
    throw std::invalid_argument("blast_radius: event must be a boolean state predicate");
  if (expr::has_next(event))
    throw std::invalid_argument("blast_radius: event must not contain next()");

  BlastRadius out;

  // World A: the event never occurs (G !event as an invariant constraint).
  ts::TransitionSystem quiet = ts;
  quiet.add_invar(expr::mk_not(event));
  SymbolicSystem quiet_system(quiet, options.order, options.reorder);
  const Bdd quiet_reach = reachable_set(quiet_system, options.deadline);
  out.states_without_event = count_states(quiet_system, quiet_reach);

  // World B: the event may occur.
  SymbolicSystem full_system(ts, options.order, options.reorder);
  const Bdd full_reach = reachable_set(full_system, options.deadline);
  out.states_total = count_states(full_system, full_reach);

  for (const MonitoredPredicate& monitor : monitored) {
    const bool in_full =
        !full_system.manager()
             .apply_and(full_reach, full_system.encode_predicate(monitor.predicate))
             .is_zero();
    const bool in_quiet =
        !quiet_system.manager()
             .apply_and(quiet_reach, quiet_system.encode_predicate(monitor.predicate))
             .is_zero();
    if (in_full && !in_quiet) {
      out.newly_reachable.push_back(monitor.name);
    } else if (in_quiet) {
      out.reachable_anyway.push_back(monitor.name);
    } else {
      out.unreachable.push_back(monitor.name);
    }
  }
  return out;
}

double count_reachable_states(const ts::TransitionSystem& ts, const BddOptions& options) {
  SymbolicSystem system(ts, options.order, options.reorder);
  Manager& m = system.manager();
  Bdd reached = system.init();
  while (true) {
    if (options.deadline.expired()) break;
    const Bdd img = system.image(reached);
    if (m.subset(img, reached)) break;
    reached = m.apply_or(reached, img);
  }
  // Quantify away next-state levels (they are unconstrained in `reached`):
  // sat_count counts over all manager variables, so divide out the
  // next-frame half.
  const double raw = m.sat_count(reached);
  return raw / std::pow(2.0, static_cast<double>(system.next_levels().size()));
}

}  // namespace verdict::bdd
