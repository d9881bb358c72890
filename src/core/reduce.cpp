#include "core/reduce.h"

#include <sstream>

#include "abs/quotient.h"
#include "core/explicit.h"
#include "expr/eval.h"
#include "obs/trace.h"

namespace verdict::core {

namespace {

/// Splits the orbit behind a spurious abstract trace for the next round:
/// prefer a threshold-strengthened orbit whose guard is false in the final
/// abstract state (that guard is the only over-approximate piece of the
/// property rewrite, so it is what admitted the trace), else the largest
/// orbit. Halving is recorded as a forced_split hint; a half below the
/// minimum orbit size simply goes concrete, so refinement always makes
/// progress and the loop terminates.
bool refine_split(const abs::Abstraction& abstraction, const CheckOutcome& abstract_out,
                  abs::SymmetryOptions& sym) {
  const abs::OrbitAbstraction* culprit = nullptr;
  if (abstract_out.counterexample && !abstract_out.counterexample->states.empty()) {
    const expr::Env env = abstraction.system.env_of(
        abstract_out.counterexample->states.back(), abstract_out.counterexample->params);
    for (const abs::OrbitAbstraction& o : abstraction.orbits) {
      if (o.threshold < 0) continue;
      bool guard_false = false;
      try {
        guard_false = !expr::eval_bool(o.strengthened_guard, env);
      } catch (const std::exception&) {
        continue;  // guard mentions something the trace omits; skip
      }
      if (guard_false) {
        culprit = &o;
        break;
      }
    }
  }
  if (culprit == nullptr) {
    for (const abs::OrbitAbstraction& o : abstraction.orbits)
      if (culprit == nullptr || o.orbit.members.size() > culprit->orbit.members.size())
        culprit = &o;
  }
  if (culprit == nullptr || culprit->orbit.members.size() < 2) return false;
  const auto& members = culprit->orbit.members;
  const std::size_t half = members.size() / 2;
  sym.forced_split.emplace_back(members.begin(), members.begin() + half);
  sym.forced_split.emplace_back(members.begin() + half, members.end());
  return true;
}

std::string quotient_message(const abs::Abstraction& abstraction, const std::string& detail) {
  std::ostringstream msg;
  msg << "holds on counting quotient (" << abstraction.vars_collapsed
      << " vars collapsed across " << abstraction.orbits.size() << " orbit"
      << (abstraction.orbits.size() == 1 ? "" : "s") << ")";
  if (!detail.empty()) msg << "; " << detail;
  return msg.str();
}

}  // namespace

bool decided(const CheckOutcome& outcome) {
  return outcome.verdict == Verdict::kHolds || outcome.verdict == Verdict::kViolated;
}

std::vector<CheckOutcome> check_quotient(const ts::TransitionSystem& ts,
                                         std::span<const ltl::Formula> properties,
                                         const CheckOptions& options,
                                         const QuotientDecide& decide) {
  std::vector<CheckOutcome> out(properties.size());
  if (!options.abstract || options.engine == Engine::kLtlLasso ||
      options.deadline.expired_or_cancelled())
    return out;
  std::vector<std::size_t> attempted;
  for (std::size_t i = 0; i < properties.size(); ++i)
    if (ltl::is_invariant_property(properties[i])) attempted.push_back(i);

  std::vector<std::size_t> pending = attempted;
  abs::SymmetryOptions sym;
  constexpr int kMaxRefinements = 2;
  for (int round = 0; round <= kMaxRefinements && !pending.empty(); ++round) {
    std::vector<ltl::Formula> group;
    for (const std::size_t i : pending) group.push_back(properties[i]);
    abs::AbstractionOptions ao;
    ao.symmetry = sym;
    ao.deadline = options.deadline;
    const std::optional<abs::Abstraction> abstraction = abs::abstract_system(ts, group, ao);
    if (!abstraction) break;

    CheckOptions inner = options;
    inner.abstract = false;
    // Counting quotients are induction-friendly (the per-orbit sum invariant
    // makes the rewritten property typically 1-inductive) while PDR's cube
    // generalization tends to enumerate counter values. Prefer k-induction
    // for the quotient under kAuto; explicit engine requests are honored.
    if (inner.engine == Engine::kAuto) inner.engine = Engine::kKInduction;
    // Same split as kAuto's PDR/BMC budget: the quotient attempt must leave
    // room for concretization and the concrete fallback.
    if (options.deadline.is_finite())
      inner.deadline = options.deadline.clipped_to(options.deadline.remaining_seconds() / 2);
    std::vector<CheckOutcome> quotient =
        decide(abstraction->system, abstraction->properties, inner);

    std::vector<std::size_t> spurious;
    const CheckOutcome* spurious_trace = nullptr;
    for (std::size_t slot = 0; slot < pending.size(); ++slot) {
      const std::size_t i = pending[slot];
      CheckOutcome& q = quotient[slot];
      out[i].stats.merge(q.stats);
      if (q.verdict == Verdict::kHolds) {
        // The verdict transfers by simulation; the artifact cannot.
        q.artifact.reset();
        q.message = quotient_message(*abstraction, q.message);
        q.stats = out[i].stats;
        out[i] = std::move(q);
        continue;
      }
      if (q.verdict != Verdict::kViolated) continue;  // inconclusive quotient
      // Concretize: hunt for a concrete violation within the abstract trace's
      // depth. BMC is complete at a fixed bound, so kBoundReached here is a
      // definitive "no concrete counterpart": the abstract trace is spurious.
      CheckOptions bmc = options;
      bmc.engine = Engine::kBmc;
      bmc.max_depth = q.counterexample ? static_cast<int>(q.counterexample->length())
                                       : options.max_depth;
      bmc.optimize = false;
      bmc.abstract = false;
      CheckOutcome conc = std::move(decide(ts, properties.subspan(i, 1), bmc).front());
      out[i].stats.merge(conc.stats);
      if (conc.verdict == Verdict::kViolated) {
        conc.stats = out[i].stats;
        out[i] = std::move(conc);
        continue;
      }
      if (conc.verdict != Verdict::kBoundReached && conc.verdict != Verdict::kHolds)
        continue;  // budget ran out mid-concretization
      obs::count("abs.spurious_traces");
      spurious.push_back(i);
      if (spurious_trace == nullptr) spurious_trace = &q;
    }
    pending = std::move(spurious);
    if (pending.empty() || round == kMaxRefinements) break;
    if (!refine_split(*abstraction, *spurious_trace, sym)) break;
    obs::count("abs.cegar_refinements");
  }

  // Undecided outcomes still have their default verdict, kUnknown.
  for (const std::size_t i : attempted)
    if (!decided(out[i])) obs::count("abs.fallback_concrete");
  return out;
}

std::vector<CheckOutcome> check_optimized(const ts::TransitionSystem& ts,
                                          std::span<const ltl::Formula> properties,
                                          const opt::OptimizeOptions& options,
                                          const util::Deadline& deadline,
                                          const Decide& decide) {
  const opt::Optimized optimized = opt::optimize(ts, properties, options);
  if (!optimized.changed()) return decide(ts, properties);
  std::vector<CheckOutcome> out = decide(optimized.system, optimized.properties);
  bool lifted = true;
  for (CheckOutcome& o : out) {
    if (o.artifact) {
      // The certificate was computed on the reduced system; record the
      // propagated constants it is relative to (docs/incremental.md).
      for (const auto& [var, value] : optimized.propagated_vars)
        o.artifact->pinned.set(var, value);
      for (const auto& [param, value] : optimized.propagated_params)
        o.artifact->pinned.set(param, value);
    }
    if (lifted && o.verdict == Verdict::kViolated && o.counterexample)
      lifted = lift_counterexample(optimized, *o.counterexample, deadline);
  }
  if (lifted) return out;
  // A sliced-away component cannot execute alongside some trace (or the
  // reconstruction budget ran out): that violation may be spurious. Decide
  // on the original system instead.
  std::vector<CheckOutcome> full = decide(ts, properties);
  for (std::size_t i = 0; i < full.size() && i < out.size(); ++i)
    full[i].stats.merge(out[i].stats);
  return full;
}

namespace {

/// `sweep` behind check_optimized with the parameters kept rigid-symbolic.
/// The witnesses travel through the optimizer as outcomes, one per witness,
/// so they are lifted (or the sweep redone) like any counterexample; with
/// `lift` false they are dropped instead.
SynthResult sweep_optimized(const ts::TransitionSystem& ts, const ltl::Formula& property,
                            const SynthOptions& options, const SynthSweep& sweep,
                            bool lift) {
  opt::OptimizeOptions oo;
  oo.keep_params = true;  // the sweep must see the full parameter space
  SynthResult result;
  std::vector<CheckOutcome> witnesses = check_optimized(
      ts, {&property, 1}, oo, options.deadline,
      [&](const ts::TransitionSystem& system, std::span<const ltl::Formula> properties) {
        result = sweep(system, ltl::invariant_atom(properties.front()), options);
        std::vector<CheckOutcome> out;
        if (!lift) return out;
        out.resize(result.witnesses.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i].verdict = Verdict::kViolated;
          out[i].counterexample = std::move(result.witnesses[i]);
        }
        return out;
      });
  for (std::size_t i = 0; i < witnesses.size(); ++i)
    result.witnesses[i] = std::move(*witnesses[i].counterexample);
  return result;
}

}  // namespace

SynthResult synthesize_optimized(const ts::TransitionSystem& ts, expr::Expr invariant,
                                 const SynthOptions& options, const SynthSweep& sweep) {
  ts.validate();
  const ltl::Formula property = ltl::G(ltl::atom(invariant));

  // (1) The quotient, parameters symbolic. Its witnesses are abstract traces
  // and its replay prunes decide nothing, so only its safe list is kept.
  SynthResult proven;
  if (!options.deadline.expired_or_cancelled()) {
    abs::AbstractionOptions ao;
    ao.deadline = options.deadline;
    if (const std::optional<abs::Abstraction> quotient = abs::abstract_system(ts, property, ao)) {
      // The split check_quotient uses: an undecided quotient leaves the
      // concrete sweep its budget. And its prover rule: the quotient is swept
      // with k-induction whatever the caller asked for, because PDR's cube
      // generalization enumerates counter values (docs/abstraction.md). The
      // concrete sweep below keeps the caller's prover.
      SynthOptions inner = options;
      inner.prover = SynthProver::kKInduction;
      inner.per_candidate_seconds = options.per_candidate_seconds / 2;
      if (options.deadline.is_finite())
        inner.deadline = options.deadline.clipped_to(options.deadline.remaining_seconds() / 2);
      proven = sweep_optimized(quotient->system, quotient->property(), inner, sweep,
                               /*lift=*/false);
    }
  }
  // (2) The concrete sweep over the candidates (1) left open, restricted to
  // them by one parameter constraint (no restriction if (1) proved none).
  // Both sweeps list candidates in enumeration order, so one walk merges them.
  const std::vector<ts::State> candidates = enumerate_params(ts);
  std::vector<expr::Expr> open;
  for (std::size_t c = 0, q = 0; c < candidates.size(); ++c) {
    if (q < proven.safe.size() && proven.safe[q] == candidates[c]) {
      ++q;
      continue;
    }
    std::vector<expr::Expr> pins;
    for (const expr::Expr p : ts.params())
      pins.push_back(expr::mk_eq(p, expr::constant_of(*candidates[c].get(p), p.type())));
    open.push_back(expr::all_of(pins));
  }
  SynthResult result;
  if (!open.empty()) {
    ts::TransitionSystem restricted = ts;
    if (!proven.safe.empty()) restricted.add_param_constraint(expr::any_of(open));
    result = sweep_optimized(restricted, property, options, sweep, /*lift=*/true);
  }
  std::vector<ts::State> safe;
  for (std::size_t c = 0, q = 0, r = 0; c < candidates.size(); ++c) {
    if (q < proven.safe.size() && proven.safe[q] == candidates[c])
      safe.push_back(proven.safe[q++]);
    else if (r < result.safe.size() && result.safe[r] == candidates[c])
      safe.push_back(result.safe[r++]);
  }
  result.safe = std::move(safe);
  proven.stats.merge(result.stats);
  result.stats = std::move(proven.stats);
  return result;
}

}  // namespace verdict::core
