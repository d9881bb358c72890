#include "core/synth.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "core/engine_util.h"
#include "core/explicit.h"
#include "core/kinduction.h"
#include "core/pdr.h"
#include "core/reduce.h"
#include "enc/unroller.h"
#include "smt/solver.h"
#include "util/log.h"

namespace verdict::core {

using expr::Expr;

namespace {

// Persistent-solver k-induction sweep: ONE base solver and ONE step solver
// survive the whole enumeration. Candidates are pinned with assumption
// literals (p == value activated per check_assuming), so the unrolling, the
// invariant frames, and the simple-path constraints — all candidate-
// independent — are translated and asserted exactly once instead of once per
// candidate. The outer loop advances the induction depth k; every still-
// unclassified candidate is queried at each depth, which keeps all
// candidates on the same frame prefix.
SynthResult synthesize_params_kinduction(const ts::TransitionSystem& ts, Expr invariant,
                                         const SynthOptions& options,
                                         const std::vector<ts::State>& candidates) {
  util::Stopwatch watch;
  SynthResult result;
  result.stats.engine = "synth/k-induction";

  const std::size_t n = candidates.size();
  enum class Class : std::uint8_t { kPending, kSafe, kUnsafe, kUndecided };
  std::vector<Class> cls(n, Class::kPending);
  std::vector<std::optional<ts::Trace>> witness(n);
  std::vector<double> spent(n, 0.0);  // per-candidate solver budget used

  const Expr bad = expr::mk_not(invariant);
  std::vector<std::vector<Expr>> pin_exprs(n);
  for (std::size_t i = 0; i < n; ++i)
    for (Expr p : ts.params())
      pin_exprs[i].push_back(
          expr::mk_eq(p, expr::constant_of(*candidates[i].get(p), p.type())));

  smt::Solver base_solver;
  enc::Unroller base(base_solver, ts);
  smt::Solver step_solver;
  enc::Unroller step(step_solver, ts, {.assert_init = false});

  const auto pins_for = [&](enc::Unroller& u, std::size_t i) {
    std::vector<z3::expr> pins;
    pins.reserve(pin_exprs[i].size());
    for (Expr pin : pin_exprs[i]) pins.push_back(u.literal(pin, 0));
    return pins;
  };

  std::vector<std::size_t> pending(n);
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  const auto retire = [&](std::size_t i, Class c) {
    cls[i] = c;
    std::erase(pending, i);
  };
  // A fresh witness condemns every pending candidate it replays under.
  const auto condemn_by_replay = [&](const ts::Trace& w) {
    for (const std::size_t j : std::vector<std::size_t>(pending)) {
      if (!trace_feasible_under(ts, w, candidates[j], invariant)) continue;
      ts::Trace replay = w;
      replay.params = candidates[j];
      witness[j] = std::move(replay);
      ++result.pruned_by_replay;
      retire(j, Class::kUnsafe);
    }
  };

  for (int k = 0; k <= options.max_depth && !pending.empty(); ++k) {
    if (options.deadline.expired_or_cancelled()) break;
    base.ensure_frames(k);
    step.ensure_frames(k + 1);
    step_solver.add(invariant, k);  // P holds on every non-final step frame
    for (int j = 0; j < k + 1; ++j)
      step_solver.add(states_distinct(step_solver, ts, j, k + 1));

    for (const std::size_t i : std::vector<std::size_t>(pending)) {
      if (options.deadline.expired_or_cancelled()) break;
      const util::Stopwatch candidate_watch;
      const util::Deadline slice = options.deadline.clipped_to(
          std::max(0.0, options.per_candidate_seconds - spent[i]));

      std::vector<z3::expr> base_assumptions = pins_for(base, i);
      base_assumptions.push_back(base.literal(bad, k));
      const smt::CheckResult base_result =
          base_solver.check_assuming(base_assumptions, slice);
      if (base_result == smt::CheckResult::kSat) {
        base_solver.refine_real_model(ts.params(), 0, slice, base_assumptions);
        ts::Trace w;
        w.params = candidates[i];
        for (int f = 0; f <= k; ++f) w.states.push_back(base_solver.state_at(ts.vars(), f));
        witness[i] = w;
        retire(i, Class::kUnsafe);
        condemn_by_replay(w);
      } else if (base_result == smt::CheckResult::kUnknown) {
        retire(i, Class::kUndecided);
      } else {
        std::vector<z3::expr> step_assumptions = pins_for(step, i);
        step_assumptions.push_back(step.literal(bad, k + 1));
        const smt::CheckResult step_result =
            step_solver.check_assuming(step_assumptions, slice);
        if (step_result == smt::CheckResult::kUnsat) {
          retire(i, Class::kSafe);
        } else if (step_result == smt::CheckResult::kUnknown) {
          retire(i, Class::kUndecided);
        }
        // kSat: counterexample-to-induction only; try a deeper k.
      }
      spent[i] += candidate_watch.elapsed_seconds();
      if (cls[i] == Class::kPending && spent[i] >= options.per_candidate_seconds)
        retire(i, Class::kUndecided);
    }
  }

  // Emit in enumeration order so results are deterministic and comparable
  // with the work-stealing driver.
  for (std::size_t i = 0; i < n; ++i) {
    switch (cls[i]) {
      case Class::kSafe:
        result.safe.push_back(candidates[i]);
        break;
      case Class::kUnsafe:
        result.unsafe.push_back(candidates[i]);
        result.witnesses.push_back(std::move(*witness[i]));
        break;
      default:
        result.undecided.push_back(candidates[i]);
        break;
    }
  }
  result.stats.solver_checks = base_solver.num_checks() + step_solver.num_checks();
  result.stats.frame_assertions =
      base_solver.num_assertions() + step_solver.num_assertions();
  result.stats.solvers_created = 2;
  result.stats.depth_reached = std::max(result.stats.depth_reached, base.max_frame());
  result.stats.seconds = watch.elapsed_seconds();
  return result;
}

SynthResult sweep_sequential(const ts::TransitionSystem& ts, Expr invariant,
                             const SynthOptions& options) {
  util::Stopwatch watch;
  SynthResult result;
  result.stats.engine =
      options.prover == SynthProver::kPdr ? "synth/pdr" : "synth/k-induction";

  const std::vector<ts::State> candidates = enumerate_params(ts);
  if (options.prover == SynthProver::kKInduction)
    return synthesize_params_kinduction(ts, invariant, options, candidates);
  for (const ts::State& candidate : candidates) {
    if (options.deadline.expired_or_cancelled()) {
      result.undecided.push_back(candidate);
      continue;
    }

    // Free classification: replay known counterexamples under this candidate.
    bool condemned = false;
    const std::size_t known_witnesses = result.witnesses.size();
    for (std::size_t w = 0; w < known_witnesses; ++w) {
      if (trace_feasible_under(ts, result.witnesses[w], candidate, invariant)) {
        result.unsafe.push_back(candidate);
        ts::Trace replay = result.witnesses[w];
        replay.params = candidate;
        result.witnesses.push_back(std::move(replay));
        ++result.pruned_by_replay;
        condemned = true;
        break;
      }
    }
    if (condemned) continue;

    const ts::TransitionSystem pinned = pinned_system(ts, candidate);
    const double budget =
        std::min(options.per_candidate_seconds, options.deadline.remaining_seconds());
    CheckOutcome outcome;
    if (options.prover == SynthProver::kPdr) {
      PdrOptions po;
      po.max_frames = options.max_depth;
      po.deadline = util::Deadline::after_seconds(budget);
      outcome = check_invariant_pdr(pinned, invariant, po);
    } else {
      KInductionOptions ko;
      ko.max_k = options.max_depth;
      ko.deadline = util::Deadline::after_seconds(budget);
      outcome = check_invariant_kinduction(pinned, invariant, ko);
    }
    result.stats.solver_checks += outcome.stats.solver_checks;
    result.stats.solvers_created += outcome.stats.solvers_created;
    result.stats.frame_assertions += outcome.stats.frame_assertions;
    result.stats.depth_reached =
        std::max(result.stats.depth_reached, outcome.stats.depth_reached);

    switch (outcome.verdict) {
      case Verdict::kHolds:
        result.safe.push_back(candidate);
        break;
      case Verdict::kViolated: {
        result.unsafe.push_back(candidate);
        ts::Trace witness = *outcome.counterexample;
        witness.params = candidate;
        result.witnesses.push_back(std::move(witness));
        break;
      }
      default:
        result.undecided.push_back(candidate);
        break;
    }
  }
  result.stats.seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace

SynthResult synthesize_optimized(const ts::TransitionSystem& ts, Expr invariant,
                                 const util::Deadline& deadline, const SynthSweep& sweep) {
  ts.validate();
  opt::OptimizeOptions oo;
  oo.keep_params = true;  // the sweep must see the full parameter space
  const ltl::Formula property = ltl::G(ltl::atom(invariant));
  SynthResult result;
  // The witnesses travel through the reduction as outcomes, one per witness,
  // so they are lifted (or the sweep redone) like any counterexample.
  std::vector<CheckOutcome> witnesses = check_optimized(
      ts, {&property, 1}, oo, deadline,
      [&](const ts::TransitionSystem& system, std::span<const ltl::Formula> properties) {
        result = sweep(system, ltl::invariant_atom(properties.front()));
        std::vector<CheckOutcome> out(result.witnesses.size());
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

SynthResult synthesize_params(const ts::TransitionSystem& ts, Expr invariant,
                              const SynthOptions& options) {
  return synthesize_optimized(
      ts, invariant, options.deadline,
      [&](const ts::TransitionSystem& system, Expr atom) {
        return sweep_sequential(system, atom, options);
      });
}

}  // namespace verdict::core
