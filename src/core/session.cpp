#include "core/session.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/engine_util.h"
#include "core/liveness.h"
#include "core/reduce.h"
#include "enc/unroller.h"
#include "ltl/parser.h"
#include "obs/trace.h"
#include "portfolio/portfolio.h"
#include "smt/solver.h"
#include "util/log.h"

namespace verdict::core {

using expr::Expr;

namespace {

// Folds a delegated one-shot outcome's cost into the session total.
void fold_cost(Stats& total, const Stats& stats) {
  total.solver_checks += stats.solver_checks;
  total.frame_assertions += stats.frame_assertions;
  total.solvers_created += stats.solvers_created;
  total.solver_seconds += stats.solver_seconds;
  total.depth_reached = std::max(total.depth_reached, stats.depth_reached);
}

// Shared state of one in-progress batch group: which properties are still
// unresolved, and the uniform way a property leaves the group.
class Group {
 public:
  Group(std::vector<PropertyVerdict>& out, std::vector<std::size_t> members,
        const util::Stopwatch& watch, std::string engine)
      : out_(out), pending_(std::move(members)), watch_(watch), engine_(std::move(engine)) {
    for (const std::size_t i : pending_) out_[i].outcome.stats.engine = engine_;
  }

  [[nodiscard]] const std::vector<std::size_t>& pending() const { return pending_; }
  [[nodiscard]] std::vector<std::size_t> pending_copy() const { return pending_; }
  [[nodiscard]] bool done() const { return pending_.empty(); }
  [[nodiscard]] CheckOutcome& outcome(std::size_t i) { return out_[i].outcome; }

  void resolve(std::size_t i, Verdict verdict, std::string message = "") {
    CheckOutcome& o = out_[i].outcome;
    o.verdict = verdict;
    if (!message.empty()) o.message = std::move(message);
    o.stats.seconds = watch_.elapsed_seconds();
    std::erase(pending_, i);
    if (obs::TraceSink* s = obs::sink())
      s->event("session.resolve")
          .attr("property", i)
          .attr("engine", engine_)
          .attr("verdict", verdict_name(verdict))
          .attr("depth", o.stats.depth_reached)
          .emit();
  }

  void resolve_rest(Verdict verdict, const std::string& message) {
    for (const std::size_t i : pending_copy()) resolve(i, verdict, message);
  }

 private:
  std::vector<PropertyVerdict>& out_;
  std::vector<std::size_t> pending_;
  const util::Stopwatch& watch_;
  std::string engine_;
};

// All invariant properties over one shared init+unrolling solver: per depth,
// each pending property is one check_assuming against its activation literal.
void run_shared_bmc(const ts::TransitionSystem& system, Group& group,
                    const std::vector<Expr>& bad, const SessionOptions& options,
                    Stats& total) {
  smt::Solver solver;
  enc::Unroller unroller(solver, system);
  for (int k = 0; k <= options.max_depth && !group.done(); ++k) {
    if (options.deadline.expired_or_cancelled()) {
      group.resolve_rest(Verdict::kTimeout,
                         "deadline expired before depth " + std::to_string(k));
      break;
    }
    unroller.ensure_frames(k);
    const double solve_before = solver.check_seconds();
    for (const std::size_t i : group.pending_copy()) {
      const std::size_t before = solver.num_checks();
      const std::vector<z3::expr> assumptions{unroller.literal(bad[i], k)};
      const smt::CheckResult r = solver.check_assuming(assumptions, options.deadline);
      group.outcome(i).stats.depth_reached = k;
      if (r == smt::CheckResult::kSat) {
        solver.refine_real_model(system.params(), 0, options.deadline, assumptions);
        group.outcome(i).counterexample = extract_trace(solver, system, k);
        group.resolve(i, Verdict::kViolated);
      } else if (r == smt::CheckResult::kUnknown) {
        group.resolve(i,
                      options.deadline.expired_or_cancelled() ? Verdict::kTimeout
                                                              : Verdict::kUnknown,
                      "solver returned unknown at depth " + std::to_string(k));
      }
      group.outcome(i).stats.solver_checks += solver.num_checks() - before;
    }
    if (obs::TraceSink* s = obs::sink())
      s->event("session.depth")
          .attr("engine", "bmc")
          .attr("k", k)
          .attr("pending", group.pending_copy().size())
          .attr("solve_seconds", solver.check_seconds() - solve_before)
          .emit();
  }
  group.resolve_rest(Verdict::kBoundReached, "");
  total.solver_checks += solver.num_checks();
  total.frame_assertions += solver.num_assertions();
  total.solvers_created += 1;
  total.solver_seconds += solver.check_seconds();
  total.depth_reached = std::max(total.depth_reached, unroller.max_frame());
  obs::count("session.shared_bmc_checks", solver.num_checks());
}

// All invariant properties over one shared base solver and one shared step
// solver. The step unrolling and its simple-path constraints are property-
// independent; each property only assumes its own P@0..k and !P@k+1
// literals, so N properties pay the expensive encoding once.
void run_shared_kinduction(const ts::TransitionSystem& system, Group& group,
                           const std::vector<Expr>& invariant,
                           const std::vector<Expr>& bad,
                           const SessionOptions& options, Stats& total) {
  smt::Solver base_solver;
  enc::Unroller base(base_solver, system);
  smt::Solver step_solver;
  enc::Unroller step(step_solver, system, {.assert_init = false});

  for (int k = 0; k <= options.max_depth && !group.done(); ++k) {
    if (options.deadline.expired_or_cancelled()) {
      group.resolve_rest(Verdict::kTimeout, "deadline expired at k=" + std::to_string(k));
      break;
    }
    const double solve_before = base_solver.check_seconds() + step_solver.check_seconds();
    base.ensure_frames(k);
    step.ensure_frames(k + 1);
    for (int j = 0; j < k + 1; ++j)
      step_solver.add(states_distinct(step_solver, system, j, k + 1));

    for (const std::size_t i : group.pending_copy()) {
      const std::size_t before = base_solver.num_checks() + step_solver.num_checks();
      group.outcome(i).stats.depth_reached = k;

      const std::vector<z3::expr> base_assumptions{base.literal(bad[i], k)};
      const smt::CheckResult base_result =
          base_solver.check_assuming(base_assumptions, options.deadline);
      if (base_result == smt::CheckResult::kSat) {
        base_solver.refine_real_model(system.params(), 0, options.deadline,
                                      base_assumptions);
        group.outcome(i).counterexample = extract_trace(base_solver, system, k);
        group.resolve(i, Verdict::kViolated);
      } else if (base_result == smt::CheckResult::kUnknown) {
        group.resolve(i,
                      options.deadline.expired_or_cancelled() ? Verdict::kTimeout
                                                              : Verdict::kUnknown,
                      "base case unknown at k=" + std::to_string(k));
      } else {
        std::vector<z3::expr> step_assumptions;
        for (int j = 0; j <= k; ++j) step_assumptions.push_back(step.literal(invariant[i], j));
        step_assumptions.push_back(step.literal(bad[i], k + 1));
        const smt::CheckResult step_result =
            step_solver.check_assuming(step_assumptions, options.deadline);
        if (step_result == smt::CheckResult::kUnsat) {
          ProofArtifact artifact;
          artifact.kind = ProofArtifact::Kind::kKInduction;
          artifact.k = k;
          group.outcome(i).artifact = std::move(artifact);
          group.resolve(i, Verdict::kHolds,
                        "proved by " + std::to_string(k + 1) + "-induction");
        } else if (step_result == smt::CheckResult::kUnknown) {
          group.resolve(i,
                        options.deadline.expired_or_cancelled() ? Verdict::kTimeout
                                                                : Verdict::kUnknown,
                        "step case unknown at k=" + std::to_string(k));
        }
      }
      group.outcome(i).stats.solver_checks +=
          base_solver.num_checks() + step_solver.num_checks() - before;
    }
    if (obs::TraceSink* s = obs::sink())
      s->event("session.depth")
          .attr("engine", "kinduction")
          .attr("k", k)
          .attr("pending", group.pending_copy().size())
          .attr("solve_seconds", base_solver.check_seconds() +
                                     step_solver.check_seconds() - solve_before)
          .emit();
  }
  group.resolve_rest(Verdict::kBoundReached,
                     "no proof or counterexample within k=" +
                         std::to_string(options.max_depth));
  total.solver_checks += base_solver.num_checks() + step_solver.num_checks();
  total.frame_assertions += base_solver.num_assertions() + step_solver.num_assertions();
  total.solvers_created += 2;
  total.solver_seconds += base_solver.check_seconds() + step_solver.check_seconds();
  total.depth_reached = std::max(total.depth_reached, base.max_frame());
  obs::count("session.shared_kind_checks",
             base_solver.num_checks() + step_solver.num_checks());
}

}  // namespace

bool SessionResult::all_hold() const {
  return std::all_of(properties.begin(), properties.end(), [](const PropertyVerdict& p) {
    return p.outcome.verdict == Verdict::kHolds;
  });
}

bool SessionResult::any_violated() const {
  return std::any_of(properties.begin(), properties.end(), [](const PropertyVerdict& p) {
    return p.outcome.verdict == Verdict::kViolated;
  });
}

bool SessionResult::any_undecided() const {
  return std::any_of(properties.begin(), properties.end(), [](const PropertyVerdict& p) {
    return p.outcome.verdict == Verdict::kTimeout ||
           p.outcome.verdict == Verdict::kUnknown;
  });
}

bool SessionResult::all_clean() const { return !any_violated() && !any_undecided(); }

std::string SessionResult::table() const {
  std::size_t name_width = 8;
  for (const PropertyVerdict& p : properties)
    name_width = std::max(name_width, p.name.size());
  std::ostringstream os;
  os << std::left << std::setw(static_cast<int>(name_width)) << "property"
     << "  " << std::setw(13) << "verdict" << std::right << std::setw(9) << "time"
     << std::setw(7) << "depth" << std::setw(8) << "checks"
     << "  engine\n";
  for (const PropertyVerdict& p : properties) {
    const Stats& s = p.outcome.stats;
    std::ostringstream time;
    time << std::fixed << std::setprecision(2) << s.seconds << "s";
    os << std::left << std::setw(static_cast<int>(name_width)) << p.name << "  "
       << std::setw(13) << verdict_name(p.outcome.verdict) << std::right << std::setw(9)
       << time.str() << std::setw(7) << s.depth_reached << std::setw(8)
       << s.solver_checks << "  " << s.engine << "\n";
  }
  return os.str();
}

Session::Session(ts::TransitionSystem system) : system_(std::move(system)) {
  system_.validate();
}

std::size_t Session::add_property(std::string name, ltl::Formula property) {
  if (!property.valid())
    throw std::invalid_argument("Session::add_property: invalid property");
  properties_.push_back({std::move(name), std::move(property)});
  return properties_.size() - 1;
}

std::size_t Session::add_property(std::string name, std::string_view property_text) {
  return add_property(std::move(name), ltl::parse_ltl(property_text));
}

SessionResult Session::check_all(const SessionOptions& options) const {
  util::Stopwatch watch;
  SessionResult result;
  result.total.engine = "session";
  result.properties.reserve(properties_.size());
  for (const Prop& p : properties_)
    result.properties.push_back({p.name, p.formula, CheckOutcome{}, false});
  if (properties_.empty()) {
    result.total.seconds = watch.elapsed_seconds();
    return result;
  }

  // Verdict memoization: resolve cache hits up front, run engines only on
  // the rest, and offer every fresh outcome back to the hook at the end.
  // optimize=false / abstract=false are the pipeline escape hatches: skip the
  // lookup (a hit may have been produced through the optimizer or the
  // abstraction) but still store fresh outcomes, refreshing any stale entry.
  std::vector<std::size_t> todo;
  todo.reserve(properties_.size());
  for (std::size_t i = 0; i < properties_.size(); ++i) {
    if (options.cache && options.optimize && options.abstract) {
      if (std::optional<CheckOutcome> hit =
              options.cache->lookup(system_, properties_[i].formula, options.engine,
                                    options.max_depth, options.deadline)) {
        result.properties[i].outcome = std::move(*hit);
        result.properties[i].cache_hit = true;
        obs::count("session.cache_hits");
        if (obs::TraceSink* s = obs::sink())
          s->event("session.cache_hit")
              .attr("property", i)
              .attr("verdict", verdict_name(result.properties[i].outcome.verdict))
              .emit();
        continue;
      }
    }
    todo.push_back(i);
  }
  // Snapshot before the quotient stage trims `todo`: outcomes the
  // quotient decides are fresh too and must reach the cache hook.
  const std::vector<std::size_t> fresh = todo;
  const auto store_fresh = [&] {
    if (!options.cache) return;
    for (const std::size_t i : fresh)
      options.cache->store(system_, properties_[i].formula, options.engine,
                           options.max_depth, result.properties[i].outcome);
  };
  if (todo.empty()) {
    result.total.seconds = watch.elapsed_seconds();
    return result;
  }
  const auto formulas_of = [&](const std::vector<std::size_t>& members) {
    std::vector<ltl::Formula> out;
    out.reserve(members.size());
    for (const std::size_t i : members) out.push_back(properties_[i].formula);
    return out;
  };

  // Counting quotient first (core/reduce.h): the whole invariant group is
  // abstracted once and checked by a nested cache-less session; properties it
  // does not decide fall through to the shared engines below.
  const CheckOptions check_options{.engine = options.engine, .max_depth = options.max_depth,
                                   .deadline = options.deadline, .jobs = options.jobs,
                                   .optimize = options.optimize, .abstract = options.abstract};
  const auto decide_nested = [&](const ts::TransitionSystem& system,
                                 std::span<const ltl::Formula> properties,
                                 const CheckOptions& co) {
    Session nested(system);
    for (const ltl::Formula& f : properties) nested.add_property("", f);
    // Cache-less: reduced-system verdicts must not masquerade as concrete.
    SessionResult r = nested.check_all({.engine = co.engine, .max_depth = co.max_depth,
                                        .deadline = co.deadline, .jobs = co.jobs,
                                        .cache = nullptr, .optimize = co.optimize,
                                        .abstract = co.abstract});
    fold_cost(result.total, r.total);
    std::vector<CheckOutcome> outcomes;
    for (PropertyVerdict& p : r.properties) outcomes.push_back(std::move(p.outcome));
    return outcomes;
  };
  {
    std::vector<CheckOutcome> quotient =
        check_quotient(system_, formulas_of(todo), check_options, decide_nested);
    for (std::size_t slot = 0; slot < quotient.size(); ++slot)
      if (decided(quotient[slot]))
        result.properties[todo[slot]].outcome = std::move(quotient[slot]);
    std::erase_if(todo, [&](std::size_t i) { return decided(result.properties[i].outcome); });
  }
  // Re-decides on the concrete system go straight to the engines: the
  // quotient has had its turn.
  CheckOptions concrete = check_options;
  concrete.abstract = false;

  // Runs `run` over `members` behind the optimizer (core/reduce.h): one
  // optimizer pass per group, traces lifted back, artifacts pinned.
  const auto decide_group = [&](const std::vector<std::size_t>& members, bool slice,
                                const Decide& run) {
    const std::vector<ltl::Formula> group = formulas_of(members);
    opt::OptimizeOptions oo;
    oo.slice = slice;
    std::vector<CheckOutcome> outcomes =
        options.optimize ? check_optimized(system_, group, oo, options.deadline, run)
                         : run(system_, group);
    for (std::size_t slot = 0; slot < members.size(); ++slot)
      result.properties[members[slot]].outcome = std::move(outcomes[slot]);
  };

  // Parallel sessions: (property × engine) lanes on one pool.
  if (!todo.empty() && (options.engine == Engine::kPortfolio ||
                        (options.engine == Engine::kAuto && options.jobs != 1))) {
    portfolio::PortfolioOptions po;
    po.max_depth = options.max_depth;
    po.deadline = options.deadline;
    po.jobs = options.jobs;
    decide_group(todo, false,
                 [&](const ts::TransitionSystem& system, std::span<const ltl::Formula> batch) {
                   std::vector<CheckOutcome> outcomes =
                       portfolio::check_portfolio_batch(system, batch, po);
                   for (const CheckOutcome& o : outcomes) fold_cost(result.total, o.stats);
                   return outcomes;
                 });
    todo.clear();
  }

  // Partition by sharing opportunity.
  std::vector<std::size_t> safety;    // shared BMC / k-induction group
  std::vector<std::size_t> lasso;     // shared per-depth lasso group
  std::vector<std::size_t> delegate;  // one-shot core::check per property
  for (const std::size_t i : todo) {
    const ltl::Formula& f = properties_[i].formula;
    if (ltl::is_invariant_property(f) && options.engine != Engine::kLtlLasso) {
      // No shared unrolling for PDR / explicit.
      (options.engine == Engine::kPdr || options.engine == Engine::kExplicit ? delegate
                                                                             : safety)
          .push_back(i);
      continue;
    }
    if (options.engine == Engine::kExplicit)
      throw std::invalid_argument(
          "explicit engine only supports G(atom) safety properties; use "
          "check_ctl_explicit for branching-time properties");
    if (options.engine == Engine::kAuto && system_.is_finite_domain() &&
        (ltl::is_fg_property(f) || ltl::is_gf_property(f))) {
      delegate.push_back(i);  // L2S proof path, one product system per property
      continue;
    }
    lasso.push_back(i);
  }

  if (!safety.empty()) {
    // One cone-of-influence slice for the whole safety group: the cone seeds
    // from the union of the group's property supports, so every member runs
    // on the same (smaller) shared unrolling.
    const auto run_safety = [&](const ts::TransitionSystem& system,
                                std::span<const ltl::Formula> group) {
      // Indexed like result.properties, so session.resolve events name the
      // session's property indices.
      std::vector<PropertyVerdict> local(properties_.size());
      std::vector<Expr> invariant(properties_.size());
      std::vector<Expr> bad(properties_.size());
      for (std::size_t slot = 0; slot < group.size(); ++slot) {
        invariant[safety[slot]] = ltl::invariant_atom(group[slot]);
        bad[safety[slot]] = expr::mk_not(invariant[safety[slot]]);
      }
      Group shared(local, safety, watch,
                   options.engine == Engine::kBmc ? "bmc" : "k-induction");
      if (options.engine == Engine::kBmc) {
        run_shared_bmc(system, shared, bad, options, result.total);
      } else {
        run_shared_kinduction(system, shared, invariant, bad, options, result.total);
      }
      std::vector<CheckOutcome> outcomes;
      for (const std::size_t i : safety) outcomes.push_back(std::move(local[i].outcome));
      return outcomes;
    };
    decide_group(safety, true, run_safety);
  }
  // kAuto: k-induction may leave properties undecided that PDR can settle;
  // fall back to the one-shot auto pipeline for exactly those.
  if (options.engine == Engine::kAuto) {
    for (const std::size_t i : safety) {
      CheckOutcome& o = result.properties[i].outcome;
      if (o.verdict != Verdict::kBoundReached && o.verdict != Verdict::kUnknown) continue;
      if (options.deadline.expired_or_cancelled()) continue;
      CheckOutcome redecided = check(system_, properties_[i].formula, concrete);
      fold_cost(result.total, redecided.stats);
      o = std::move(redecided);
    }
  }

  for (const std::size_t i : delegate) {
    CheckOutcome one_shot = check(system_, properties_[i].formula, concrete);
    fold_cost(result.total, one_shot.stats);
    result.properties[i].outcome = std::move(one_shot);
  }

  if (!lasso.empty()) {
    LivenessOptions lo;
    lo.max_depth = options.max_depth;
    lo.deadline = options.deadline;
    decide_group(lasso, false,
                 [&](const ts::TransitionSystem& system, std::span<const ltl::Formula> group) {
                   LassoBatchResult batch = check_ltl_lasso_batch(system, group, lo);
                   fold_cost(result.total, batch.shared);
                   return std::move(batch.outcomes);
                 });
  }

  store_fresh();
  result.total.seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace verdict::core
