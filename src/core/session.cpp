#include "core/session.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/bmc.h"
#include "core/kinduction.h"
#include "core/liveness.h"
#include "core/reduce.h"
#include "ltl/parser.h"
#include "obs/trace.h"

namespace verdict::core {

namespace {

// Folds a delegated one-shot outcome's cost into the session total.
void fold_cost(Stats& total, const Stats& stats) {
  total.solver_checks += stats.solver_checks;
  total.frame_assertions += stats.frame_assertions;
  total.solvers_created += stats.solvers_created;
  total.solver_seconds += stats.solver_seconds;
  total.depth_reached = std::max(total.depth_reached, stats.depth_reached);
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
    for (const std::size_t i : fresh) {
      const CheckOutcome& o = result.properties[i].outcome;
      if (obs::TraceSink* s = obs::sink())
        s->event("session.resolve")
            .attr("property", i)
            .attr("engine", o.stats.engine)
            .attr("verdict", verdict_name(o.verdict))
            .attr("depth", o.stats.depth_reached)
            .emit();
      if (options.cache)
        options.cache->store(system_, properties_[i].formula, options.engine,
                             options.max_depth, o);
    }
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
                                   .deadline = options.deadline, .optimize = options.optimize,
                                   .abstract = options.abstract};
  const auto decide_nested = [&](const ts::TransitionSystem& system,
                                 std::span<const ltl::Formula> properties,
                                 const CheckOptions& co) {
    Session nested(system);
    for (const ltl::Formula& f : properties) nested.add_property("", f);
    // Cache-less: reduced-system verdicts must not masquerade as concrete.
    SessionResult r = nested.check_all({.engine = co.engine, .max_depth = co.max_depth,
                                        .deadline = co.deadline, .cache = nullptr,
                                        .optimize = co.optimize, .abstract = co.abstract});
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
      std::vector<InvariantQuery> queries;
      for (const ltl::Formula& f : group)
        queries.push_back({.invariant = ltl::invariant_atom(f)});
      const bool bmc = options.engine == Engine::kBmc;
      InvariantBatchResult batch =
          bmc ? check_invariant_bmc_batch(
                    system, queries,
                    {.max_depth = options.max_depth, .deadline = options.deadline})
              : check_invariant_kinduction_batch(
                    system, queries,
                    {.max_k = options.max_depth, .deadline = options.deadline});
      fold_cost(result.total, batch.shared);
      obs::count(bmc ? "session.shared_bmc_checks" : "session.shared_kind_checks",
                 batch.shared.solver_checks);
      return std::move(batch.outcomes);
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
