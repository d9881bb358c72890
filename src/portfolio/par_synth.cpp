#include "portfolio/par_synth.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "core/engine_util.h"
#include "core/explicit.h"
#include "core/kinduction.h"
#include "core/pdr.h"
#include "portfolio/pool.h"
#include "util/log.h"

namespace verdict::portfolio {

using core::SynthOptions;
using core::SynthProver;
using core::SynthResult;
using core::Verdict;
using expr::Expr;

namespace {

// Candidate indices distributed over per-worker deques. A worker pops from
// the front of its own deque; when that runs dry it steals the back half of
// the fullest other deque. All deques share one mutex — claiming an index is
// nanoseconds next to the solver call that follows, so finer locking would
// buy nothing.
class WorkStealingQueues {
 public:
  WorkStealingQueues(std::size_t workers, std::size_t items) : queues_(workers) {
    // Contiguous blocks: workers start on disjoint regions of the candidate
    // space, so early counterexamples tend to prune their own neighborhood.
    const std::size_t per = workers == 0 ? 0 : (items + workers - 1) / workers;
    for (std::size_t w = 0, next = 0; w < workers; ++w)
      for (std::size_t i = 0; i < per && next < items; ++i) queues_[w].push_back(next++);
  }

  std::optional<std::size_t> pop(std::size_t worker) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!queues_[worker].empty()) {
      const std::size_t index = queues_[worker].front();
      queues_[worker].pop_front();
      return index;
    }
    // Steal: take the back half of the fullest victim.
    std::size_t victim = worker;
    std::size_t victim_size = 0;
    for (std::size_t w = 0; w < queues_.size(); ++w)
      if (queues_[w].size() > victim_size) {
        victim = w;
        victim_size = queues_[w].size();
      }
    if (victim_size == 0) return std::nullopt;
    auto& from = queues_[victim];
    auto& mine = queues_[worker];
    const std::size_t take = (victim_size + 1) / 2;
    mine.insert(mine.end(), from.end() - static_cast<std::ptrdiff_t>(take), from.end());
    from.erase(from.end() - static_cast<std::ptrdiff_t>(take), from.end());
    ++steals_;
    const std::size_t index = mine.front();
    mine.pop_front();
    return index;
  }

  [[nodiscard]] std::size_t steals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return steals_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::deque<std::size_t>> queues_;
  std::size_t steals_ = 0;
};

// The cross-worker counterexample pool. Traces are immutable once added;
// workers copy out shared_ptr handles and replay outside the lock.
class WitnessPool {
 public:
  void add(ts::Trace trace) {
    std::lock_guard<std::mutex> lock(mu_);
    traces_.push_back(std::make_shared<const ts::Trace>(std::move(trace)));
  }

  /// Appends traces [cursor, size) to `out`; returns the new cursor.
  std::size_t fetch_from(std::size_t cursor,
                         std::vector<std::shared_ptr<const ts::Trace>>& out) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = cursor; i < traces_.size(); ++i) out.push_back(traces_[i]);
    return traces_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const ts::Trace>> traces_;
};

enum class Class : std::uint8_t { kSafe, kUnsafe, kUndecided };

struct Classified {
  std::size_t index;
  Class kind;
  std::optional<ts::Trace> witness;  // set for kUnsafe
};

struct WorkerTally {
  std::vector<Classified> classified;
  std::size_t solver_checks = 0;
  std::size_t pruned_by_replay = 0;
};

SynthResult sweep_parallel(const ts::TransitionSystem& ts, Expr invariant,
                           const SynthOptions& options, std::size_t jobs) {
  util::Stopwatch watch;
  SynthResult result;
  result.stats.engine =
      (options.prover == SynthProver::kPdr ? std::string("synth/pdr")
                                           : std::string("synth/k-induction")) +
      "[jobs=" + std::to_string(jobs) + "]";

  const std::vector<ts::State> candidates = core::enumerate_params(ts);
  const std::size_t workers = std::min(jobs, std::max<std::size_t>(candidates.size(), 1));
  WorkStealingQueues queues(workers, candidates.size());
  WitnessPool pool;
  std::vector<WorkerTally> tallies(workers);

  const auto worker_main = [&](std::size_t w) {
    WorkerTally& tally = tallies[w];
    std::vector<std::shared_ptr<const ts::Trace>> known;  // local pool snapshot
    std::size_t cursor = 0;
    while (const auto claimed = queues.pop(w)) {
      const std::size_t index = *claimed;
      const ts::State& candidate = candidates[index];
      if (options.deadline.expired_or_cancelled()) {
        tally.classified.push_back({index, Class::kUndecided, std::nullopt});
        continue;
      }

      // Free classification: replay every known counterexample, including
      // those other workers found since the last candidate.
      cursor = pool.fetch_from(cursor, known);
      bool condemned = false;
      for (const auto& witness : known) {
        if (core::trace_feasible_under(ts, *witness, candidate, invariant)) {
          ts::Trace replay = *witness;
          replay.params = candidate;
          tally.classified.push_back({index, Class::kUnsafe, std::move(replay)});
          ++tally.pruned_by_replay;
          condemned = true;
          break;
        }
      }
      if (condemned) continue;

      try {
        const ts::TransitionSystem pinned = core::pinned_system(ts, candidate);
        const double budget = std::min(options.per_candidate_seconds,
                                       options.deadline.remaining_seconds());
        core::CheckOutcome outcome;
        if (options.prover == SynthProver::kPdr) {
          core::PdrOptions po;
          po.max_frames = options.max_depth;
          po.deadline = util::Deadline::after_seconds(budget);
          outcome = core::check_invariant_pdr(pinned, invariant, po);
        } else {
          core::KInductionOptions ko;
          ko.max_k = options.max_depth;
          ko.deadline = util::Deadline::after_seconds(budget);
          outcome = core::check_invariant_kinduction(pinned, invariant, ko);
        }
        tally.solver_checks += outcome.stats.solver_checks;

        switch (outcome.verdict) {
          case Verdict::kHolds:
            tally.classified.push_back({index, Class::kSafe, std::nullopt});
            break;
          case Verdict::kViolated: {
            ts::Trace witness = *outcome.counterexample;
            witness.params = candidate;
            pool.add(witness);  // prunes candidates on every worker
            tally.classified.push_back({index, Class::kUnsafe, std::move(witness)});
            break;
          }
          default:
            tally.classified.push_back({index, Class::kUndecided, std::nullopt});
            break;
        }
      } catch (const std::exception& error) {
        VERDICT_WARN() << "par_synth: candidate " << candidate.str()
                       << " failed: " << error.what();
        tally.classified.push_back({index, Class::kUndecided, std::nullopt});
      }
    }
  };

  {
    ThreadPool thread_pool(workers);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      thread_pool.submit([&, w] {
        worker_main(w);
        std::lock_guard<std::mutex> lock(mu);
        ++done;
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == workers; });
  }

  // Deterministic assembly: candidate-enumeration order, like the
  // sequential driver (witnesses stay parallel to `unsafe`).
  std::vector<Classified> all;
  for (WorkerTally& tally : tallies) {
    result.stats.solver_checks += tally.solver_checks;
    result.pruned_by_replay += tally.pruned_by_replay;
    for (Classified& c : tally.classified) all.push_back(std::move(c));
  }
  std::sort(all.begin(), all.end(),
            [](const Classified& a, const Classified& b) { return a.index < b.index; });
  for (Classified& c : all) {
    switch (c.kind) {
      case Class::kSafe:
        result.safe.push_back(candidates[c.index]);
        break;
      case Class::kUnsafe:
        result.unsafe.push_back(candidates[c.index]);
        result.witnesses.push_back(std::move(*c.witness));
        break;
      case Class::kUndecided:
        result.undecided.push_back(candidates[c.index]);
        break;
    }
  }
  result.stats.seconds = watch.elapsed_seconds();
  VERDICT_DEBUG() << "par_synth: " << candidates.size() << " candidates on " << workers
                  << " workers, " << queues.steals() << " steals, "
                  << result.pruned_by_replay << " replay prunes";
  return result;
}

}  // namespace

SynthResult synthesize_params_parallel(const ts::TransitionSystem& ts, Expr invariant,
                                       const SynthOptions& options) {
  const std::size_t jobs = options.jobs == 0 ? default_jobs() : options.jobs;
  if (jobs <= 1) return core::synthesize_params(ts, invariant, options);
  return core::synthesize_optimized(ts, invariant, options.deadline,
                                    [&](const ts::TransitionSystem& system, Expr atom) {
                                      return sweep_parallel(system, atom, options, jobs);
                                    });
}

}  // namespace verdict::portfolio
