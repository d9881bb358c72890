// Cross-version verdict reuse: the inc:: implementation of svc::ReuseHook.
//
// The verdict cache answers only exact questions — identical model, identical
// property. ReuseEngine answers the production question (PAPER.md §4.3:
// near-identical models on every config push): it keys verdicts a second
// time by their *property key* (property, engine, max_depth — everything but
// the model), so when an edited model asks the same question it can find the
// previous version's answer and decide, soundly, whether it still applies:
//
//   kHolds, cone fingerprint unchanged, artifact validated this process
//       -> carried verbatim, zero solver work        [inc.properties_reused]
//   kHolds, cone changed (or artifact not yet validated here, e.g. replayed
//   from the segment after a restart)
//       -> artifact revalidated against the property's RAW cone subsystem
//          (two SMT checks)                     [inc.invariants_revalidated
//                                                / inc.revalidation_failed]
//   kViolated -> stored trace replayed on the NEW full system with
//       core::confirm_counterexample (evaluation, no solver)
//                                                    [inc.properties_reused]
//   anything else, or any step failing -> nullopt; caller runs from scratch.
//
// Soundness invariant: a carried kHolds is always backed by a certificate
// checked cone-locally — against the raw cone subsystem built by THIS
// process from the CURRENT model — either just now (revalidation) or when
// the artifact was recorded (eager validation in record()). Cone-local
// validity transfers to any full system containing that cone because full
// executions project onto cone executions (docs/incremental.md). Nothing is
// ever trusted from disk: persisted artifacts re-enter cone_valid=false and
// earn reuse only through a successful revalidation.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "inc/profile.h"
#include "svc/reuse.h"
#include "svc/verdict_cache.h"

namespace verdict::inc {

/// Per-property decision of what the incremental layer would do for a
/// request batch — the introspection surface benches and tests assert on
/// (the live path takes the same decisions inside try_reuse).
struct DeltaPlan {
  enum class Action : std::uint8_t {
    kScratch,       // no prior entry, or nothing sound to carry
    kReuseVerdict,  // carried with zero solver work
    kRevalidate,    // carried if a cheap certificate check passes
  };
  struct Entry {
    Action action = Action::kScratch;
    svc::Fingerprint prop_key{};
    svc::Fingerprint cone_fp{};
  };
  std::vector<Entry> entries;  // parallel to the property list passed in

  [[nodiscard]] std::size_t count(Action a) const {
    std::size_t n = 0;
    for (const Entry& e : entries) n += (e.action == a) ? 1 : 0;
    return n;
  }
};

class ReuseEngine : public svc::ReuseHook {
 public:
  /// Borrows the cache (must outlive the engine). The engine stores nothing
  /// itself: verdicts and artifacts live in cache entries; the engine keeps
  /// only the prop_key -> latest-request index and in-process validation
  /// state.
  explicit ReuseEngine(svc::VerdictCache& cache);

  /// Re-indexes every enriched cache entry (after the segment warmed it).
  /// Indexed entries start cone_valid=false: their artifacts came from disk
  /// and must pass revalidation before any kHolds is carried. Returns the
  /// number of entries indexed.
  std::size_t rebuild_from_cache();

  /// What would try_reuse do for each property, without doing it.
  [[nodiscard]] DeltaPlan plan(const ts::TransitionSystem& system,
                               std::span<const ltl::Formula> properties,
                               core::Engine engine, int max_depth);

  // svc::ReuseHook
  std::optional<svc::CachedVerdict> try_reuse(const ts::TransitionSystem& system,
                                              const ltl::Formula& property,
                                              core::Engine engine, int max_depth,
                                              const util::Deadline& deadline) override;
  svc::CachedVerdict record(const ts::TransitionSystem& system,
                            const ltl::Formula& property, core::Engine engine,
                            int max_depth, const core::CheckOutcome& outcome) override;

 private:
  struct IndexEntry {
    svc::Fingerprint request_fp{};  // cache key of the latest verdict
    svc::Fingerprint cone_fp{};     // cone fp of the system it was computed on
    bool cone_valid = false;        // artifact validated cone-locally here
  };

  std::shared_ptr<const SystemProfile> profile_for(const ts::TransitionSystem& system);

  svc::VerdictCache& cache_;

  std::mutex mutex_;
  std::unordered_map<svc::Fingerprint, IndexEntry, svc::FingerprintHash> index_;
  // Small bounded memo of system profiles keyed by system fingerprint — a
  // request batch profiles its system once, not once per property.
  std::unordered_map<svc::Fingerprint, std::shared_ptr<const SystemProfile>,
                     svc::FingerprintHash>
      profiles_;
};

}  // namespace verdict::inc
