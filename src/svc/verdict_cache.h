// Content-addressed verdict cache: the sharded in-memory LRU, and the
// "verdict-cache-v2" line every stored verdict is written as.
//
// The paper's deployment model (§4.3) re-verifies near-identical models on
// every config push, so the same (system, property, engine options) request
// arrives over and over. The cache memoizes verdicts under the canonical
// fingerprint (svc/fingerprint.h) in a capacity-bounded LRU, sharded with
// one mutex per shard so concurrent daemon requests don't serialize on one
// lock. Persistence is the segment's job (svc/segment.h): its records carry
// one verdict-cache-v2 line each. Counterexample traces are stored
// name-keyed (svc/stored_trace.h) and rehydrated lazily at
// lookup-conversion time, so a segment replays before any model has been
// parsed.
//
// Cacheability rule (the safety property of the whole subsystem): only
// *definitive* verdicts are stored — kHolds, and kViolated with its trace.
// kBoundReached / kTimeout / kUnknown depend on the budget a particular run
// happened to have and MUST be recomputed; insert() silently drops them, and
// cached_from_json() refuses lines carrying them no matter who wrote them.
//
// Identical requests in flight at once are deduplicated one layer up, per
// service batch (svc/service.h), not here.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/result.h"
#include "svc/fingerprint.h"

namespace verdict::svc {

struct CacheOptions {
  /// Total entry budget across all shards (evicts LRU per shard beyond it).
  std::size_t capacity = 4096;
  std::size_t shards = 8;
};

/// One memoized verdict, in process-independent form (the counterexample is
/// stored as name-keyed JSON, not as a ts::Trace).
struct CachedVerdict {
  core::Verdict verdict = core::Verdict::kUnknown;
  std::string engine;   // Stats::engine of the producing run
  std::string message;
  /// Cost of the producing run — what a hit saves.
  double seconds = 0.0;
  double solver_seconds = 0.0;
  std::size_t solver_checks = 0;
  int depth_reached = -1;
  /// svc::trace_to_json form; empty when the verdict carries no trace.
  std::string counterexample_json;

  // Incremental re-verification enrichment (inc::ReuseEngine; all optional —
  // zero/empty means "plain entry").
  /// Fingerprint of (property, engine, max_depth) alone — the part of the
  /// request key that survives a model edit. Links entries for the same
  /// property across model versions.
  Fingerprint prop_key{};
  /// Fingerprint of the property's cone (the dependency-connected components
  /// its support touches) in the system this verdict was computed on.
  Fingerprint cone_fp{};
  /// inc:: proof artifact (name-keyed JSON, svc::StoredTrace discipline);
  /// empty when the producing engine exported none.
  std::string artifact_json;
};

/// True for the verdicts the cache is allowed to hold: kHolds, or kViolated
/// with a stored counterexample.
[[nodiscard]] bool cacheable(const CachedVerdict& v);

/// Conversions to/from engine outcomes. to_outcome returns nullopt when a
/// stored counterexample cannot be rehydrated in this process (unknown
/// variable names) — callers must treat that as a cache miss.
[[nodiscard]] CachedVerdict cached_from_outcome(const core::CheckOutcome& outcome);
[[nodiscard]] std::optional<core::CheckOutcome> outcome_from_cached(
    const CachedVerdict& v);

/// One "verdict-cache-v2" JSON object (no trailing newline): the payload of
/// every mmap'd segment record (svc/segment.h).
[[nodiscard]] std::string cached_to_json(const Fingerprint& key,
                                         const CachedVerdict& v);

/// Parses one v2 line back into (key, verdict). Returns nullopt for
/// malformed lines (an integer field out of its type's range included), for
/// any other schema, AND for non-cacheable verdicts — the cacheability rule
/// is enforced here so a corrupted or tampered segment cannot plant an
/// indefinite verdict.
[[nodiscard]] std::optional<std::pair<Fingerprint, CachedVerdict>>
cached_from_json(const std::string& line);

class VerdictCache {
 public:
  explicit VerdictCache(const CacheOptions& options = {});
  ~VerdictCache();

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  /// Returns the entry and refreshes its LRU position.
  [[nodiscard]] std::optional<CachedVerdict> lookup(const Fingerprint& key);

  /// lookup() for a caller that goes on to the full lookup on a miss: a hit
  /// counts as lookup()'s does, a miss is left for that lookup to count.
  [[nodiscard]] std::optional<CachedVerdict> probe(const Fingerprint& key);

  /// Stores a definitive verdict; silently drops non-cacheable ones.
  void insert(const Fingerprint& key, CachedVerdict value);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;

  /// Calls `fn` for a snapshot of every entry (copied out shard by shard, so
  /// `fn` may call back into the cache). Used by inc::ReuseEngine to rebuild
  /// its cross-version index after the segment warmed the cache.
  void for_each(const std::function<void(const Fingerprint&, const CachedVerdict&)>& fn) const;

 private:
  struct Shard;

  Shard& shard_for(const Fingerprint& key) const;

  CacheOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace verdict::svc
