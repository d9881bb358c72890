#include "svc/verdict_cache.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <list>
#include <mutex>
#include <unordered_map>

#include "obs/json.h"
#include "obs/trace.h"
#include "svc/stored_trace.h"

namespace verdict::svc {

namespace {

const char* kSchema = "verdict-cache-v2";
// v1 lines (pre-incremental) are still accepted on load: they simply carry
// none of the inc enrichment fields, which all default to "absent".
const char* kSchemaV1 = "verdict-cache-v1";

std::optional<core::Verdict> verdict_from_name(const std::string& name) {
  for (const core::Verdict v :
       {core::Verdict::kHolds, core::Verdict::kViolated, core::Verdict::kBoundReached,
        core::Verdict::kTimeout, core::Verdict::kUnknown}) {
    if (name == core::verdict_name(v)) return v;
  }
  return std::nullopt;
}

}  // namespace

bool cacheable(const CachedVerdict& v) {
  if (v.verdict == core::Verdict::kHolds) return true;
  return v.verdict == core::Verdict::kViolated && !v.counterexample_json.empty();
}

CachedVerdict cached_from_outcome(const core::CheckOutcome& outcome) {
  CachedVerdict v;
  v.verdict = outcome.verdict;
  v.engine = outcome.stats.engine;
  v.message = outcome.message;
  v.seconds = outcome.stats.seconds;
  v.solver_seconds = outcome.stats.solver_seconds;
  v.solver_checks = outcome.stats.solver_checks;
  v.depth_reached = outcome.stats.depth_reached;
  if (outcome.counterexample) v.counterexample_json = trace_to_json(*outcome.counterexample);
  return v;
}

std::string cached_to_json(const Fingerprint& key, const CachedVerdict& v) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", kSchema);
  w.kv("key", key.str());
  w.kv("verdict", core::verdict_name(v.verdict));
  w.kv("engine", v.engine);
  if (!v.message.empty()) w.kv("message", v.message);
  w.kv("seconds", v.seconds);
  w.kv("solver_seconds", v.solver_seconds);
  w.kv("solver_checks", v.solver_checks);
  w.kv("depth", static_cast<std::int64_t>(v.depth_reached));
  if (!v.counterexample_json.empty()) {
    w.key("counterexample");
    // Re-embed the stored JSON as structured JSON, not a string blob.
    w.raw_value(v.counterexample_json);
  }
  if (v.prop_key != Fingerprint{}) w.kv("prop_key", v.prop_key.str());
  if (v.cone_fp != Fingerprint{}) w.kv("cone_fp", v.cone_fp.str());
  if (!v.artifact_json.empty()) {
    w.key("artifact");
    w.raw_value(v.artifact_json);
  }
  w.end_object();
  return w.str();
}

std::optional<std::pair<Fingerprint, CachedVerdict>> cached_from_json(
    const std::string& line) {
  obs::JsonValue doc;
  try {
    doc = obs::parse_json(line);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!doc.is_object() || !doc["schema"].is_string() ||
      (doc["schema"].string != kSchema && doc["schema"].string != kSchemaV1) ||
      !doc["key"].is_string() || !doc["verdict"].is_string()) {
    return std::nullopt;
  }
  const std::optional<Fingerprint> key = Fingerprint::parse(doc["key"].string);
  const std::optional<core::Verdict> verdict = verdict_from_name(doc["verdict"].string);
  if (!key || !verdict) return std::nullopt;
  CachedVerdict v;
  v.verdict = *verdict;
  if (doc["engine"].is_string()) v.engine = doc["engine"].string;
  if (doc["message"].is_string()) v.message = doc["message"].string;
  if (doc["seconds"].is_number()) v.seconds = doc["seconds"].number;
  if (doc["solver_seconds"].is_number()) v.solver_seconds = doc["solver_seconds"].number;
  if (doc["solver_checks"].is_number())
    v.solver_checks = static_cast<std::size_t>(doc["solver_checks"].number);
  if (doc["depth"].is_number()) v.depth_reached = static_cast<int>(doc["depth"].number);
  if (doc.has("counterexample"))
    v.counterexample_json = obs::to_json(doc["counterexample"]);
  if (doc["prop_key"].is_string())
    if (const std::optional<Fingerprint> fp = Fingerprint::parse(doc["prop_key"].string))
      v.prop_key = *fp;
  if (doc["cone_fp"].is_string())
    if (const std::optional<Fingerprint> fp = Fingerprint::parse(doc["cone_fp"].string))
      v.cone_fp = *fp;
  if (doc.has("artifact")) v.artifact_json = obs::to_json(doc["artifact"]);
  // The cacheability rule applies on every way IN — file load, segment scan,
  // peer response: a tampered or stale source cannot plant an UNKNOWN (or a
  // trace-less violation).
  if (!cacheable(v)) return std::nullopt;
  return std::make_pair(*key, std::move(v));
}

std::optional<core::CheckOutcome> outcome_from_cached(const CachedVerdict& v) {
  core::CheckOutcome outcome;
  outcome.verdict = v.verdict;
  outcome.message = v.message;
  outcome.stats.engine = v.engine;
  outcome.stats.seconds = v.seconds;
  outcome.stats.solver_seconds = v.solver_seconds;
  outcome.stats.solver_checks = v.solver_checks;
  outcome.stats.depth_reached = v.depth_reached;
  if (!v.counterexample_json.empty()) {
    std::optional<ts::Trace> trace = trace_from_json(v.counterexample_json);
    if (!trace) return std::nullopt;  // undeclared vars here -> treat as miss
    outcome.counterexample = std::move(*trace);
  }
  return outcome;
}

// --- shards ------------------------------------------------------------------

struct VerdictCache::Shard {
  mutable std::mutex mu;
  // LRU list, most-recent first; the map points into it.
  std::list<std::pair<Fingerprint, CachedVerdict>> lru;
  std::unordered_map<Fingerprint, decltype(lru)::iterator, FingerprintHash> index;
};

struct VerdictCache::Flight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool failed = false;
  CachedVerdict result;
};

struct VerdictCache::SingleFlight {
  std::mutex mu;
  std::unordered_map<Fingerprint, std::shared_ptr<Flight>, FingerprintHash> in_flight;
  std::atomic<std::uint64_t> shared{0};
};

VerdictCache::VerdictCache(const CacheOptions& options)
    : options_(options), flights_(std::make_unique<SingleFlight>()) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.capacity == 0) options_.capacity = 1;
  for (std::size_t i = 0; i < options_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

VerdictCache::~VerdictCache() = default;

VerdictCache::Shard& VerdictCache::shard_for(const Fingerprint& key) const {
  return *shards_[static_cast<std::size_t>(key.lo) % shards_.size()];
}

std::optional<CachedVerdict> VerdictCache::lookup(const Fingerprint& key) {
  std::optional<CachedVerdict> hit = probe(key);
  if (!hit) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::count("svc.cache.miss");
  }
  return hit;
}

std::optional<CachedVerdict> VerdictCache::probe(const Fingerprint& key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  obs::count("svc.cache.hit");
  return it->second->second;
}

void VerdictCache::insert(const Fingerprint& key, CachedVerdict value) {
  if (!cacheable(value)) {
    obs::count("svc.cache.reject");
    return;
  }
  const std::size_t per_shard =
      std::max<std::size_t>(1, options_.capacity / shards_.size());
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, std::move(value));
  shard.index.emplace(key, shard.lru.begin());
  obs::count("svc.cache.insert");
  while (shard.lru.size() > per_shard) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::count("svc.cache.evict");
  }
}

CachedVerdict VerdictCache::get_or_compute(
    const Fingerprint& key, const std::function<CachedVerdict()>& compute) {
  for (;;) {
    if (std::optional<CachedVerdict> hit = lookup(key)) return std::move(*hit);

    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(flights_->mu);
      auto [it, inserted] = flights_->in_flight.try_emplace(key, nullptr);
      if (inserted) {
        it->second = std::make_shared<Flight>();
        leader = true;
      }
      flight = it->second;
    }

    if (leader) {
      CachedVerdict result;
      std::exception_ptr error;
      try {
        result = compute();
      } catch (...) {
        error = std::current_exception();
      }
      if (!error) insert(key, result);
      {
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->done = true;
        flight->failed = error != nullptr;
        if (!error) flight->result = result;
      }
      {
        std::lock_guard<std::mutex> lock(flights_->mu);
        flights_->in_flight.erase(key);
      }
      flight->cv.notify_all();
      if (error) std::rethrow_exception(error);
      return result;
    }

    // Follower: share the leader's answer (even a non-cacheable one).
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (!flight->failed) {
      flights_->shared.fetch_add(1, std::memory_order_relaxed);
      obs::count("svc.singleflight.shared");
      return flight->result;
    }
    // Leader failed: loop and try again (possibly becoming the leader).
  }
}

std::size_t VerdictCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->lru.size();
  }
  return n;
}

std::uint64_t VerdictCache::hits() const {
  return hits_.load(std::memory_order_relaxed);
}
std::uint64_t VerdictCache::misses() const {
  return misses_.load(std::memory_order_relaxed);
}
std::uint64_t VerdictCache::evictions() const {
  return evictions_.load(std::memory_order_relaxed);
}
std::uint64_t VerdictCache::single_flight_shared() const {
  return flights_->shared.load(std::memory_order_relaxed);
}

void VerdictCache::for_each(
    const std::function<void(const Fingerprint&, const CachedVerdict&)>& fn) const {
  for (const auto& shard : shards_) {
    // Copy the shard out before calling fn: the callback may re-enter the
    // cache (lookup/insert) without deadlocking on the shard mutex.
    std::vector<std::pair<Fingerprint, CachedVerdict>> snapshot;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      snapshot.assign(shard->lru.begin(), shard->lru.end());
    }
    for (const auto& [key, v] : snapshot) fn(key, v);
  }
}

// --- persistence -------------------------------------------------------------

void VerdictCache::save(std::ostream& out) const {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, v] : shard->lru) out << cached_to_json(key, v) << '\n';
  }
}

void VerdictCache::save_file(const std::string& path) const {
  // Write-temp + rename: rename(2) is atomic within a filesystem, so readers
  // (another shard loading the file, a restarted daemon) see either the
  // previous complete snapshot or the new one — never a torn file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("VerdictCache: cannot write " + tmp);
    save(out);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("VerdictCache: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("VerdictCache: cannot rename " + tmp + " -> " + path);
  }
}

std::size_t VerdictCache::load(std::istream& in) {
  std::size_t loaded = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::optional<std::pair<Fingerprint, CachedVerdict>> entry = cached_from_json(line);
    if (!entry) {
      obs::count("svc.cache.load_skipped");
      continue;
    }
    insert(entry->first, std::move(entry->second));
    ++loaded;
  }
  return loaded;
}

std::size_t VerdictCache::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  return load(in);
}

}  // namespace verdict::svc
