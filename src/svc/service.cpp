#include "svc/service.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "svc/fingerprint.h"

namespace verdict::svc {

namespace {

core::CheckOutcome rejected_outcome() {
  core::CheckOutcome outcome;
  outcome.verdict = core::Verdict::kUnknown;
  outcome.message = "rejected: admission queue full";
  outcome.stats.engine = "svc";
  return outcome;
}

core::CheckOutcome failed_outcome(const std::string& what) {
  core::CheckOutcome outcome;
  outcome.verdict = core::Verdict::kUnknown;
  outcome.message = "batch dispatch failed: " + what;
  outcome.stats.engine = "svc";
  return outcome;
}

// Batch grouping key: requests are only coalesced when every verdict-
// relevant knob matches. The deadline enters as a coarse bucket (100ms) of
// the remaining budget: members of one batch share a session deadline (the
// earliest member's), so only requests whose budgets agree to within a
// bucket may share a run — a never-expiring request must not inherit a 2s
// budget from a neighbor.
struct GroupKey {
  Fingerprint system;
  core::Engine engine = core::Engine::kAuto;
  int max_depth = 0;
  std::uint64_t deadline_bucket = 0;

  friend bool operator==(const GroupKey&, const GroupKey&) = default;
};

struct GroupKeyHash {
  std::size_t operator()(const GroupKey& k) const noexcept {
    std::uint64_t h = k.system.hi ^ (k.system.lo * 0x9e3779b97f4a7c15ULL);
    h ^= (static_cast<std::uint64_t>(k.engine) + 0x9e37u) * 0xff51afd7ed558ccdULL;
    h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.max_depth)) + 1) *
         0xc4ceb9fe1a85ec53ULL;
    h ^= k.deadline_bucket * 0x2545f4914f6cdd1dULL;
    return static_cast<std::size_t>(h);
  }
};

std::uint64_t deadline_bucket(const util::Deadline& d) {
  if (!d.is_finite()) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(d.remaining_seconds() * 10.0);
}

// The store tiers in lookup order — LRU, persistent segment, ring owner —
// and their write-through rule. The direct path, SessionCache and PEER_GET /
// PEER_PUT serving all walk the tiers through this one type. `segment` is
// null without a segment file; `peers` is null off a cluster, and for
// PEER_GET serving, which answers from this shard's local tiers only so a
// peer lookup stays one hop.
struct StoreTiers {
  VerdictCache* lru = nullptr;
  SegmentStore* segment = nullptr;
  PeerExchange* peers = nullptr;

  /// The tiers below the LRU: the segment, then the shard the ring assigns
  /// `key` to.
  [[nodiscard]] std::optional<CachedVerdict> fetch(const Fingerprint& key) const {
    if (segment != nullptr) {
      if (std::optional<CachedVerdict> held = segment->lookup(key)) return held;
    }
    if (peers != nullptr) {
      if (peers->owns(key)) {
        obs::count("svc.ring.local");
      } else {
        obs::count("svc.ring.remote");
        return peers->fetch(key);
      }
    }
    return std::nullopt;
  }

  /// The LRU, then fetch(); a lower-tier hit is re-inserted into the LRU.
  [[nodiscard]] std::optional<CachedVerdict> lookup(const Fingerprint& key) const {
    if (std::optional<CachedVerdict> held = lru->lookup(key)) return held;
    std::optional<CachedVerdict> held = fetch(key);
    if (held) lru->insert(key, *held);
    return held;
  }

  /// Write-through below the LRU: the segment makes a fresh verdict
  /// crash-durable now (not at the next snapshot), and the ring owner gets a
  /// copy so every shard is one peer hop from it. Both drop non-definitive
  /// verdicts on their own.
  void write_through(const Fingerprint& key, const CachedVerdict& value) const {
    if (segment != nullptr) segment->append(key, value);
    if (peers != nullptr) peers->publish(key, value);
  }

  /// write_through(), then the LRU.
  void store(const Fingerprint& key, CachedVerdict value) const {
    write_through(key, value);
    lru->insert(key, std::move(value));
  }
};

// PropertyCacheHook that delegates to SessionCache and records which of the
// session's properties were answered from the cache, so the batch fan-out can
// set per-member cache_hit flags truthfully. Hits are recorded by property
// INDEX, not fingerprint: check_all consults the hook exactly once per
// property, in add order, before any engine runs (src/core/session.cpp), so
// the k-th lookup call is property k. A fingerprint key would conflate two
// batch members carrying the identical property — one computed, one served —
// into the same hit flag.
class RecordingSessionCache final : public core::PropertyCacheHook {
 public:
  RecordingSessionCache(VerdictCache& cache, ReuseHook* reuse,
                        SegmentStore* segment, PeerExchange* peers,
                        std::size_t num_properties)
      : inner_(cache, reuse, segment, peers), hit_(num_properties, 0) {}

  std::optional<core::CheckOutcome> lookup(const ts::TransitionSystem& system,
                                           const ltl::Formula& property,
                                           core::Engine engine, int max_depth) override {
    std::optional<core::CheckOutcome> hit =
        inner_.lookup(system, property, engine, max_depth);
    if (hit && next_ < hit_.size()) hit_[next_] = 1;
    ++next_;
    return hit;
  }

  void store(const ts::TransitionSystem& system, const ltl::Formula& property,
             core::Engine engine, int max_depth,
             const core::CheckOutcome& outcome) override {
    inner_.store(system, property, engine, max_depth, outcome);
  }

  [[nodiscard]] bool was_hit(std::size_t index) const {
    return index < hit_.size() && hit_[index] != 0;
  }

 private:
  SessionCache inner_;
  std::vector<char> hit_;
  std::size_t next_ = 0;
};

}  // namespace

// Admission bookkeeping: how many requests are admitted-but-unfinished.
// Shared by submit (admission check), the pool job (completion), and drain
// (wait-for-zero), so it lives behind one mutex rather than in atomics.
struct Service::Inflight {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t active = 0;
  bool draining = false;
  std::uint64_t requests = 0;
  std::uint64_t rejected = 0;
};

// One coalescing batch: requests sharing a GroupKey that arrived within the
// window, waiting to be dispatched as a single Session::check_all.
struct Batch {
  struct Entry {
    ltl::Formula property;
    std::shared_ptr<CheckResponse> slot;
    std::shared_ptr<BatchMember> member;
    std::function<void()> on_complete;
    util::Stopwatch queued;
  };

  const ts::TransitionSystem* system = nullptr;
  core::Engine engine = core::Engine::kAuto;
  int max_depth = 50;
  util::Deadline deadline = util::Deadline::never();
  std::chrono::steady_clock::time_point ready_at;

  std::mutex mu;
  std::vector<Entry> entries;     // frozen once `dispatched`
  bool dispatched = false;
  std::size_t cancelled_members = 0;
  portfolio::JobHandle handle;    // valid once dispatched
};

// Per-request view of a batch: completion signalling for wait()/done(), and
// cancellation votes (the shared run is only cancelled when EVERY member
// asked for it — one impatient client must not kill its neighbors' checks).
struct BatchMember {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool cancelled = false;
  // Weak: the batch owns its members (Batch::Entry::member), so a strong
  // back-reference would be a cycle that leaks every batch. The open-batch
  // table, then the dispatched job, keep the batch alive while a cancel
  // can still matter.
  std::weak_ptr<Batch> batch;

  void cancel() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (cancelled) return;
      cancelled = true;
    }
    const std::shared_ptr<Batch> live = batch.lock();
    if (!live) return;
    std::lock_guard<std::mutex> lock(live->mu);
    ++live->cancelled_members;
    if (live->dispatched && live->cancelled_members >= live->entries.size())
      live->handle.cancel();
  }

  void mark_done() {
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_all();
  }
};

// The coalescer: an open-batch table plus one timer thread that dispatches
// batches when their window expires (full batches dispatch inline from
// submit). Lives for the whole Service lifetime; drain() only flushes it.
struct Service::Batcher {
  std::mutex mu;
  std::condition_variable cv;
  std::unordered_map<GroupKey, std::shared_ptr<Batch>, GroupKeyHash> open;
  bool stopping = false;
  std::uint64_t batches_formed = 0;
  std::uint64_t batched_requests = 0;
  std::thread thread;
};

Service::Service(const ServiceOptions& options)
    : options_(options),
      cache_(std::make_unique<VerdictCache>(options.cache)),
      pool_(std::make_unique<portfolio::ThreadPool>(options.jobs)),
      inflight_(std::make_unique<Inflight>()) {
  if (!options_.cache_file.empty()) {
    const std::size_t loaded = cache_->load_file(options_.cache_file);
    if (obs::TraceSink* s = obs::sink())
      s->event("svc.cache_loaded")
          .attr("file", options_.cache_file)
          .attr("entries", loaded)
          .emit();
  }
  if (!options_.segment_file.empty()) {
    segment_ = std::make_unique<SegmentStore>(options_.segment_file);
    // Warm the LRU from the segment so segment entries behave exactly like
    // snapshot-loaded ones (the ReuseEngine index rebuild sees them too).
    segment_->for_each([this](const Fingerprint& key, const CachedVerdict& v) {
      cache_->insert(key, v);
    });
    if (obs::TraceSink* s = obs::sink())
      s->event("svc.segment_loaded")
          .attr("file", options_.segment_file)
          .attr("entries", segment_->size())
          .emit();
  }
  if (!options_.cluster.empty())
    peers_ = std::make_unique<PeerExchange>(Ring::from_spec(options_.cluster),
                                            options_.self_id, options_.peer);
  if (options_.batch_window_seconds > 0 && options_.batch_max > 0) {
    batcher_ = std::make_unique<Batcher>();
    batcher_->thread = std::thread([this] { batcher_loop(); });
  }
}

Service::~Service() {
  drain();
  if (batcher_) {
    {
      std::lock_guard<std::mutex> lock(batcher_->mu);
      batcher_->stopping = true;
    }
    batcher_->cv.notify_all();
    batcher_->thread.join();
  }
  // Join the workers before the implicit member teardown: drain() returning
  // means active==0, but the last worker may still be inside its trailing
  // inflight cv.notify_all(), which must finish before ~Inflight destroys
  // the condition variable.
  pool_.reset();
}

void PendingCheck::cancel() {
  if (member_) {
    member_->cancel();
    return;
  }
  handle_.cancel();
}

bool PendingCheck::done() const {
  if (member_) {
    std::lock_guard<std::mutex> lock(member_->mu);
    return member_->done;
  }
  return handle_.done();
}

CheckResponse PendingCheck::wait() {
  if (member_) {
    std::unique_lock<std::mutex> lock(member_->mu);
    member_->cv.wait(lock, [this] { return member_->done; });
  } else {
    handle_.wait();
  }
  return slot_ ? *slot_ : CheckResponse{};
}

PendingCheck Service::submit(const CheckRequest& request) {
  PendingCheck pending;
  pending.slot_ = std::make_shared<CheckResponse>();

  // A cache-mediated request whose verdict is already in the LRU is answered
  // here, before admission: a microsecond hit must not count against the
  // queue that slow cold work fills.
  const bool cache_mediated = request.optimize && request.abstract && request.system != nullptr;
  std::optional<Fingerprint> request_key;
  std::optional<core::CheckOutcome> hit;
  if (request.system != nullptr)
    request_key = fingerprint_request(*request.system, request.property, request.engine,
                                      request.max_depth);
  if (cache_mediated) {
    if (std::optional<CachedVerdict> cached = cache_->probe(*request_key))
      hit = outcome_from_cached(*cached);
  }

  std::size_t depth = 0;
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(inflight_->mu);
    ++inflight_->requests;
    if (hit && !inflight_->draining) {
      pending.slot_->outcome = std::move(*hit);
      pending.slot_->cache_hit = true;
    } else if (inflight_->draining || inflight_->active >= options_.queue_limit) {
      ++inflight_->rejected;
      obs::count("svc.rejected");
      pending.slot_->outcome = rejected_outcome();
      pending.slot_->rejected = true;
      rejected = true;
    } else {
      depth = ++inflight_->active;
    }
  }
  if (rejected || pending.slot_->cache_hit) {
    // Callback outside the admission lock: on_complete may read Service
    // accessors that take the same mutex.
    if (pending.slot_->cache_hit) obs::count("svc.requests");
    if (request.on_complete) request.on_complete();
    return pending;  // no handle: wait() returns immediately
  }
  obs::count("svc.requests");
  obs::count("svc.queue.enqueued");
  if (obs::TraceSink* s = obs::sink())
    s->event("svc.request").attr("queue_depth", depth).emit();

  // Batched dispatch: cache-mediated requests join a coalescing batch and
  // are verified as one shared session run. optimize=false / abstract=false
  // requests keep the direct path — their contract is "never answer from the
  // cache".
  if (batcher_ && cache_mediated) return submit_batched(request, pending.slot_);

  // Copies for the closure: the formula and options by value, the system by
  // pointer (the caller guarantees it outlives wait() — see CheckRequest).
  const ts::TransitionSystem* system = request.system;
  const ltl::Formula property = request.property;
  const core::Engine engine = request.engine;
  const int max_depth = request.max_depth;
  const bool optimize = request.optimize;
  const bool abstract = request.abstract;
  const util::Deadline deadline = request.deadline;
  const std::function<void()> on_complete = request.on_complete;
  const Fingerprint key = *request_key;

  std::shared_ptr<CheckResponse> slot = pending.slot_;
  Inflight* inflight = inflight_.get();
  const StoreTiers tiers{cache_.get(), segment_.get(), peers_.get()};
  ReuseHook* reuse = reuse_;
  util::Stopwatch queued;

  pending.handle_ = pool_->submit_cancellable(
      [=](const util::CancelToken& token) {
        slot->queue_seconds = queued.elapsed_seconds();
        obs::count("svc.queue.dequeued");
        const auto run_check = [&] {
          core::CheckOptions check_options;
          check_options.engine = engine;
          check_options.max_depth = max_depth;
          check_options.optimize = optimize;
          check_options.abstract = abstract;
          check_options.deadline = deadline.with_cancel(token);
          return core::check(*system, property, check_options);
        };
        bool computed = false;
        CachedVerdict cached;
        if (optimize && abstract) {
          cached = tiers.lru->get_or_compute(key, [&] {
            // Exact LRU miss (single-flight: concurrent identical requests
            // wait here). Walk the remaining store tiers before paying for
            // any engine work. A tier hit leaves `computed` false (the
            // client sees the warm hit it is) and get_or_compute re-inserts
            // it into the LRU.
            if (std::optional<CachedVerdict> held = tiers.fetch(key))
              return std::move(*held);
            // Before paying for a scratch run, let the incremental layer try
            // to carry the verdict over from a previous model version
            // (unchanged cone, or a revalidated proof artifact).
            CachedVerdict fresh;
            bool carried_over = false;
            if (reuse != nullptr) {
              if (std::optional<CachedVerdict> carried = reuse->try_reuse(
                      *system, property, engine, max_depth, deadline.with_cancel(token))) {
                fresh = std::move(*carried);
                carried_over = true;
              }
            }
            if (!carried_over) {
              computed = true;
              const core::CheckOutcome out = run_check();
              fresh = reuse != nullptr
                          ? reuse->record(*system, property, engine, max_depth, out)
                          : cached_from_outcome(out);
            }
            tiers.write_through(key, fresh);
            return fresh;
          });
        } else {
          // optimize=false / abstract=false are the escape hatches around
          // pipeline bugs: never serve a cached verdict (the entry may have
          // been produced through the optimizing or abstracting pipeline).
          // Recompute, and refresh the shared entry so a stale verdict is
          // overwritten rather than left behind.
          computed = true;
          const core::CheckOutcome out = run_check();
          cached = reuse != nullptr
                       ? reuse->record(*system, property, engine, max_depth, out)
                       : cached_from_outcome(out);
          tiers.store(key, cached);
          obs::count("svc.cache_bypassed");
        }
        slot->cache_hit = !computed;
        std::optional<core::CheckOutcome> outcome = outcome_from_cached(cached);
        if (!outcome) {
          // Stored counterexample does not rehydrate against this system
          // (should not happen for a fingerprint match — defensive): compute
          // fresh rather than serve a trace-less kViolated.
          obs::count("svc.rehydrate_failed");
          outcome = run_check();
          slot->cache_hit = false;
        }
        slot->outcome = std::move(*outcome);
        // Callback BEFORE the active-count decrement: drain() waits on
        // active==0 and its callers tear down callback targets right after,
        // so a callback must never still be in flight once drain() returns.
        if (on_complete) on_complete();
        {
          std::lock_guard<std::mutex> lock(inflight->mu);
          --inflight->active;
        }
        inflight->cv.notify_all();
      });
  return pending;
}

PendingCheck Service::submit_batched(const CheckRequest& request,
                                     std::shared_ptr<CheckResponse> slot) {
  GroupKey key;
  key.system = fingerprint(*request.system);
  key.engine = request.engine;
  key.max_depth = request.max_depth;
  key.deadline_bucket = deadline_bucket(request.deadline);

  auto member = std::make_shared<BatchMember>();
  PendingCheck pending;
  pending.slot_ = std::move(slot);
  pending.member_ = member;

  std::shared_ptr<Batch> full;  // dispatches inline when the batch filled up
  {
    std::lock_guard<std::mutex> lock(batcher_->mu);
    std::shared_ptr<Batch>& open = batcher_->open[key];
    if (!open) {
      open = std::make_shared<Batch>();
      open->system = request.system;
      open->engine = request.engine;
      open->max_depth = request.max_depth;
      open->deadline = request.deadline;
      open->ready_at = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(options_.batch_window_seconds));
    }
    member->batch = open;
    {
      std::lock_guard<std::mutex> batch_lock(open->mu);
      open->entries.push_back({request.property, pending.slot_, member,
                               request.on_complete, util::Stopwatch{}});
    }
    // The shared session runs under the EARLIEST member deadline: sound (a
    // member can only time out sooner than asked, and indefinite verdicts
    // are never cached), and the deadline bucket in the group key keeps the
    // skew within one window + 100ms.
    if (request.deadline.remaining_seconds() < open->deadline.remaining_seconds())
      open->deadline = request.deadline;
    if (open->entries.size() >= options_.batch_max) {
      full = open;
      batcher_->open.erase(key);
    }
  }
  if (full)
    dispatch_batch(full);
  else
    batcher_->cv.notify_one();  // re-evaluate the earliest window expiry
  return pending;
}

void Service::batcher_loop() {
  using Clock = std::chrono::steady_clock;
  std::unique_lock<std::mutex> lock(batcher_->mu);
  for (;;) {
    if (batcher_->stopping && batcher_->open.empty()) return;
    bool draining;
    {
      std::lock_guard<std::mutex> il(inflight_->mu);
      draining = inflight_->draining;
    }
    if (batcher_->open.empty()) {
      batcher_->cv.wait(lock, [this] {
        return batcher_->stopping || !batcher_->open.empty();
      });
      continue;
    }
    Clock::time_point earliest = Clock::time_point::max();
    for (const auto& [key, batch] : batcher_->open)
      earliest = std::min(earliest, batch->ready_at);
    const Clock::time_point now = Clock::now();
    if (now < earliest && !batcher_->stopping && !draining) {
      batcher_->cv.wait_until(lock, earliest);
      continue;
    }
    // Collect ripe batches (all of them when stopping or draining).
    std::vector<std::shared_ptr<Batch>> ripe;
    for (auto it = batcher_->open.begin(); it != batcher_->open.end();) {
      if (batcher_->stopping || draining || it->second->ready_at <= now) {
        ripe.push_back(it->second);
        it = batcher_->open.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();
    for (const std::shared_ptr<Batch>& batch : ripe) dispatch_batch(batch);
    lock.lock();
  }
}

void Service::dispatch_batch(std::shared_ptr<Batch> batch) {
  Inflight* inflight = inflight_.get();
  VerdictCache* cache = cache_.get();
  SegmentStore* segment = segment_.get();
  PeerExchange* peers = peers_.get();
  ReuseHook* reuse = reuse_;

  std::size_t members = 0;
  {
    std::lock_guard<std::mutex> lock(batch->mu);
    members = batch->entries.size();
  }
  {
    std::lock_guard<std::mutex> lock(batcher_->mu);
    ++batcher_->batches_formed;
    batcher_->batched_requests += members;
  }
  obs::count("svc.batches_formed");
  obs::count("svc.batch_size", members);
  if (obs::TraceSink* s = obs::sink())
    s->event("svc.batch").attr("members", members).emit();

  portfolio::JobHandle handle = pool_->submit_cancellable(
      [batch, inflight, cache, segment, peers, reuse](const util::CancelToken& token) {
        obs::count("svc.queue.dequeued", batch->entries.size());
        for (Batch::Entry& entry : batch->entries)
          entry.slot->queue_seconds = entry.queued.elapsed_seconds();

        // One shared session over every member property. The hook gives each
        // member its individual verdict-cache lookup (and ReuseHook carry-
        // over) before any engine runs, and offers fresh outcomes back — the
        // same per-property semantics as the direct path, minus single-
        // flight (concurrent identical requests land in ONE batch anyway).
        RecordingSessionCache hook(*cache, reuse, segment, peers,
                                   batch->entries.size());
        core::SessionResult result;
        std::string failure;
        try {
          core::Session session(*batch->system);
          for (std::size_t i = 0; i < batch->entries.size(); ++i)
            session.add_property("b" + std::to_string(i),
                                 batch->entries[i].property);
          core::SessionOptions so;
          so.engine = batch->engine;
          so.max_depth = batch->max_depth;
          so.deadline = batch->deadline.with_cancel(token);
          so.jobs = 1;  // the batch already owns one pool worker
          so.cache = &hook;
          so.optimize = true;  // only optimize=true, abstract=true requests batch
          so.abstract = true;
          result = session.check_all(so);
        } catch (const std::exception& error) {
          failure = error.what();
        }

        // Fill EVERY slot before signalling ANY member: a member's
        // CheckRequest borrow only keeps *batch->system alive until that
        // member's own completion, so once the first mark_done/on_complete
        // fires, nothing shared (system, session result, hook) may be read
        // on behalf of later members.
        for (std::size_t i = 0; i < batch->entries.size(); ++i) {
          Batch::Entry& entry = batch->entries[i];
          if (!failure.empty()) {
            entry.slot->outcome = failed_outcome(failure);
          } else {
            entry.slot->outcome = std::move(result.properties[i].outcome);
            entry.slot->cache_hit = hook.was_hit(i);
          }
        }
        for (Batch::Entry& entry : batch->entries) {
          entry.member->mark_done();
          // Same ordering rule as the direct path: the callback fires before
          // this member stops counting toward `active`, so drain() doubles
          // as a completion-callback fence.
          if (entry.on_complete) entry.on_complete();
          {
            std::lock_guard<std::mutex> lock(inflight->mu);
            --inflight->active;
          }
          inflight->cv.notify_all();
        }
      });

  bool cancel_now = false;
  {
    std::lock_guard<std::mutex> lock(batch->mu);
    batch->dispatched = true;
    batch->handle = handle;
    cancel_now = batch->cancelled_members >= batch->entries.size();
  }
  if (cancel_now) handle.cancel();
}

CheckResponse Service::check(const CheckRequest& request) {
  return submit(request).wait();
}

void Service::drain() {
  {
    std::lock_guard<std::mutex> lock(inflight_->mu);
    inflight_->draining = true;
  }
  if (batcher_) {
    // Flush batches still inside their coalescing window — nothing new joins
    // them now that admission is closed.
    std::vector<std::shared_ptr<Batch>> open;
    {
      std::lock_guard<std::mutex> lock(batcher_->mu);
      for (const auto& [key, batch] : batcher_->open) open.push_back(batch);
      batcher_->open.clear();
    }
    for (const std::shared_ptr<Batch>& batch : open) dispatch_batch(batch);
    batcher_->cv.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(inflight_->mu);
    inflight_->cv.wait(lock, [this] { return inflight_->active == 0; });
  }
  if (!options_.cache_file.empty() && cache_) {
    cache_->save_file(options_.cache_file);
    if (obs::TraceSink* s = obs::sink())
      s->event("svc.cache_saved")
          .attr("file", options_.cache_file)
          .attr("entries", cache_->size())
          .emit();
  }
}

std::size_t Service::queue_depth() const {
  std::lock_guard<std::mutex> lock(inflight_->mu);
  return inflight_->active;
}

std::uint64_t Service::requests() const {
  std::lock_guard<std::mutex> lock(inflight_->mu);
  return inflight_->requests;
}

std::uint64_t Service::rejected() const {
  std::lock_guard<std::mutex> lock(inflight_->mu);
  return inflight_->rejected;
}

std::uint64_t Service::batches_formed() const {
  if (!batcher_) return 0;
  std::lock_guard<std::mutex> lock(batcher_->mu);
  return batcher_->batches_formed;
}

std::uint64_t Service::batched_requests() const {
  if (!batcher_) return 0;
  std::lock_guard<std::mutex> lock(batcher_->mu);
  return batcher_->batched_requests;
}

std::optional<CachedVerdict> Service::store_lookup(const Fingerprint& key) {
  return StoreTiers{cache_.get(), segment_.get(), nullptr}.lookup(key);
}

void Service::store_insert(const Fingerprint& key, CachedVerdict value) {
  StoreTiers{cache_.get(), segment_.get(), nullptr}.store(key, std::move(value));
}

std::optional<core::CheckOutcome> SessionCache::lookup(
    const ts::TransitionSystem& system, const ltl::Formula& property,
    core::Engine engine, int max_depth) {
  const Fingerprint key = fingerprint_request(system, property, engine, max_depth);
  if (std::optional<CachedVerdict> held = StoreTiers{&cache_, segment_, peers_}.lookup(key))
    return outcome_from_cached(*held);  // rehydration failure -> miss
  if (reuse_ != nullptr) {
    // Exact miss: a previous model version may still answer (svc/reuse.h).
    // Sessions are synchronous, so the revalidation runs on the caller's
    // budgetless path; carried verdicts are re-inserted under this request's
    // fingerprint so the next identical lookup is an exact hit.
    if (std::optional<CachedVerdict> carried =
            reuse_->try_reuse(system, property, engine, max_depth, util::Deadline::never())) {
      std::optional<core::CheckOutcome> outcome = outcome_from_cached(*carried);
      if (outcome) cache_.insert(key, std::move(*carried));
      return outcome;
    }
  }
  return std::nullopt;
}

void SessionCache::store(const ts::TransitionSystem& system,
                         const ltl::Formula& property, core::Engine engine,
                         int max_depth, const core::CheckOutcome& outcome) {
  const Fingerprint key = fingerprint_request(system, property, engine, max_depth);
  // Every tier drops non-definitive verdicts on its own.
  StoreTiers{&cache_, segment_, peers_}.store(
      key, reuse_ != nullptr ? reuse_->record(system, property, engine, max_depth, outcome)
                             : cached_from_outcome(outcome));
}

}  // namespace verdict::svc
