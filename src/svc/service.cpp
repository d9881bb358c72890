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
// budget from a neighbor. The pipeline flags select the session's options,
// so an escape-hatch request (optimize=false or abstract=false) batches only
// with its own kind.
struct GroupKey {
  Fingerprint system;
  core::Engine engine = core::Engine::kAuto;
  int max_depth = 0;
  std::uint64_t deadline_bucket = 0;
  bool optimize = true;
  bool abstract = true;

  friend bool operator==(const GroupKey&, const GroupKey&) = default;
};

struct GroupKeyHash {
  std::size_t operator()(const GroupKey& k) const noexcept {
    std::uint64_t h = k.system.hi ^ (k.system.lo * 0x9e3779b97f4a7c15ULL);
    h ^= (static_cast<std::uint64_t>(k.engine) + 0x9e37u) * 0xff51afd7ed558ccdULL;
    h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.max_depth)) + 1) *
         0xc4ceb9fe1a85ec53ULL;
    h ^= k.deadline_bucket * 0x2545f4914f6cdd1dULL;
    h ^= (static_cast<std::uint64_t>(k.optimize) << 1 | static_cast<std::uint64_t>(k.abstract)) *
         0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h);
  }
};

std::uint64_t deadline_bucket(const util::Deadline& d) {
  if (!d.is_finite()) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(d.remaining_seconds() * 10.0);
}

// The verdict store: the LRU, then the persistent segment (null without a
// segment file). SessionCache walks it through this one type.
struct StoreTiers {
  VerdictCache* lru = nullptr;
  SegmentStore* segment = nullptr;

  /// The LRU, then the segment; a segment hit is re-inserted into the LRU.
  [[nodiscard]] std::optional<CachedVerdict> lookup(const Fingerprint& key) const {
    if (std::optional<CachedVerdict> held = lru->lookup(key)) return held;
    if (segment == nullptr) return std::nullopt;
    std::optional<CachedVerdict> held = segment->lookup(key);
    if (held) lru->insert(key, *held);
    return held;
  }

  /// Writes through both: the segment makes the verdict crash-durable when
  /// it is stored. Each drops non-definitive verdicts on its own.
  void store(const Fingerprint& key, CachedVerdict value) const {
    if (segment != nullptr) segment->append(key, value);
    lru->insert(key, std::move(value));
  }
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
    Fingerprint key;  // the request fingerprint submit() computed
    std::shared_ptr<CheckResponse> slot;
    std::shared_ptr<BatchMember> member;
    std::function<void()> on_complete;
    util::Stopwatch queued;
  };

  const ts::TransitionSystem* system = nullptr;
  core::Engine engine = core::Engine::kAuto;
  int max_depth = 50;
  util::Deadline deadline = util::Deadline::never();
  bool optimize = true;
  bool abstract = true;
  std::chrono::steady_clock::time_point ready_at;

  std::mutex mu;
  std::vector<Entry> entries;     // frozen once `dispatched`
  bool dispatched = false;
  std::size_t cancelled_members = 0;
  JobHandle handle;    // valid once dispatched
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
// batches when their window expires (full batches, and every batch under a
// zero window, dispatch inline from submit). Lives for the whole Service
// lifetime; drain() only flushes it.
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
      pool_(std::make_unique<ThreadPool>(options.jobs)),
      inflight_(std::make_unique<Inflight>()) {
  if (!options_.segment_file.empty()) {
    segment_ = std::make_unique<SegmentStore>(options_.segment_file);
    // Warm the LRU from the segment, so a restart starts warm and the
    // ReuseEngine index rebuild sees the replayed entries.
    segment_->for_each([this](const Fingerprint& key, const CachedVerdict& v) {
      cache_->insert(key, v);
    });
    if (obs::TraceSink* s = obs::sink())
      s->event("svc.segment_loaded")
          .attr("file", options_.segment_file)
          .attr("entries", segment_->size())
          .emit();
  }
  batcher_ = std::make_unique<Batcher>();
  batcher_->thread = std::thread([this] { batcher_loop(); });
}

Service::~Service() {
  drain();
  {
    std::lock_guard<std::mutex> lock(batcher_->mu);
    batcher_->stopping = true;
  }
  batcher_->cv.notify_all();
  batcher_->thread.join();
  // Join the workers before the implicit member teardown: drain() returning
  // means active==0, but the last worker may still be inside its trailing
  // inflight cv.notify_all(), which must finish before ~Inflight destroys
  // the condition variable.
  pool_.reset();
}

void PendingCheck::cancel() {
  if (member_) member_->cancel();
}

bool PendingCheck::done() const {
  if (!member_) return true;
  std::lock_guard<std::mutex> lock(member_->mu);
  return member_->done;
}

CheckResponse PendingCheck::wait() {
  if (member_) {
    std::unique_lock<std::mutex> lock(member_->mu);
    member_->cv.wait(lock, [this] { return member_->done; });
  }
  return slot_ ? *slot_ : CheckResponse{};
}

PendingCheck Service::submit(const CheckRequest& request) {
  PendingCheck pending;
  pending.slot_ = std::make_shared<CheckResponse>();

  // A cache-mediated request whose verdict is already in the LRU is answered
  // here, before admission: a microsecond hit must not count against the
  // queue that slow cold work fills.
  const Fingerprint request_key = fingerprint_request(*request.system, request.property,
                                                      request.engine, request.max_depth);
  std::optional<core::CheckOutcome> hit;
  if (request.optimize && request.abstract) {
    if (std::optional<CachedVerdict> cached = cache_->probe(request_key))
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
    return pending;  // no member: wait() returns immediately
  }
  obs::count("svc.requests");
  obs::count("svc.queue.enqueued");
  if (obs::TraceSink* s = obs::sink())
    s->event("svc.request").attr("queue_depth", depth).emit();
  return submit_batched(request, request_key, std::move(pending.slot_));
}

PendingCheck Service::submit_batched(const CheckRequest& request,
                                     const Fingerprint& request_key,
                                     std::shared_ptr<CheckResponse> slot) {
  GroupKey key;
  key.system = fingerprint(*request.system);
  key.engine = request.engine;
  key.max_depth = request.max_depth;
  key.deadline_bucket = deadline_bucket(request.deadline);
  key.optimize = request.optimize;
  key.abstract = request.abstract;

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
      open->optimize = request.optimize;
      open->abstract = request.abstract;
      open->ready_at = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(options_.batch_window_seconds));
    }
    member->batch = open;
    {
      std::lock_guard<std::mutex> batch_lock(open->mu);
      open->entries.push_back({request.property, request_key, pending.slot_, member,
                               request.on_complete, util::Stopwatch{}});
    }
    // The shared session runs under the EARLIEST member deadline: sound (a
    // member can only time out sooner than asked, and indefinite verdicts
    // are never cached), and the deadline bucket in the group key keeps the
    // skew within one window + 100ms.
    if (request.deadline.remaining_seconds() < open->deadline.remaining_seconds())
      open->deadline = request.deadline;
    if (open->entries.size() >= options_.batch_max || options_.batch_window_seconds <= 0) {
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

  JobHandle handle = pool_->submit_cancellable(
      [batch, inflight, cache, segment, reuse](const util::CancelToken& token) {
        obs::count("svc.queue.dequeued", batch->entries.size());
        for (Batch::Entry& entry : batch->entries)
          entry.slot->queue_seconds = entry.queued.elapsed_seconds();
        if (!batch->optimize || !batch->abstract)
          obs::count("svc.cache_bypassed", batch->entries.size());

        // One shared session over the batch's distinct request fingerprints:
        // members carrying the same one share its property. The hook gives
        // each property its store lookup (and ReuseHook carry-over)
        // before any engine runs, and offers fresh outcomes back; for the
        // escape-hatch flags the session skips the lookup and only refreshes.
        std::vector<std::size_t> property_of(batch->entries.size());
        core::SessionResult result;
        std::string failure;
        try {
          core::Session session(*batch->system);
          std::unordered_map<Fingerprint, std::size_t, FingerprintHash> added;
          for (std::size_t i = 0; i < batch->entries.size(); ++i) {
            const Batch::Entry& entry = batch->entries[i];
            const auto [it, fresh] = added.try_emplace(entry.key, added.size());
            if (fresh) session.add_property("b" + std::to_string(i), entry.property);
            property_of[i] = it->second;
          }
          SessionCache hook(*cache, reuse, segment);
          core::SessionOptions so;
          so.engine = batch->engine;
          so.max_depth = batch->max_depth;
          so.deadline = batch->deadline.with_cancel(token);
          so.cache = &hook;
          so.optimize = batch->optimize;
          so.abstract = batch->abstract;
          result = session.check_all(so);
        } catch (const std::exception& error) {
          failure = error.what();
        }

        // Fill EVERY slot before signalling ANY member: a member's
        // CheckRequest borrow only keeps *batch->system alive until that
        // member's own completion, so once the first mark_done/on_complete
        // fires, nothing shared (system, session result, hook) may be read
        // on behalf of later members. The first member carrying a property
        // reports how the session served it; its twins ran no engine.
        std::vector<char> served(result.properties.size(), 0);
        for (std::size_t i = 0; i < batch->entries.size(); ++i) {
          Batch::Entry& entry = batch->entries[i];
          if (!failure.empty()) {
            entry.slot->outcome = failed_outcome(failure);
            continue;
          }
          const core::PropertyVerdict& verdict = result.properties[property_of[i]];
          entry.slot->outcome = verdict.outcome;
          entry.slot->cache_hit = verdict.cache_hit || served[property_of[i]] != 0;
          served[property_of[i]] = 1;
        }
        for (Batch::Entry& entry : batch->entries) {
          // The callback fires before this member stops counting toward
          // `active`, so drain() doubles as a completion-callback fence; and
          // wait() returns only after it stopped counting, so a caller's next
          // submit finds the admission slot free.
          if (entry.on_complete) entry.on_complete();
          {
            std::lock_guard<std::mutex> lock(inflight->mu);
            --inflight->active;
          }
          inflight->cv.notify_all();
          entry.member->mark_done();
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
  {
    std::unique_lock<std::mutex> lock(inflight_->mu);
    inflight_->cv.wait(lock, [this] { return inflight_->active == 0; });
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
  std::lock_guard<std::mutex> lock(batcher_->mu);
  return batcher_->batches_formed;
}

std::uint64_t Service::batched_requests() const {
  std::lock_guard<std::mutex> lock(batcher_->mu);
  return batcher_->batched_requests;
}

std::optional<core::CheckOutcome> SessionCache::lookup(
    const ts::TransitionSystem& system, const ltl::Formula& property,
    core::Engine engine, int max_depth, const util::Deadline& deadline) {
  const auto rehydrate = [](const CachedVerdict& v) {
    std::optional<core::CheckOutcome> outcome = outcome_from_cached(v);
    // A fingerprint match whose trace names variables this process does not
    // know should not happen; recompute rather than serve a trace-less
    // kViolated.
    if (!outcome) obs::count("svc.rehydrate_failed");
    return outcome;
  };
  const Fingerprint key = fingerprint_request(system, property, engine, max_depth);
  const StoreTiers store{&cache_, segment_};
  if (std::optional<CachedVerdict> held = store.lookup(key)) return rehydrate(*held);
  if (reuse_ != nullptr) {
    // Exact miss: a previous model version may still answer (svc/reuse.h).
    // Carried verdicts are stored under this request's fingerprint, segment
    // included, so the next identical lookup — after a restart too — is an
    // exact hit.
    if (std::optional<CachedVerdict> carried =
            reuse_->try_reuse(system, property, engine, max_depth, deadline)) {
      std::optional<core::CheckOutcome> outcome = rehydrate(*carried);
      if (outcome) store.store(key, std::move(*carried));
      return outcome;
    }
  }
  return std::nullopt;
}

void SessionCache::store(const ts::TransitionSystem& system,
                         const ltl::Formula& property, core::Engine engine,
                         int max_depth, const core::CheckOutcome& outcome) {
  const Fingerprint key = fingerprint_request(system, property, engine, max_depth);
  StoreTiers{&cache_, segment_}.store(
      key, reuse_ != nullptr ? reuse_->record(system, property, engine, max_depth, outcome)
                             : cached_from_outcome(outcome));
}

}  // namespace verdict::svc
