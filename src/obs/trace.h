// Structured engine tracing: an NDJSON event stream + a uniform counter
// registry.
//
// The verdict engines answer *what* (verdict, trace) but not *why this fast
// or slow*: where solver time went per frame, how many proof obligations PDR
// chewed through. The TraceSink is the one place those structured events go —
// every engine, the session scheduler, the reduction stage and the SMT
// backend emit through it, and `verdictc --trace-out`
// / tools/verdict-report consume it (schema: docs/observability.md).
//
// Cost model: tracing is OFF by default and must stay invisible to the
// benches when off. The only always-on cost is one relaxed atomic load
// (obs::sink() returning nullptr); attribute formatting happens strictly
// after that check:
//
//   if (obs::TraceSink* s = obs::sink())
//     s->event("pdr.frame").attr("frame", n).attr("lemmas", lemmas).emit();
//
// Thread-safety: events are formatted into a thread-local-free local buffer
// and appended under one mutex, so concurrent service batches on pool
// workers interleave whole lines, never bytes (asserted under TSan by
// tests/obs_test.cpp).
//
// Counters: obs::count(name, delta) bumps a process-global named counter
// (e.g. "smt.checks", "pdr.obligations"). Counters are always on — they are
// plain relaxed atomics — and are snapshotted into `verdictc --stats-json`
// output, giving Stats-style accounting a uniform, extensible registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "util/stopwatch.h"

namespace verdict::obs {

class TraceSink;

namespace detail {
extern std::atomic<TraceSink*> g_sink;
}  // namespace detail

/// The installed sink, or nullptr when tracing is disabled. This is the
/// near-zero-cost gate: one relaxed load, no branch taken on the hot path.
[[nodiscard]] inline TraceSink* sink() {
  return detail::g_sink.load(std::memory_order_acquire);
}

/// Installs (or, with nullptr, removes) the process-wide sink. The caller
/// keeps ownership and must uninstall before destroying the sink. Not
/// intended for concurrent install/uninstall — install once up front
/// (verdictc does it before checking starts).
void set_sink(TraceSink* s);

/// One event under construction. Attributes append to a local buffer; emit()
/// hands the finished line to the sink. Build-and-emit in one expression.
class EventBuilder {
 public:
  EventBuilder(TraceSink& sink, std::string_view type);

  EventBuilder& attr(std::string_view key, std::string_view v);
  EventBuilder& attr(std::string_view key, const char* v) {
    return attr(key, std::string_view(v));
  }
  EventBuilder& attr(std::string_view key, const std::string& v) {
    return attr(key, std::string_view(v));
  }
  EventBuilder& attr(std::string_view key, bool v);
  EventBuilder& attr(std::string_view key, std::int64_t v);
  EventBuilder& attr(std::string_view key, int v) {
    return attr(key, static_cast<std::int64_t>(v));
  }
  EventBuilder& attr(std::string_view key, std::size_t v) {
    return attr(key, static_cast<std::int64_t>(v));
  }
  EventBuilder& attr(std::string_view key, double v);

  /// Finishes the line and appends it to the sink. An EventBuilder that is
  /// never emitted writes nothing.
  void emit();

 private:
  TraceSink& sink_;
  std::string line_;
};

/// Thread-safe NDJSON event sink. Every line is one JSON object with at
/// least {"ts": seconds-since-sink-creation, "type": "..."}; see
/// docs/observability.md for the per-type attribute schema.
class TraceSink {
 public:
  /// Writes to `out` (not owned; must outlive the sink or be detached by
  /// set_sink(nullptr) + destruction order).
  explicit TraceSink(std::ostream& out);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Opens `path` for writing and returns a sink that owns the stream.
  /// Throws std::runtime_error when the file cannot be opened.
  static std::unique_ptr<TraceSink> open_file(const std::string& path);

  /// Starts an event of the given type (schema name, e.g. "pdr.frame").
  [[nodiscard]] EventBuilder event(std::string_view type) {
    return EventBuilder(*this, type);
  }

  /// Seconds since the sink was created (the "ts" field of every event).
  [[nodiscard]] double now() const { return watch_.elapsed_seconds(); }

  [[nodiscard]] std::size_t events_emitted() const {
    return events_.load(std::memory_order_relaxed);
  }

  void flush();

 private:
  friend class EventBuilder;
  friend class Span;
  void write_line(const std::string& line);

  util::Stopwatch watch_;
  std::mutex mu_;
  std::ostream* out_;
  std::unique_ptr<std::ostream> owned_;
  std::atomic<std::size_t> events_{0};
};

/// RAII span: captures a start timestamp and emits ONE event on close() /
/// destruction with a "dur" attribute (seconds). Construction is free when
/// tracing is disabled; attributes added via attr() are dropped in that case.
///
///   obs::Span span("engine.run");
///   span.attr("engine", "bmc");
///   ...                       // work
///   // destructor emits {"type":"engine.run","dur":...,"engine":"bmc"}
class Span {
 public:
  explicit Span(std::string_view type);
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span& attr(std::string_view key, std::string_view v);
  Span& attr(std::string_view key, const char* v) {
    return attr(key, std::string_view(v));
  }
  Span& attr(std::string_view key, const std::string& v) {
    return attr(key, std::string_view(v));
  }
  Span& attr(std::string_view key, std::int64_t v);
  Span& attr(std::string_view key, int v) {
    return attr(key, static_cast<std::int64_t>(v));
  }
  Span& attr(std::string_view key, std::size_t v) {
    return attr(key, static_cast<std::int64_t>(v));
  }
  Span& attr(std::string_view key, double v);

  /// Emits the span event now (idempotent; the destructor becomes a no-op).
  void close();

 private:
  TraceSink* sink_;  // captured at construction; nullptr = disabled
  double start_ = 0.0;
  std::string type_;
  std::string attrs_;  // pre-rendered ",\"k\":v" fragments
};

// --- Counter registry --------------------------------------------------------

/// Bumps the named process-global counter. Hot-path safe: after the first
/// lookup callers should cache the returned reference via counter().
void count(std::string_view name, std::uint64_t delta = 1);

/// The counter cell itself, for hot paths that bump in a loop.
std::atomic<std::uint64_t>& counter(std::string_view name);

/// Snapshot of every registered counter (name -> value), sorted by name.
[[nodiscard]] std::map<std::string, std::uint64_t> counters_snapshot();

/// Resets every registered counter to zero (tests; verdictc does NOT reset,
/// so a stats export covers the whole process run).
void reset_counters();

}  // namespace verdict::obs
