// Per-layer accounting of traced calls, measured from outside the program.
//
// The program already emits spans at some layer boundaries: "opt.pipeline"
// (with its duration), "engine.finish" from BMC, k-induction and PDR (with
// the run's seconds) and "smt.check" (with the query's seconds). A
// LayerCapture installs an obs::TraceSink, turns those events back into time
// intervals and takes obs::counters_snapshot() deltas. The benchmark times
// each public entry call itself; the part of that wall time no span covers is
// attributed by these rules:
//
//   every entry: the uncovered tail after the last engine span is that
//           engine's teardown (its solvers are destroyed after the span).
//   kCheck  core::check. With the abs pass engaged (abs.vars_collapsed moved),
//           the uncovered time before the first engine span is symmetry
//           detection and the quotient build, and solver queries outside
//           every engine and the optimizer are the quotient's threshold
//           validations; both are abs.abstract_s. Gaps between engine spans
//           (CEGAR steps, the teardown of an earlier engine) stay
//           unattributed.
//   kSynth  synthesize_params: uncovered time is the candidate loop and its
//           trace replay (synth.self_s).
//   kBmc, kLasso, kL2s, kBdd: the entry is the engine; its wall is that
//           engine's.
//
// Attributed time over entry wall time is trace.coverage.
#pragma once

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace vbench {

enum class Entry { kCheck, kBmc, kSynth, kLasso, kL2s, kBdd };

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Sorted, disjoint union of `in`.
[[nodiscard]] std::vector<Interval> merged(std::vector<Interval> in);
/// Total length of a disjoint union.
[[nodiscard]] double total(const std::vector<Interval>& disjoint);
/// Length of [start, end] inside the disjoint union `cover`.
[[nodiscard]] double covered(double start, double end, const std::vector<Interval>& cover);

class LayerCapture {
 public:
  /// Installs the sink and snapshots the counters.
  LayerCapture();
  ~LayerCapture();

  LayerCapture(const LayerCapture&) = delete;
  LayerCapture& operator=(const LayerCapture&) = delete;

  /// Seconds on the sink's clock (the "ts" of every event).
  [[nodiscard]] double now() const { return sink_.now(); }

  /// Uninstalls the sink and returns layer seconds and counter deltas for
  /// the entry call that ran from `t0` to `t1` (sink clock), plus
  /// "trace.wall_s" and "trace.attributed_s".
  [[nodiscard]] std::map<std::string, double> finish(Entry entry, double t0, double t1);

  /// Uninstalls the sink and returns layer seconds and counter deltas over a
  /// whole window with concurrent calls (svc_mix replay). `cover` receives
  /// the union of every span, for per-request attribution.
  [[nodiscard]] std::map<std::string, double> finish_window(std::vector<Interval>& cover);

 private:
  struct Spans {
    std::vector<Interval> opt, engine, smt;
    std::map<std::string, double> seconds;  // per layer metric
  };
  [[nodiscard]] Spans collect(double t0, double t1);
  [[nodiscard]] std::map<std::string, double> counter_deltas() const;
  void uninstall();

  std::ostringstream events_;
  verdict::obs::TraceSink sink_;
  std::map<std::string, std::uint64_t> before_;
  bool installed_ = false;
};

}  // namespace vbench
