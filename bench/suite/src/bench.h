// verdict-bench: the committed benchmark behind BENCHMARK.json.
//
// Four named workloads with known-answer verdicts. A run measures one
// workload end to end with tracing off; `--trace 1` instead reruns it as an
// untraced and a traced half and reports the per-layer split. Every workload
// body runs in a forked child under a watchdog, so a hung engine costs its
// unfinished instances, not the run. README.md in this directory is the
// reference for the workloads, the metrics and the layer map.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace vbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string out;       // --out FILE: the full result document
  std::string verdictd;  // daemon binary driven by svc_mix
  std::string work_dir;  // sockets and segment files of svc_mix
};

/// One measured unit: an instance pass (paper workloads) or one request
/// (svc_mix, where `instance` is the request class).
struct Row {
  std::string instance;
  int pass = 0;
  std::string expected;  // the known answer
  std::string verdict;   // what the program said
  bool decided = false;  // holds or violated within budget, for every property
  bool wrong = false;    // differs from the known answer, or a replay failed
  double wall_s = 0.0;   // the public entry call (svc_mix: due time to answer)
  double setup_s = 0.0;  // scenario build for this instance
  double confirm_s = 0.0;  // core::confirm_counterexample on its violations
  double late_s = 0.0;     // svc_mix: how late the load generator sent it
  /// Traced rows: layer seconds and counter deltas (layers.h names).
  std::map<std::string, double> layers;
};

/// A child's report channel: newline-terminated JSON lines on a pipe.
class Reporter {
 public:
  explicit Reporter(int fd) : fd_(fd) {}
  /// Announces `units` about to be attempted; the ones never reported back
  /// (the watchdog fired) count as attempted, undecided and failed.
  void plan(std::size_t units);
  void row(const Row& row);
  /// One set-up measurement (a pass's scenario builds, or a daemon start).
  void setup(double seconds);
  /// A workload-level number (daemon peak RSS, svc layer means, ...).
  void value(const std::string& name, double v);

 private:
  void line(const std::string& text);
  int fd_;
};

/// What the parent collected from one child.
struct ChildReport {
  std::vector<Row> rows;
  std::vector<double> setups;
  std::map<std::string, double> values;
  std::size_t planned = 0;
  bool killed = false;
  bool exited_ok = false;
};

/// A workload body: runs for about `seconds`, reporting through `out`.
using WorkloadBody =
    std::function<void(const Options&, double seconds, bool traced, Reporter& out)>;

[[nodiscard]] const std::vector<std::string>& workload_names();
/// The body of a named workload, or nullptr.
[[nodiscard]] WorkloadBody workload_body(const std::string& name);

void run_paper_workload(const Options& options, double seconds, bool traced,
                        Reporter& out);
void run_svc_mix(const Options& options, double seconds, bool traced, Reporter& out);

/// Forks a child in its own process group that runs `body`, collecting its
/// report. The group is SIGKILLed `kill_after_s` after the start; returns
/// once every process of the group has been reaped.
[[nodiscard]] ChildReport run_child(const std::function<void(Reporter&)>& body,
                                    double kill_after_s);

// --- results -----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;  // false: per-layer, printed by a traced run
};

/// Every metric of the contract line, in report order (BENCHMARK.json lists
/// the same names).
[[nodiscard]] const std::vector<MetricDef>& metric_defs();

struct RunResult {
  Options options;
  std::vector<Row> rows;  // untraced rows, then traced ones
  std::map<std::string, double> metrics;      // contract metrics
  std::map<std::string, double> diagnostics;  // everything else measured
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // undecided, wrong, or never finished
  std::uint64_t wrong = 0;
  bool killed = false;
  [[nodiscard]] bool correct() const { return wrong == 0; }
};

/// Turns the child reports into metrics. `traced` is null for an untraced run.
[[nodiscard]] RunResult summarize(const Options& options, const ChildReport& untraced,
                                  const ChildReport* traced);

/// The --out document: options, provenance, metrics, diagnostics and rows.
[[nodiscard]] std::string result_document(const RunResult& result);
/// The contract line: {"correct","attempted","failed","metrics"}.
[[nodiscard]] std::string summary_line(const RunResult& result);
/// One row per instance (per class for svc_mix), then every metric with unit.
void print_report(const RunResult& result);

// --- statistics --------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double geomean(const std::vector<double>& values);

}  // namespace vbench
