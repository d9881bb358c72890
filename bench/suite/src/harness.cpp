// Child processes under the watchdog, the metric catalogue, result documents
// and the statistics every report uses.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "obs/json.h"
#include "smt/solver.h"
#include "util/stopwatch.h"
#include "util/version.h"

namespace vbench {

using verdict::obs::JsonValue;
using verdict::obs::JsonWriter;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig6_violation", "fig6_proof",
                                                 "liveness_synth", "svc_mix"};
  return names;
}

WorkloadBody workload_body(const std::string& name) {
  if (name == "svc_mix") return run_svc_mix;
  for (const std::string& known : workload_names())
    if (name == known) return run_paper_workload;
  return nullptr;
}

// --- the report channel ----------------------------------------------------------

void Reporter::line(const std::string& text) {
  const std::string data = text + "\n";
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // the parent is gone; nobody is left to report to
    }
    off += static_cast<std::size_t>(n);
  }
}

void Reporter::plan(std::size_t units) {
  JsonWriter w;
  w.begin_object();
  w.kv("plan", units);
  w.end_object();
  line(w.str());
}

void Reporter::setup(double seconds) {
  JsonWriter w;
  w.begin_object();
  w.kv("setup", seconds);
  w.end_object();
  line(w.str());
}

void Reporter::value(const std::string& name, double v) {
  JsonWriter w;
  w.begin_object();
  w.kv("value", name);
  w.kv("v", v);
  w.end_object();
  line(w.str());
}

namespace {

void write_row(JsonWriter& w, const Row& row) {
  w.begin_object();
  w.kv("instance", row.instance);
  w.kv("pass", row.pass);
  w.kv("expected", row.expected);
  w.kv("verdict", row.verdict);
  w.kv("decided", row.decided);
  w.kv("wrong", row.wrong);
  w.kv("wall_s", row.wall_s);
  w.kv("setup_s", row.setup_s);
  w.kv("confirm_s", row.confirm_s);
  w.kv("late_s", row.late_s);
  if (!row.layers.empty()) {
    w.key("layers");
    w.begin_object();
    for (const auto& [name, value] : row.layers) w.kv(name, value);
    w.end_object();
  }
  w.end_object();
}

Row read_row(const JsonValue& v) {
  Row row;
  row.instance = v["instance"].string;
  row.pass = static_cast<int>(v["pass"].number);
  row.expected = v["expected"].string;
  row.verdict = v["verdict"].string;
  row.decided = v["decided"].boolean;
  row.wrong = v["wrong"].boolean;
  row.wall_s = v["wall_s"].number;
  row.setup_s = v["setup_s"].number;
  row.confirm_s = v["confirm_s"].number;
  row.late_s = v["late_s"].number;
  for (const auto& [name, value] : v["layers"].object) row.layers[name] = value.number;
  return row;
}

}  // namespace

void Reporter::row(const Row& row) {
  JsonWriter w;
  w.begin_object();
  w.key("row");
  write_row(w, row);
  w.end_object();
  line(w.str());
}

// --- child processes ---------------------------------------------------------------

namespace {

void absorb(ChildReport& report, const std::string& line) {
  const JsonValue v = verdict::obs::parse_json(line);
  if (v.has("row")) {
    report.rows.push_back(read_row(v["row"]));
  } else if (v.has("plan")) {
    report.planned += static_cast<std::size_t>(v["plan"].number);
  } else if (v.has("setup")) {
    report.setups.push_back(v["setup"].number);
  } else if (v.has("value")) {
    report.values[v["value"].string] = v["v"].number;
  }
}

}  // namespace

ChildReport run_child(const std::function<void(Reporter&)>& body, double kill_after_s) {
  // A daemon orphaned by a killed child is reparented here, so this process
  // can reap everything it started.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    ::setpgid(0, 0);
    // Only the parent writes to stdout: its last line is the result.
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    int code = 0;
    try {
      Reporter out(fds[1]);
      body(out);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "verdict-bench: %s\n", error.what());
      code = 3;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(code);
  }
  ::setpgid(pid, pid);  // from both sides, so the group kill below never misses
  ::close(fds[1]);

  ChildReport report;
  verdict::util::Stopwatch watch;
  std::string pending;
  char buf[65536];
  for (;;) {
    const double left = kill_after_s - watch.elapsed_seconds();
    if (left <= 0) {
      report.killed = true;
      ::kill(-pid, SIGKILL);
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(std::min(left, 1.0) * 1000.0) + 1);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // end of file: the child exited
    pending.append(buf, static_cast<std::size_t>(n));
    for (std::size_t nl; (nl = pending.find('\n')) != std::string::npos;) {
      absorb(report, pending.substr(0, nl));
      pending.erase(0, nl + 1);
    }
  }
  ::close(fds[0]);

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  report.exited_ok = !report.killed && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  // Whatever the child left behind is in its group, or was reparented here.
  ::kill(-pid, SIGKILL);
  while (::waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
  }
  return report;
}

// --- metrics -------------------------------------------------------------------------

const std::vector<MetricDef>& metric_defs() {
  static const std::vector<MetricDef> defs = {
      {"verdict_s", "s", true},
      {"verdict_geomean_ms", "ms", true},
      {"setup_s", "s", true},
      {"peak_rss_mb", "MB", true},
      // Per layer. Seconds only for layers every workload runs; the time of
      // the others is a share of the traced wall time (zero where absent).
      // abs
      {"abs.abstract_share", "ratio", false},
      {"abs.vars_collapsed", "count", false},
      {"abs.cegar_refinements", "count", false},
      {"abs.spurious_traces", "count", false},
      {"abs.fallback_concrete", "count", false},
      {"abs.useful_ratio", "ratio", false},
      // smt / enc
      {"smt.solve_s", "s", false},
      {"smt.checks", "count", false},
      {"smt.solvers_created", "count", false},
      {"smt.translate_memo.hit_ratio", "ratio", false},
      {"enc.encode_share", "ratio", false},
      // opt
      {"opt.pipeline_s", "s", false},
      {"opt.vars_removed", "count", false},
      {"opt.nodes_folded", "count", false},
      // core engines
      {"engine.run_share", "ratio", false},
      {"engine.bmc_share", "ratio", false},
      {"engine.kinduction_share", "ratio", false},
      {"engine.pdr_share", "ratio", false},
      {"engine.lasso_share", "ratio", false},
      {"engine.l2s_share", "ratio", false},
      {"pdr.obligations", "count", false},
      {"replay.confirm_share", "ratio", false},
      {"synth.self_share", "ratio", false},
      {"synth.candidates", "count", false},
      {"synth.pruned_by_replay", "count", false},
      {"session.shared_kind_checks", "count", false},
      {"session.shared_bmc_checks", "count", false},
      // bdd
      {"bdd.share", "ratio", false},
      {"bdd.reorder.runs", "count", false},
      {"bdd.reorder.swaps", "count", false},
      {"bdd.index.hits", "count", false},
      // svc / mdl / inc
      {"svc.frontend_share", "ratio", false},
      {"svc.queue_share", "ratio", false},
      {"svc.batch_size_mean", "count", false},
      {"svc.cache.hit_ratio", "ratio", false},
      {"svc.segment.append", "count", false},
      {"svc.rejected", "count", false},
      {"inc.properties_reused", "count", false},
      {"inc.invariants_revalidated", "count", false},
      {"inc.revalidation_failed", "count", false},
      {"inc.cex_replayed", "count", false},
      {"inc.reuse_ratio", "ratio", false},
      // the trace itself
      {"trace.coverage", "ratio", false},
      {"trace.overhead", "ratio", false},
  };
  return defs;
}

namespace {

bool is_svc(const Options& o) { return o.workload == "svc_mix"; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Time to verdict per unit: the 10th percentile (nearest rank) of its
/// samples, the passes of an instance or the requests of a class (svc_mix).
/// Not the median: on a shared VM the median of a run's samples moves by
/// ~20% with the neighbours' load, the fast end of the distribution by ~4%
/// (README.md). Set-up requests are no unit.
std::map<std::string, double> unit_times(const std::vector<Row>& rows) {
  std::map<std::string, std::vector<double>> walls;
  for (const Row& row : rows)
    if (row.decided && !row.wrong && row.instance != "warmup")
      walls[row.instance].push_back(row.wall_s);
  std::map<std::string, double> out;
  for (const auto& [unit, values] : walls) out[unit] = percentile(values, 0.10);
  return out;
}

struct Totals {
  double verdict_s = 0.0;
  double geomean_ms = 0.0;
};

Totals totals(const std::vector<Row>& rows) {
  Totals t;
  std::vector<double> times;
  for (const auto& [unit, seconds] : unit_times(rows)) {
    t.verdict_s += seconds;
    times.push_back(seconds);
  }
  t.geomean_ms = 1e3 * geomean(times);
  return t;
}

void count_outcomes(const ChildReport& report, RunResult& result) {
  const std::uint64_t rows = report.rows.size();
  const std::uint64_t planned = std::max<std::uint64_t>(report.planned, rows);
  std::uint64_t bad = planned - rows;  // never reported: the watchdog fired
  for (const Row& row : report.rows) {
    if (row.wrong) ++result.wrong;
    if (!row.decided || row.wrong) ++bad;
  }
  result.attempted += planned;
  result.failed += bad;
  result.killed = result.killed || report.killed;
}

void end_to_end(const Options& options, const ChildReport& report, RunResult& result) {
  const Totals t = totals(report.rows);
  result.metrics["verdict_s"] = t.verdict_s;
  result.metrics["verdict_geomean_ms"] = t.geomean_ms;
  result.metrics["setup_s"] = median(report.setups);
  const auto rss = report.values.find("peak_rss_mb");
  result.metrics["peak_rss_mb"] = rss == report.values.end() ? 0.0 : rss->second;

  // Called before the traced child is counted: these describe the untraced.
  auto& d = result.diagnostics;
  double decided = 0.0;
  for (const Row& row : report.rows) decided += row.decided ? 1.0 : 0.0;
  const auto attempted = static_cast<double>(result.attempted);
  d["decided_frac"] = ratio(decided, attempted);
  d["failed_frac"] = ratio(static_cast<double>(result.failed), attempted);
  d["wrong_verdicts"] = static_cast<double>(result.wrong);
  for (const auto& [unit, seconds] : unit_times(report.rows)) d["unit_ms." + unit] = 1e3 * seconds;
  if (!is_svc(options)) return;
  std::map<std::string, std::vector<double>> by_class;
  std::vector<double> late;
  for (const Row& row : report.rows) {
    if (row.instance == "warmup") continue;
    late.push_back(row.late_s);
    if (row.decided && !row.wrong) by_class[row.instance].push_back(row.wall_s);
  }
  for (const auto& [cls, walls] : by_class) {
    d[cls + "_p50_ms"] = 1e3 * percentile(walls, 0.50);
    d[cls + "_p90_ms"] = 1e3 * percentile(walls, 0.90);
    d[cls + "_p99_ms"] = 1e3 * percentile(walls, 0.99);
    d[cls + "_samples"] = static_cast<double>(walls.size());
  }
  d["loadgen.late_ms_p99"] = 1e3 * percentile(late, 0.99);
}

void per_layer(const Options& options, const ChildReport& untraced, const ChildReport& traced,
               RunResult& result) {
  std::map<std::string, double> sum;
  std::set<int> passes;
  double confirm = 0.0;
  double edit_properties = 0.0;
  for (const Row& row : traced.rows) {
    for (const auto& [name, value] : row.layers) sum[name] += value;
    passes.insert(row.pass);
    confirm += row.confirm_s;
    if (row.instance == "edit") edit_properties += static_cast<double>(row.expected.size());
  }
  for (const auto& [name, value] : traced.values) sum[name] += value;
  const double wall = sum["trace.wall_s"];
  // Paper workloads report per pass of the instance list; svc_mix per replay.
  const double scale =
      is_svc(options) ? 1.0 : 1.0 / static_cast<double>(std::max<std::size_t>(passes.size(), 1));
  auto& m = result.metrics;
  const auto get = [&](const std::string& name) {
    const auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second;
  };
  for (const char* count :
       {"abs.vars_collapsed", "abs.cegar_refinements", "abs.spurious_traces",
        "abs.fallback_concrete", "smt.checks", "smt.solvers_created", "opt.vars_removed",
        "opt.nodes_folded", "pdr.obligations", "synth.candidates", "synth.pruned_by_replay",
        "session.shared_kind_checks", "session.shared_bmc_checks", "bdd.reorder.runs",
        "bdd.reorder.swaps", "bdd.index.hits", "svc.segment.append", "svc.rejected",
        "inc.properties_reused", "inc.invariants_revalidated", "inc.revalidation_failed",
        "inc.cex_replayed"})
    m[count] = scale * get(count);
  for (const char* seconds : {"smt.solve_s", "opt.pipeline_s"}) m[seconds] = scale * get(seconds);
  m["abs.abstract_share"] = ratio(get("abs.abstract_s"), wall);
  m["abs.useful_ratio"] = ratio(get("abs.useful"), get("abs.attempts"));
  const double memo_hits = get("smt.translate_memo.hit");
  m["smt.translate_memo.hit_ratio"] = ratio(memo_hits, memo_hits + get("smt.translate_memo.miss"));
  m["enc.encode_share"] = ratio(get("enc.encode_s"), wall);
  m["engine.run_share"] = ratio(get("engine.run_s"), wall);
  for (const char* engine : {"bmc", "kinduction", "pdr", "lasso", "l2s"})
    m[std::string("engine.") + engine + "_share"] =
        ratio(get(std::string("engine.run_s.") + engine), wall);
  m["replay.confirm_share"] = ratio(confirm, wall);
  m["synth.self_share"] = ratio(get("synth.self_s"), wall);
  m["bdd.share"] = ratio(get("bdd.run_s"), wall);
  m["svc.frontend_share"] = ratio(get("svc.frontend_s"), wall);
  m["svc.queue_share"] = ratio(get("svc.queue_s"), wall);
  m["svc.batch_size_mean"] = ratio(get("svc.batch_size"), get("svc.batches_formed"));
  m["svc.cache.hit_ratio"] =
      ratio(get("svc.cache.hit"), get("svc.cache.hit") + get("svc.cache.miss"));
  m["inc.reuse_ratio"] = ratio(get("inc.properties_reused"), edit_properties);
  m["trace.coverage"] = ratio(get("trace.attributed_s"), wall);
  const double untraced_s = totals(untraced.rows).verdict_s;
  m["trace.overhead"] = ratio(totals(traced.rows).verdict_s, untraced_s) - 1.0;

  for (const auto& [name, value] : sum)
    if (!m.count(name)) result.diagnostics["layer." + name] = scale * value;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) return line.substr(colon + 2);
  }
  return "unknown";
}

void write_metrics(JsonWriter& w, const std::map<std::string, double>& values,
                   bool end_to_end) {
  w.begin_object();
  for (const MetricDef& d : metric_defs()) {
    if (d.end_to_end != end_to_end) continue;
    const auto it = values.find(d.name);
    w.key(d.name);
    w.begin_object();
    w.kv("value", it == values.end() ? 0.0 : it->second);
    w.kv("unit", d.unit);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

RunResult summarize(const Options& options, const ChildReport& untraced,
                    const ChildReport* traced) {
  RunResult result;
  result.options = options;
  result.rows = untraced.rows;
  count_outcomes(untraced, result);
  end_to_end(options, untraced, result);
  if (traced != nullptr) {
    result.rows.insert(result.rows.end(), traced->rows.begin(), traced->rows.end());
    count_outcomes(*traced, result);
    per_layer(options, untraced, *traced, result);
  }
  return result;
}

std::string result_document(const RunResult& result) {
  const Options& o = result.options;
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "verdict-bench-result-v1");
  w.kv("workload", o.workload);
  w.kv("seed", static_cast<std::int64_t>(o.seed));
  w.kv("seconds", o.seconds);
  w.kv("trace", o.trace);
  w.key("provenance");
  w.begin_object();
  w.kv("git_sha", verdict::util::kGitSha);
  w.kv("build_type", verdict::util::kBuildType);
  w.kv("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.kv("cpu_model", cpu_model());
  w.kv("z3_version", verdict::smt::z3_version());
  w.end_object();
  w.kv("correct", result.correct());
  w.kv("attempted", static_cast<std::int64_t>(result.attempted));
  w.kv("failed", static_cast<std::int64_t>(result.failed));
  w.kv("wrong_verdicts", static_cast<std::int64_t>(result.wrong));
  w.kv("watchdog_fired", result.killed);
  w.key("end_to_end");
  write_metrics(w, result.metrics, true);
  if (o.trace) {
    w.key("per_layer");
    write_metrics(w, result.metrics, false);
  }
  w.key("diagnostics");
  w.begin_object();
  for (const auto& [name, value] : result.diagnostics) w.kv(name, value);
  w.end_object();
  w.key("rows");
  w.begin_array();
  for (const Row& row : result.rows) write_row(w, row);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string summary_line(const RunResult& result) {
  JsonWriter w;
  w.begin_object();
  w.kv("correct", result.correct());
  w.kv("attempted", static_cast<std::int64_t>(std::max<std::uint64_t>(result.attempted, 1)));
  w.kv("failed", static_cast<std::int64_t>(result.failed));
  w.key("metrics");
  write_metrics(w, result.metrics, !result.options.trace);
  w.end_object();
  return w.str();
}

void print_report(const RunResult& result) {
  const Options& o = result.options;
  std::printf("verdict-bench %s  seed %llu  %.0fs  trace %d  (%s %s, Z3 %s, %u cpus)\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, std::string(verdict::util::kGitSha).c_str(),
              std::string(verdict::util::kBuildType).c_str(),
              verdict::smt::z3_version().c_str(), std::thread::hardware_concurrency());
  // svc_mix has hundreds of requests: only the failed ones get a row.
  std::printf("  %-18s %4s %-22s %-22s %9s %9s\n", "instance", "pass", "expected", "verdict",
              "wall_s", "setup_s");
  for (const Row& row : result.rows)
    if (!is_svc(o) || !row.decided || row.wrong)
      std::printf("  %-18s %4d %-22s %-22s %9.4f %9.4f%s%s\n", row.instance.c_str(), row.pass,
                  row.expected.c_str(), row.verdict.c_str(), row.wall_s, row.setup_s,
                  row.layers.empty() ? "" : "  traced", row.wrong ? "  WRONG" : "");
  for (const MetricDef& d : metric_defs()) {
    const auto it = result.metrics.find(d.name);
    if (it != result.metrics.end())
      std::printf("  %-30s %14.6f %s%s\n", d.name, it->second, d.unit,
                  d.end_to_end ? "" : "  (per layer)");
  }
  for (const auto& [name, value] : result.diagnostics)
    std::printf("  %-30s %14.6f  (diagnostic)\n", name.c_str(), value);
  std::printf("  attempted %llu  failed %llu  wrong %llu%s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.wrong),
              result.killed ? "  (the watchdog fired)" : "");
}

// --- statistics --------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace vbench
