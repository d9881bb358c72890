// verdict-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--out FILE] [--verdictd PATH] [--work-dir DIR]
//
// Runs one workload and prints one row per instance, every metric with its
// unit, and as the last line of standard output the contract object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics, or
// with --trace 1 the per-layer ones. --trace 1 splits the time between an
// untraced and a traced child so that the overhead of tracing is measured
// too. Exit status: 0 when every decided verdict matches its known answer,
// 1 on a wrong verdict or a workload that could not run, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "usage: verdict-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                     [--out FILE] [--verdictd PATH] [--work-dir DIR]\n"
               "workloads:");
  for (const std::string& name : vbench::workload_names())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(code);
}

/// Set-up and the last pass run past the measured seconds; the watchdog
/// allows twice that before it kills the child.
constexpr double kSetupAllowance = 10.0;

}  // namespace

int main(int argc, char** argv) {
  vbench::Options options;
  options.verdictd = "build/tools/verdictd";
  options.work_dir = ".bench_build/tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      // "--trace" alone, or "--trace 0|1".
      options.trace = true;
      if (i + 1 < argc && (std::string(argv[i + 1]) == "0" || std::string(argv[i + 1]) == "1"))
        options.trace = value() == "1";
    } else if (arg == "--out") {
      options.out = value();
    } else if (arg == "--verdictd") {
      options.verdictd = value();
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::fprintf(stderr, "verdict-bench: unknown option '%s'\n", arg.c_str());
      usage(2);
    }
  }
  const vbench::WorkloadBody body = vbench::workload_body(options.workload);
  if (!body || options.seconds <= 0) usage(2);

  const auto child = [&](double seconds, bool traced) {
    return vbench::run_child(
        [&](vbench::Reporter& out) { body(options, seconds, traced, out); },
        2.0 * (seconds + kSetupAllowance));
  };
  vbench::ChildReport untraced;
  vbench::ChildReport traced;
  if (options.trace) {
    untraced = child(options.seconds / 2, false);
    traced = child(options.seconds / 2, true);
  } else {
    untraced = child(options.seconds, false);
  }
  const vbench::RunResult result =
      vbench::summarize(options, untraced, options.trace ? &traced : nullptr);

  vbench::print_report(result);
  if (!options.out.empty()) {
    std::ofstream out(options.out);
    out << vbench::result_document(result) << "\n";
    if (!out) std::fprintf(stderr, "verdict-bench: cannot write %s\n", options.out.c_str());
  }
  std::printf("%s\n", vbench::summary_line(result).c_str());
  const bool ran = (untraced.exited_ok || untraced.killed) &&
                   (!options.trace || traced.exited_ok || traced.killed);
  return result.correct() && ran ? 0 : 1;
}
