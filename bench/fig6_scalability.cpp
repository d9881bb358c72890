// Reproduces Fig. 6: "Performance results" — runtime of the case-study-1
// check across topologies (test, fattree4..16), separating the
// property-failure line (k set to the front-end's minimal cut) from the
// verification lines (k below the cut, where the property holds).
//
// Expected shape (the paper's findings, not its absolute numbers):
//   - finding a violation is orders of magnitude faster than verification;
//   - violation time grows exponentially with topology size;
//   - CONCRETE verification exceeds the budget well before fattree12, and at
//     fattree12 even the violation search times out ("the model checker
//     times out for any k on fattree12").
//
// The violation line is run twice: raw BMC (the paper's column) and through
// core::check with its defaults, which decides on the counting quotient and
// concretizes the abstract trace from its witness set (docs/abstraction.md).
// Every trace of the second run is replayed on the concrete system, and it
// must decide the test topology and fattree4..8 inside the budget (exit code);
// fattree10 and up are reported only.
//
// This bench additionally runs every verification point twice — once through
// the abs/ symmetry-reduction pass (docs/abstraction.md) and once with
// --no-abs semantics — and *enforces* the subsystem's reason to exist via the
// exit code: it must find at least one topology size where the abstracted
// check completes inside the budget while the concrete check does not. The
// fattree14/fattree16 rows (past the paper's exponential wall) are part of
// the full sweep.
//
// Defaults keep the sweep minutes-long: 10s per-check budget, fattree10 max.
// VERDICT_BENCH_TIMEOUT / VERDICT_BENCH_FULL=1 scale toward the paper's
// 1-hour budget and the full fattree12/14/16 sweep.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/bmc.h"
#include "core/checker.h"
#include "scenarios/rollout_partition.h"
#include "util/stopwatch.h"

namespace {

struct TopologyCase {
  std::string name;
  int fat_tree_k;  // 0 = the 5-node test topology
  std::int64_t failing_k;
  /// The quotient violation row must decide this topology in the budget.
  bool quotient_gated;
};

verdict::scenarios::RolloutPartitionScenario build(const TopologyCase& tc) {
  using namespace verdict;
  scenarios::RolloutPartitionOptions options;
  options.prefix = "fig6_" + tc.name;
  options.max_k = 8;
  if (tc.fat_tree_k == 0) return scenarios::make_test_scenario(options);
  return scenarios::make_fat_tree_scenario(tc.fat_tree_k, options);
}

}  // namespace

int main() {
  using namespace verdict;
  bench::header("Fig. 6 — scalability of case study 1 (runtime in seconds)");
  const double budget = bench::timeout_seconds();
  std::printf("per-check budget: %.0fs (VERDICT_BENCH_TIMEOUT to change; paper used 3600s)\n\n",
              budget);
  bench::JsonRows rows("fig6_scalability");

  std::vector<TopologyCase> cases = {
      {"test", 0, 2, true},     {"fattree4", 4, 2, true},    {"fattree6", 6, 3, true},
      {"fattree8", 8, 4, true}, {"fattree10", 10, 5, false},
  };
  if (bench::smoke()) cases.resize(1);
  if (bench::full_sweep()) {
    cases.push_back({"fattree12", 12, 6, false});
    cases.push_back({"fattree14", 14, 7, false});
    cases.push_back({"fattree16", 16, 8, false});
  }

  // The exit-code gate: the abstraction engine earns its keep only if some
  // topology size verifies through the counting quotient while the concrete
  // engines blow the same budget on the same point.
  bool gate_hit = false;
  // The quotient violation gate: every gated topology decides its cut point
  // through core::check with a trace that replays.
  bool quotient_gate = true;

  std::printf("%-10s %8s | %-26s | %-17s | %-8s %s\n", "topology", "n/links",
              "violation (k=cut)", "core::check", "mode",
              "verification k=0 / k=1 / ... (abs: every k below the cut; concrete: k<=2)");
  for (const TopologyCase& tc : cases) {
    const auto scenario = build(tc);
    std::printf("%-10s %3zu/%-4zu | ", tc.name.c_str(),
                scenario.link_up.size() ? scenario.system.vars().size() : 0,
                scenario.link_up.size());

    // --- Property-failure line: k = minimal front-end cut.
    {
      const auto system = bench::pinned(
          scenario.system, {{scenario.p, 1}, {scenario.k, tc.failing_k}, {scenario.m, 1}});
      core::BmcOptions options;
      options.max_depth = 30;
      options.deadline = util::Deadline::after_seconds(budget);
      const auto outcome =
          core::check_invariant_bmc(system, ltl::invariant_atom(scenario.property), options);
      const bool violated = outcome.verdict == core::Verdict::kViolated;
      if (violated) {
        std::printf("k=%ld %8.2fs (depth %2d)", static_cast<long>(tc.failing_k),
                    outcome.stats.seconds, outcome.stats.depth_reached);
      } else {
        std::printf("k=%ld  TIMEOUT >%5.0fs   ", static_cast<long>(tc.failing_k), budget);
      }
      rows.row([&](obs::JsonWriter& w) {
        w.kv("topology", tc.name);
        w.kv("mode", "violation");
        w.kv("k", tc.failing_k);
        w.kv("completed", violated);
        w.kv("seconds", outcome.stats.seconds);
      });

      // The same point through core::check's defaults (the quotient first),
      // timed by wall clock like the abs verification row.
      core::CheckOptions check;
      check.deadline = util::Deadline::after_seconds(budget);
      util::Stopwatch sw;
      const auto quotient = core::check(system, scenario.property, check);
      const double wall = sw.elapsed_seconds();
      std::string error;
      const bool decided = quotient.verdict == core::Verdict::kViolated;
      const bool replayed =
          decided && core::confirm_counterexample(system, scenario.property, quotient, &error);
      if (replayed) {
        std::printf(" | %7.2fs replayed", wall);
      } else if (decided) {
        std::printf(" | REPLAY FAILED    ");
      } else {
        std::printf(" | %-8s  >%5.0fs", core::verdict_name(quotient.verdict), budget);
      }
      if (tc.quotient_gated && !replayed) {
        quotient_gate = false;
        if (decided) std::fprintf(stderr, "%s: %s\n", tc.name.c_str(), error.c_str());
      }
      rows.row([&](obs::JsonWriter& w) {
        w.kv("topology", tc.name);
        w.kv("mode", "violation_check");
        w.kv("k", tc.failing_k);
        w.kv("completed", replayed);
        w.kv("seconds", wall);
      });
    }

    // --- Verification lines (property holds): the abstracted row covers
    // every k below the cut, k = 0..cut-1; the concrete row keeps the
    // paper's k in {0, 1, 2}. The concrete row is the paper's exponential
    // wall; the abstracted row is what this repo adds on top of it.
    std::vector<bool> abs_held(tc.failing_k, false);
    for (const bool abstracted : {true, false}) {
      if (abstracted)
        std::printf(" | %-8s ", "abs");
      else
        std::printf("%66s | %-8s ", "", "concrete");
      const std::int64_t k_end = abstracted ? tc.failing_k : 3;
      for (std::int64_t k = 0; k < k_end; ++k) {
        if (k >= tc.failing_k) {
          std::printf("   fails ");
          continue;
        }
        const auto system = bench::pinned(
            scenario.system, {{scenario.p, 1}, {scenario.k, k}, {scenario.m, 1}});
        core::CheckOptions options;
        options.engine = abstracted ? core::Engine::kAuto : core::Engine::kKInduction;
        options.max_depth = 60;
        options.abstract = abstracted;
        options.deadline = util::Deadline::after_seconds(budget);
        // Wall clock, not outcome.stats.seconds: the abstracted path's cost
        // is dominated by symmetry detection + quotient construction, which
        // engine stats do not account for.
        util::Stopwatch sw;
        const auto outcome = core::check(system, scenario.property, options);
        const double wall = sw.elapsed_seconds();
        const bool held = outcome.verdict == core::Verdict::kHolds;
        if (held) {
          std::printf("%7.2fs ", wall);
        } else {
          std::printf(" >%5.0fs ", budget);
        }
        rows.row([&](obs::JsonWriter& w) {
          w.kv("topology", tc.name);
          w.kv("mode", abstracted ? "abs" : "concrete");
          w.kv("k", k);
          w.kv("completed", held);
          w.kv("seconds", wall);
        });
        // The abstracted pass runs first; a concrete timeout on the same
        // point where it completed is exactly what the gate wants to see.
        if (abstracted) {
          abs_held[k] = held;
        } else if (!held && abs_held[k]) {
          gate_hit = true;
        }
      }
      std::printf("\n");
    }
  }
  std::printf("\n'>Ns' marks a timeout, matching the paper's bars above the budget line.\n");
  if (!bench::full_sweep())
    std::printf("fattree12/14/16 (past the paper's exponential wall) are enabled with "
                "VERDICT_BENCH_FULL=1.\n");
  if (!quotient_gate) {
    std::printf("GATE FAILED: core::check did not decide a gated violation point with a "
                "replayed trace inside the budget.\n");
    return 1;
  }
  if (bench::smoke()) return 0;  // canary run: the tiny topology decides nothing
  if (!gate_hit) {
    std::printf("GATE FAILED: no topology size where abstraction completes and the "
                "concrete check exceeds the budget.\n");
    return 1;
  }
  std::printf("gate: abstraction verified at least one topology size past the "
              "concrete budget wall.\n");
  return 0;
}
