// Engine microbenchmarks and design-choice ablations (google-benchmark).
//
// Quantifies the ablations called out in DESIGN.md §5:
//   - BMC cost by unrolling depth,
//   - PDR vs k-induction on the same safe instance,
//   - interleaved vs sequential BDD variable ordering,
//   - expression interning / simplification throughput,
//   - BDD operation and symbolic-image costs.
// The binary doubles as the PR acceptance gate for the engine hot-path
// overhaul: after the google-benchmark suite it times the BDD invariant check
// on a fat-tree workload with dynamic reordering + the reachable-set index on
// vs off and exits nonzero unless the combination delivers >= 1.5x with
// identical verdicts (see main() at the bottom; the CI bench smoke step runs
// only the gate via VERDICT_BENCH_SMOKE=1).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "bdd/checker.h"
#include "bench_common.h"
#include "ltl/ltl.h"
#include "obs/trace.h"
#include "core/bmc.h"
#include "core/kinduction.h"
#include "core/pdr.h"
#include "expr/expr.h"
#include "net/reachability.h"
#include "net/topology.h"
#include "scenarios/rollout_partition.h"
#include "smt/solver.h"

namespace {

using namespace verdict;
using expr::Expr;

ts::TransitionSystem counter_system(const std::string& prefix, std::int64_t limit,
                                    std::int64_t range) {
  ts::TransitionSystem ts;
  const Expr x = expr::int_var(prefix + "_x", 0, range);
  ts.add_var(x);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x),
                           expr::ite(expr::mk_lt(x, expr::int_const(limit)), x + 1, x)));
  return ts;
}

void BM_ExprInterning(benchmark::State& state) {
  const Expr x = expr::int_var("micro_x", 0, 100);
  const Expr y = expr::int_var("micro_y", 0, 100);
  for (auto _ : state) {
    Expr acc = expr::int_const(0);
    for (int i = 0; i < 64; ++i) acc = acc + expr::ite(expr::mk_lt(x, y + i), x, y);
    benchmark::DoNotOptimize(acc.id());
  }
}
BENCHMARK(BM_ExprInterning);

void BM_ExprEvaluation(benchmark::State& state) {
  const Expr x = expr::int_var("micro_ev_x", 0, 100);
  std::vector<Expr> bools;
  for (int i = 0; i < 64; ++i) bools.push_back(expr::mk_lt(x, expr::int_const(i)));
  const Expr formula = expr::count_true(bools) >= 32;
  expr::Env env;
  env.set(x, std::int64_t{50});
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr::eval_bool(formula, env));
  }
}
BENCHMARK(BM_ExprEvaluation);

void BM_SolverRoundTrip(benchmark::State& state) {
  const Expr x = expr::int_var("micro_smt_x", 0, 1000);
  for (auto _ : state) {
    smt::Solver solver;
    solver.add(expr::mk_lt(expr::int_const(10), x), 0);
    solver.add(expr::mk_lt(x, expr::int_const(20)), 0);
    benchmark::DoNotOptimize(solver.check() == smt::CheckResult::kSat);
  }
}
BENCHMARK(BM_SolverRoundTrip);

void BM_BmcIncremental(benchmark::State& state) {
  const auto ts = counter_system("micro_bmc_inc", state.range(0), 64);
  const Expr x = expr::var_by_name("micro_bmc_inc_x");
  const Expr invariant = expr::mk_lt(x, expr::int_const(state.range(0)));
  for (auto _ : state) {
    core::BmcOptions options;
    options.max_depth = static_cast<int>(state.range(0)) + 2;
    benchmark::DoNotOptimize(core::check_invariant_bmc(ts, invariant, options).verdict);
  }
}
BENCHMARK(BM_BmcIncremental)->Arg(8)->Arg(16)->Arg(32);

void BM_ProofKInduction(benchmark::State& state) {
  const auto ts = counter_system("micro_kind", 10, 64);
  const Expr x = expr::var_by_name("micro_kind_x");
  const Expr invariant = expr::mk_le(x, expr::int_const(10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::check_invariant_kinduction(ts, invariant).verdict);
  }
}
BENCHMARK(BM_ProofKInduction);

void BM_ProofPdr(benchmark::State& state) {
  const auto ts = counter_system("micro_pdr", 10, 64);
  const Expr x = expr::var_by_name("micro_pdr_x");
  const Expr invariant = expr::mk_le(x, expr::int_const(10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::check_invariant_pdr(ts, invariant).verdict);
  }
}
BENCHMARK(BM_ProofPdr);

void BM_ProofPdrNoGeneralize(benchmark::State& state) {
  const auto ts = counter_system("micro_pdr_ng", 10, 64);
  const Expr x = expr::var_by_name("micro_pdr_ng_x");
  const Expr invariant = expr::mk_le(x, expr::int_const(10));
  for (auto _ : state) {
    core::PdrOptions options;
    options.generalize = false;
    benchmark::DoNotOptimize(core::check_invariant_pdr(ts, invariant, options).verdict);
  }
}
BENCHMARK(BM_ProofPdrNoGeneralize);

// Multi-variable system where current/next variable ordering matters: four
// 0..15 counters stepping in lockstep pairs (the transition relation couples
// every variable with its next-state copy).
ts::TransitionSystem lockstep_counters(const std::string& prefix) {
  ts::TransitionSystem ts;
  std::vector<Expr> xs;
  for (int i = 0; i < 4; ++i) {
    const Expr x = expr::int_var(prefix + "_x" + std::to_string(i), 0, 15);
    xs.push_back(x);
    ts.add_var(x);
    ts.add_init(expr::mk_eq(x, expr::int_const(i)));
  }
  for (int i = 0; i < 4; ++i) {
    ts.add_trans(expr::mk_eq(
        expr::next(xs[i]),
        expr::ite(expr::mk_lt(xs[i], expr::int_const(15)), xs[i] + 1,
                  expr::int_const(0))));
  }
  return ts;
}

void BM_BddReachabilityInterleaved(benchmark::State& state) {
  const auto ts = lockstep_counters("micro_bdd_i");
  const Expr x = expr::var_by_name("micro_bdd_i_x0");
  const Expr invariant = expr::mk_le(x, expr::int_const(15));
  for (auto _ : state) {
    bdd::BddOptions options;
    options.order = bdd::VarOrder::kInterleaved;
    benchmark::DoNotOptimize(bdd::check_invariant_bdd(ts, invariant, options).verdict);
  }
}
BENCHMARK(BM_BddReachabilityInterleaved);

void BM_BddReachabilitySequential(benchmark::State& state) {
  const auto ts = lockstep_counters("micro_bdd_s");
  const Expr x = expr::var_by_name("micro_bdd_s_x0");
  const Expr invariant = expr::mk_le(x, expr::int_const(15));
  for (auto _ : state) {
    bdd::BddOptions options;
    options.order = bdd::VarOrder::kSequential;
    benchmark::DoNotOptimize(bdd::check_invariant_bdd(ts, invariant, options).verdict);
  }
}
BENCHMARK(BM_BddReachabilitySequential);

void BM_SymbolicReachabilityFormula(benchmark::State& state) {
  const net::FatTree ft = net::make_fat_tree(static_cast<int>(state.range(0)));
  std::vector<Expr> link_up;
  for (net::LinkId l = 0; l < ft.topo.num_links(); ++l)
    link_up.push_back(
        expr::bool_var("micro_reach" + std::to_string(state.range(0)) + "_" +
                       std::to_string(l)));
  for (auto _ : state) {
    const auto reach = net::symbolic_reachability(ft.topo, ft.edge[0], link_up, 4);
    benchmark::DoNotOptimize(reach.back().id());
  }
}
BENCHMARK(BM_SymbolicReachabilityFormula)->Arg(4)->Arg(6)->Arg(8);

// --- BDD hot-path ablation gate ---------------------------------------------
//
// The PR acceptance gate: check_invariant_bdd on a fat-tree monitor bring-up
// model, with dynamic reordering + the reachable-set index ON vs OFF. The
// workload (fat_tree_monitor_bringup below) is built so that under the
// model's natural declaration order every canonical BDD in the run — the bad
// set and every BFS ring — has ~2^failable nodes, while a paired order is
// linear; this holds for the *canonical* final objects, not just lucky
// construction paths, so the OFF cost cannot evaporate under a different
// expression-interning history. Sifting finds the paired order (it is the
// textbook case: moving each view bit next to its link bit shrinks the table
// monotonically), so ON stays linear end to end. Because the OFF side may
// still be slow, the gate runs ON first and gives OFF three times the ON
// wall-clock; an OFF timeout is itself the measurement (speedup >= 3x, a
// conservative lower bound) rather than a failure.

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct GossipWorkload {
  ts::TransitionSystem ts;
  Expr invariant;
};

// Controller bring-up over a fat tree: the link states are frozen at init
// (the first `failable` links may start down), the controller's view starts
// empty, and each step polls one monitored link, copying its state into the
// view. Invariant: the controller never believes a dead link is up —
// AND_l(view_l -> up_l). It holds (polling copies the truth), and the BFS
// runs ~failable rings (one per newly polled link count).
//
// The order-sensitivity is structural: links are declared first (scattered,
// as a topology dump would produce them) and the controller's view bits
// after, so every view_l sits far from its up_l. Under that split order the
// bad set OR_l(view_l AND NOT up_l) and every ring ("view is a subset of up
// of bounded popcount") must remember the full view prefix before meeting
// the up bits — 2^failable nodes whatever order the expressions were built
// in. With view_l adjacent to up_l every one of those functions is linear.
GossipWorkload fat_tree_monitor_bringup(const std::string& prefix, int k_ary,
                                        std::size_t failable) {
  const net::FatTree ft = net::make_fat_tree(k_ary);
  const std::size_t nl = ft.topo.num_links();
  const std::size_t f = std::min(failable, nl);
  std::vector<Expr> up(nl), view(f);
  for (std::size_t l = 0; l < nl; ++l)
    up[l] = expr::bool_var(prefix + "_l" + std::to_string(l));
  for (std::size_t l = 0; l < f; ++l)
    view[l] = expr::bool_var(prefix + "_v" + std::to_string(l));

  GossipWorkload w;
  // The network declaration first (scattered registration order: the model
  // author's creation order is the checker's problem, not its excuse), the
  // controller state after it.
  std::size_t stride = 7;
  while (std::gcd(stride, nl) != 1) ++stride;
  for (std::size_t i = 0, p = 0; i < nl; ++i, p = (p + stride) % nl)
    w.ts.add_var(up[p]);
  for (std::size_t l = 0; l < f; ++l) w.ts.add_var(view[l]);

  // Links beyond the failable prefix are forced up; the failable ones take an
  // arbitrary frozen configuration. The view starts empty.
  for (std::size_t l = f; l < nl; ++l) w.ts.add_init(up[l]);
  for (std::size_t l = 0; l < f; ++l) w.ts.add_init(expr::mk_not(view[l]));

  std::vector<Expr> frozen;
  for (std::size_t j = 0; j < nl; ++j)
    frozen.push_back(expr::mk_iff(expr::next(up[j]), up[j]));
  std::vector<Expr> steps;
  for (std::size_t l = 0; l < f; ++l) {
    std::vector<Expr> conj{expr::mk_iff(expr::next(view[l]), up[l])};
    for (std::size_t j = 0; j < f; ++j)
      if (j != l) conj.push_back(expr::mk_iff(expr::next(view[j]), view[j]));
    steps.push_back(expr::mk_and(conj));
  }
  std::vector<Expr> stutter;
  for (std::size_t j = 0; j < f; ++j)
    stutter.push_back(expr::mk_iff(expr::next(view[j]), view[j]));
  steps.push_back(expr::mk_and(stutter));
  w.ts.add_trans(expr::mk_and({expr::mk_and(frozen), expr::mk_or(steps)}));

  std::vector<Expr> consistent;
  for (std::size_t l = 0; l < f; ++l)
    consistent.push_back(expr::mk_or({expr::mk_not(view[l]), up[l]}));
  w.invariant = expr::mk_and(consistent);
  return w;
}

/// Times one check_invariant_bdd run with the two hot-path levers set as
/// given (the optimizer pipeline is off so the measurement isolates the
/// engine) under an explicit wall-clock budget.
double timed_bdd_check(const GossipWorkload& w, bool reorder, bool index,
                       double budget_seconds, core::CheckOutcome* out) {
  bdd::BddOptions options;
  options.optimize = false;
  options.reorder = reorder;
  options.reach_index = index;
  options.deadline = util::Deadline::after_seconds(budget_seconds);
  const double start = now_seconds();
  *out = bdd::check_invariant_bdd(w.ts, w.invariant, options);
  return now_seconds() - start;
}

int run_bdd_ablation_gate(bench::JsonRows& rows) {
  bench::header(
      "BDD ablation gate — dynamic reordering + reach index, fat-tree monitor bring-up");
  // Overridable for exploration (the defaults are the CI gate).
  const char* kary_env = std::getenv("VERDICT_GATE_KARY");
  const char* links_env = std::getenv("VERDICT_GATE_LINKS");
  const int k_ary = kary_env ? std::atoi(kary_env) : 4;
  const std::size_t failable = links_env ? std::strtoul(links_env, nullptr, 10) : 18;
  const GossipWorkload w = fat_tree_monitor_bringup("gate_monitor", k_ary, failable);

  // ON first: it is expected to finish quickly and its wall-clock sets the
  // scale for the OFF budget (with a floor so scheduler noise on a fast ON
  // run cannot starve OFF of a fair chance).
  core::CheckOutcome on, off;
  const std::uint64_t runs0 = obs::counter("bdd.reorder.runs").load();
  const std::uint64_t swaps0 = obs::counter("bdd.reorder.swaps").load();
  const std::uint64_t saved0 = obs::counter("bdd.reorder.nodes_saved").load();
  const std::uint64_t hits0 = obs::counter("bdd.index.hits").load();
  const double on_wall = timed_bdd_check(w, true, true, 180.0, &on);
  const std::uint64_t runs = obs::counter("bdd.reorder.runs").load() - runs0;
  const std::uint64_t swaps = obs::counter("bdd.reorder.swaps").load() - swaps0;
  const std::uint64_t saved = obs::counter("bdd.reorder.nodes_saved").load() - saved0;
  const std::uint64_t hits = obs::counter("bdd.index.hits").load() - hits0;
  const double off_budget = std::max(3.0 * on_wall, 30.0);
  const double off_wall = timed_bdd_check(w, false, false, off_budget, &off);

  const bool off_timed_out = off.verdict == core::Verdict::kTimeout;
  const double speedup = on_wall > 0 ? off_wall / on_wall : 0.0;
  // An OFF timeout means the true speedup exceeds what we measured (at least
  // the budget ratio); that satisfies the gate as a lower bound. If OFF does
  // finish, it must agree with ON and be >= 1.5x slower.
  const bool verdict_ok = on.verdict == core::Verdict::kHolds &&
                          (off_timed_out || off.verdict == on.verdict);
  const bool pass = verdict_ok && speedup >= 1.5;
  std::printf("fattree%d monitor bring-up (%zu monitored links, view bits "
              "declared after the scattered link bits):\n",
              k_ary, failable);
  std::printf("  reorder+index off: %-9s %8.3fs%s\n",
              core::verdict_name(off.verdict), off_wall,
              off_timed_out ? "  (hit budget; true cost is higher)" : "");
  std::printf("  reorder+index on:  %-9s %8.3fs  (%llu sift runs, %llu swaps, "
              "%llu nodes saved, %llu index hits)\n",
              core::verdict_name(on.verdict), on_wall,
              static_cast<unsigned long long>(runs),
              static_cast<unsigned long long>(swaps),
              static_cast<unsigned long long>(saved),
              static_cast<unsigned long long>(hits));
  std::printf("  speedup: %s%.2fx (gate: >= 1.5x) -> %s\n",
              off_timed_out ? ">= " : "", speedup, pass ? "PASS" : "FAIL");
  rows.row([&](obs::JsonWriter& jw) {
    jw.kv("workload", "fattree" + std::to_string(k_ary) + "_monitor_bringup");
    jw.kv("off_seconds", off_wall);
    jw.kv("off_timed_out", off_timed_out);
    jw.kv("on_seconds", on_wall);
    jw.kv("speedup", speedup);
    jw.kv("speedup_is_lower_bound", off_timed_out);
    jw.kv("verdict", core::verdict_name(on.verdict));
    jw.kv("gate_pass", pass);
  });
  return pass ? 0 : 1;
}

// --- SMT translation-memo ablation row (informational) ----------------------
//
// Incremental BMC re-translates the parameter constraints, range invariants
// and property at every frame; the cross-frame memo collapses those to one
// Z3 term each. Reported as a before/after row, not gated: the win scales
// with the invariant share of the formula, which is workload-dependent.
void run_translate_memo_row(bench::JsonRows& rows) {
  std::printf("\nSMT cross-frame translation memo (incremental BMC, rollout "
              "test scenario, depth 20):\n");
  scenarios::RolloutPartitionOptions scenario_options;
  scenario_options.prefix = "gate_memo";
  const auto scenario = scenarios::make_test_scenario(scenario_options);
  ts::TransitionSystem system = scenario.system;
  system.add_param_constraint(expr::mk_eq(scenario.p, expr::int_const(1)));
  system.add_param_constraint(expr::mk_eq(scenario.k, expr::int_const(1)));
  system.add_param_constraint(expr::mk_eq(scenario.m, expr::int_const(1)));
  const Expr invariant = ltl::invariant_atom(scenario.property);

  auto timed = [&](bool memo) {
    smt::set_translate_memo(memo);
    core::BmcOptions options;
    options.max_depth = 20;
    const double start = now_seconds();
    const auto outcome = core::check_invariant_bmc(system, invariant, options);
    const double wall = now_seconds() - start;
    benchmark::DoNotOptimize(outcome.verdict);
    return wall;
  };
  const double off_wall = timed(false);
  const double on_wall = timed(true);
  smt::set_translate_memo(true);
  const double speedup = on_wall > 0 ? off_wall / on_wall : 0.0;
  std::printf("  memo off: %8.3fs   memo on: %8.3fs   (%.2fx)\n", off_wall,
              on_wall, speedup);
  rows.row([&](obs::JsonWriter& jw) {
    jw.kv("workload", "bmc_translate_memo");
    jw.kv("off_seconds", off_wall);
    jw.kv("on_seconds", on_wall);
    jw.kv("speedup", speedup);
  });
}

}  // namespace

int main(int argc, char** argv) {
  // CI smoke runs only the exit-code gate; a plain invocation also runs the
  // google-benchmark suite first (filters/flags pass through).
  if (!bench::smoke()) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  bench::JsonRows rows("micro_engines");
  const int gate = run_bdd_ablation_gate(rows);
  run_translate_memo_row(rows);
  return gate;
}
