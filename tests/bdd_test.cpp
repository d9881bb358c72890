// BDD package and BDD model-checker tests, cross-checked against truth
// tables and the explicit-state oracle.
#include <gtest/gtest.h>

#include "bdd/bdd.h"
#include "bdd/checker.h"
#include "bdd/encoder.h"
#include "bdd/reach_index.h"
#include "core/explicit.h"
#include "ltl/parser.h"
#include "obs/trace.h"
#include "scenarios/rollout_partition.h"

namespace verdict {
namespace {

using bdd::Bdd;
using bdd::Manager;
using core::Verdict;
using expr::Expr;

TEST(BddManager, TerminalInvariants) {
  Manager m;
  EXPECT_TRUE(Bdd::zero().is_zero());
  EXPECT_TRUE(Bdd::one().is_one());
  EXPECT_TRUE(m.apply_not(Bdd::zero()).is_one());
  EXPECT_TRUE(m.apply_and(Bdd::one(), Bdd::zero()).is_zero());
}

TEST(BddManager, HashConsingGivesCanonicalForms) {
  Manager m;
  const auto a = m.new_var();
  const auto b = m.new_var();
  const Bdd f1 = m.apply_or(m.var(a), m.var(b));
  const Bdd f2 = m.apply_not(m.apply_and(m.apply_not(m.var(a)), m.apply_not(m.var(b))));
  EXPECT_EQ(f1, f2);  // De Morgan, canonical by construction
}

// Exhaustive truth-table agreement for all 2-variable operations.
TEST(BddManager, OpsMatchTruthTables) {
  Manager m;
  const auto a = m.new_var();
  const auto b = m.new_var();
  const Bdd va = m.var(a);
  const Bdd vb = m.var(b);
  for (const bool x : {false, true}) {
    for (const bool y : {false, true}) {
      std::vector<bool> env{x, y};
      EXPECT_EQ(m.eval(m.apply_and(va, vb), env), x && y);
      EXPECT_EQ(m.eval(m.apply_or(va, vb), env), x || y);
      EXPECT_EQ(m.eval(m.apply_xor(va, vb), env), x != y);
      EXPECT_EQ(m.eval(m.iff(va, vb), env), x == y);
      EXPECT_EQ(m.eval(m.implies(va, vb), env), !x || y);
      EXPECT_EQ(m.eval(m.apply_not(va), env), !x);
    }
  }
}

// Random 4-variable formulas: BDD evaluation equals direct evaluation.
TEST(BddManager, RandomFormulasMatchDirectEvaluation) {
  Manager m;
  std::vector<std::uint32_t> levels;
  for (int i = 0; i < 4; ++i) levels.push_back(m.new_var());

  std::uint64_t seed = 99;
  const auto rnd = [&seed]() {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(seed >> 33);
  };

  for (int iteration = 0; iteration < 100; ++iteration) {
    // Build a random formula tree and a parallel evaluator.
    struct NodeFn {
      Bdd bdd;
      std::function<bool(const std::vector<bool>&)> eval;
    };
    std::function<NodeFn(int)> build = [&](int depth) -> NodeFn {
      if (depth == 0) {
        const std::uint32_t v = levels[rnd() % 4];
        const bool negated = rnd() % 2;
        return NodeFn{negated ? m.nvar(v) : m.var(v),
                      [v, negated](const std::vector<bool>& e) {
                        return negated ? !e[v] : e[v];
                      }};
      }
      NodeFn l = build(depth - 1);
      NodeFn r = build(depth - 1);
      switch (rnd() % 3) {
        case 0:
          return NodeFn{m.apply_and(l.bdd, r.bdd),
                        [l, r](const std::vector<bool>& e) {
                          return l.eval(e) && r.eval(e);
                        }};
        case 1:
          return NodeFn{m.apply_or(l.bdd, r.bdd),
                        [l, r](const std::vector<bool>& e) {
                          return l.eval(e) || r.eval(e);
                        }};
        default:
          return NodeFn{m.apply_xor(l.bdd, r.bdd),
                        [l, r](const std::vector<bool>& e) {
                          return l.eval(e) != r.eval(e);
                        }};
      }
    };
    const NodeFn f = build(3);
    for (int bits = 0; bits < 16; ++bits) {
      std::vector<bool> env{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                            (bits & 8) != 0};
      EXPECT_EQ(m.eval(f.bdd, env), f.eval(env));
    }
  }
}

TEST(BddManager, ExistsAndForall) {
  Manager m;
  const auto a = m.new_var();
  const auto b = m.new_var();
  const Bdd f = m.apply_and(m.var(a), m.var(b));
  const std::vector<std::uint32_t> only_a{a};
  EXPECT_EQ(m.exists(f, only_a), m.var(b));
  EXPECT_TRUE(m.forall(f, only_a).is_zero());
  const Bdd g = m.apply_or(m.var(a), m.var(b));
  EXPECT_TRUE(m.exists(g, only_a).is_one());
  EXPECT_EQ(m.forall(g, only_a), m.var(b));
}

TEST(BddManager, AndExistsMatchesComposition) {
  Manager m;
  std::vector<std::uint32_t> levels;
  for (int i = 0; i < 6; ++i) levels.push_back(m.new_var());
  std::uint64_t seed = 7;
  const auto rnd = [&seed]() {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(seed >> 33);
  };
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::function<Bdd(int)> build = [&](int depth) -> Bdd {
      if (depth == 0) return rnd() % 2 ? m.var(levels[rnd() % 6]) : m.nvar(levels[rnd() % 6]);
      const Bdd l = build(depth - 1);
      const Bdd r = build(depth - 1);
      return rnd() % 2 ? m.apply_and(l, r) : m.apply_or(l, r);
    };
    const Bdd f = build(3);
    const Bdd g = build(3);
    const std::vector<std::uint32_t> quantified{levels[0], levels[2], levels[4]};
    EXPECT_EQ(m.and_exists(f, g, quantified), m.exists(m.apply_and(f, g), quantified));
  }
}

TEST(BddManager, RenameShiftsLevels) {
  Manager m;
  const auto a = m.new_var();  // 0
  const auto b = m.new_var();  // 1
  (void)b;
  std::vector<std::uint32_t> perm{1, 0};
  const Bdd f = m.var(a);
  const Bdd renamed = m.rename(f, perm);
  EXPECT_EQ(renamed, m.var(1));
}

TEST(BddManager, SatCount) {
  Manager m;
  const auto a = m.new_var();
  const auto b = m.new_var();
  const auto c = m.new_var();
  (void)c;
  const Bdd f = m.apply_or(m.var(a), m.var(b));  // 3 of 4 over a,b; x2 for c
  EXPECT_DOUBLE_EQ(m.sat_count(f), 6.0);
}

TEST(BddManager, AnySatIsSatisfying) {
  Manager m;
  const auto a = m.new_var();
  const auto b = m.new_var();
  const Bdd f = m.apply_and(m.nvar(a), m.var(b));
  const std::vector<bool> assignment = m.any_sat(f);
  EXPECT_TRUE(m.eval(f, assignment));
  EXPECT_FALSE(assignment[a]);
  EXPECT_TRUE(assignment[b]);
}

// --- Reordering, diff, subset, reach index ---------------------------------

// A deterministic pile of random formulas over `nvars` variables, with the
// truth of each remembered so we can re-check handles after reordering.
struct FormulaPile {
  std::vector<Bdd> formulas;
  std::vector<std::vector<bool>> truth;  // [formula][assignment bits]
};

// f's value under every assignment of the first `nvars` variables.
std::vector<bool> truth_table(const Manager& m, Bdd f, int nvars) {
  std::vector<bool> rows;
  for (int bits = 0; bits < (1 << nvars); ++bits) {
    std::vector<bool> env;
    for (int i = 0; i < nvars; ++i) env.push_back((bits >> i) & 1);
    rows.push_back(m.eval(f, env));
  }
  return rows;
}

FormulaPile random_pile(Manager& m, int nvars, int count, std::uint64_t seed) {
  std::vector<std::uint32_t> vars;
  for (int i = 0; i < nvars; ++i) vars.push_back(m.new_var());
  const auto rnd = [&seed]() {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(seed >> 33);
  };
  FormulaPile pile;
  for (int n = 0; n < count; ++n) {
    std::function<Bdd(int)> build = [&](int depth) -> Bdd {
      if (depth == 0)
        return rnd() % 2 ? m.var(vars[rnd() % nvars]) : m.nvar(vars[rnd() % nvars]);
      const Bdd l = build(depth - 1);
      const Bdd r = build(depth - 1);
      switch (rnd() % 3) {
        case 0:
          return m.apply_and(l, r);
        case 1:
          return m.apply_or(l, r);
        default:
          return m.apply_xor(l, r);
      }
    };
    pile.formulas.push_back(build(4));
  }
  for (const Bdd f : pile.formulas) pile.truth.push_back(truth_table(m, f, nvars));
  return pile;
}

void expect_pile_intact(Manager& m, const FormulaPile& pile, int nvars) {
  for (std::size_t n = 0; n < pile.formulas.size(); ++n) {
    for (int bits = 0; bits < (1 << nvars); ++bits) {
      std::vector<bool> env;
      for (int i = 0; i < nvars; ++i) env.push_back((bits >> i) & 1);
      ASSERT_EQ(m.eval(pile.formulas[n], env), pile.truth[n][bits])
          << "formula " << n << " assignment " << bits;
    }
  }
}

TEST(BddReorder, SwapAdjacentPreservesHandlesAndCanonicity) {
  Manager m;
  constexpr int kVars = 8;
  const FormulaPile pile = random_pile(m, kVars, 20, 42);
  std::uint64_t seed = 7;
  for (int step = 0; step < 200; ++step) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    m.swap_adjacent(static_cast<std::uint32_t>(seed >> 33) % (kVars - 1));
    if (step % 50 != 0) continue;
    expect_pile_intact(m, pile, kVars);
  }
  expect_pile_intact(m, pile, kVars);
  // Canonicity: recombining old handles must find the very same nodes.
  const Bdd a = pile.formulas[0];
  const Bdd b = pile.formulas[1];
  const Bdd ab = m.apply_and(a, b);
  EXPECT_EQ(m.apply_and(b, a), ab);
  EXPECT_TRUE(m.apply_xor(ab, m.apply_and(a, b)).is_zero());
}

// Nodes reachable from the pile's handles. (table_nodes() also counts the
// sub-formulas the pile was built from: every operation result is a client
// handle to the manager, so they survive garbage collection.)
std::size_t pile_size(Manager& m, const FormulaPile& pile) {
  std::unordered_set<std::uint32_t> seen;
  std::vector<Bdd> stack(pile.formulas.begin(), pile.formulas.end());
  while (!stack.empty()) {
    const Bdd f = stack.back();
    stack.pop_back();
    if (f.is_terminal() || !seen.insert(f.id()).second) continue;
    stack.push_back(m.low_of(f));
    stack.push_back(m.high_of(f));
  }
  return seen.size();
}

TEST(BddReorder, SiftingPreservesFunctions) {
  Manager m;
  constexpr int kVars = 10;
  const FormulaPile pile = random_pile(m, kVars, 30, 1234);
  const std::size_t before = pile_size(m, pile);
  m.reorder_now();
  EXPECT_EQ(m.reorder_runs(), 1u);
  EXPECT_LE(pile_size(m, pile), before);  // sifting never settles on a worse order
  expect_pile_intact(m, pile, kVars);
  // The order is still a permutation of all variables.
  std::vector<std::uint32_t> order = m.order();
  std::sort(order.begin(), order.end());
  for (std::uint32_t i = 0; i < m.num_vars(); ++i) EXPECT_EQ(order[i], i);
}

TEST(BddReorder, AutoReorderTriggersAndImageStaysCorrect) {
  // A system big enough to cross a (lowered) reorder threshold mid-run:
  // reachability must agree step by step with a reorder-disabled twin.
  ts::TransitionSystem ts;
  std::vector<Expr> xs;
  for (int i = 0; i < 6; ++i) {
    const Expr x = expr::int_var("bddro_x" + std::to_string(i), 0, 7);
    xs.push_back(x);
    ts.add_var(x);
    ts.add_init(expr::mk_eq(x, expr::int_const(i % 3)));
  }
  std::vector<Expr> steps;
  for (int i = 0; i < 6; ++i) {
    steps.push_back(expr::mk_eq(
        expr::next(xs[i]),
        expr::ite(expr::mk_lt(xs[i], xs[(i + 1) % 6]), xs[i] + 1,
                  expr::mk_max(xs[i] - 1, expr::int_const(0)))));
  }
  ts.add_trans(expr::mk_and(steps));

  bdd::SymbolicSystem fast(ts, bdd::VarOrder::kInterleaved, /*reorder=*/true);
  fast.manager().set_reorder_threshold(512);
  bdd::SymbolicSystem slow(ts, bdd::VarOrder::kInterleaved, /*reorder=*/false);

  Bdd fast_reached = fast.init();
  Bdd slow_reached = slow.init();
  for (int step = 0; step < 12; ++step) {
    fast_reached = fast.manager().apply_or(fast_reached, fast.image(fast_reached));
    slow_reached = slow.manager().apply_or(slow_reached, slow.image(slow_reached));
    EXPECT_DOUBLE_EQ(fast.manager().sat_count(fast_reached),
                     slow.manager().sat_count(slow_reached))
        << "diverged at step " << step;
  }
  EXPECT_GE(fast.manager().reorder_runs(), 1u) << "workload never triggered sifting";
  EXPECT_EQ(slow.manager().reorder_runs(), 0u);
}

// The Fig. 6 question on the paper's test topology at p = m = 1, k = 1.
ts::TransitionSystem fig6_test_system(const std::string& prefix) {
  scenarios::RolloutPartitionOptions options;
  options.prefix = prefix;
  const auto s = scenarios::make_test_scenario(options);
  ts::TransitionSystem out = s.system;
  out.add_param_constraint(expr::mk_eq(s.p, expr::int_const(1)));
  out.add_param_constraint(expr::mk_eq(s.k, expr::int_const(1)));
  out.add_param_constraint(expr::mk_eq(s.m, expr::int_const(1)));
  return out;
}

TEST(BddReorder, SiftOnFig6TestTopologyShrinksTheTable) {
  const ts::TransitionSystem ts = fig6_test_system("bddro_fig6");
  // Encoded with reordering off so the one sift below is the only one; it
  // sifts the same interleaved cur/next pair blocks auto-reordering would.
  bdd::SymbolicSystem sifted(ts, bdd::VarOrder::kInterleaved, /*reorder=*/false);
  bdd::SymbolicSystem twin(ts, bdd::VarOrder::kInterleaved, /*reorder=*/false);
  Manager& m = sifted.manager();
  m.set_auto_reorder(false, /*block_size=*/2);
  const std::size_t before = m.table_nodes();
  ASSERT_GT(before, 1000u) << "the encoding is too small to exercise sifting";
  m.reorder_now();
  EXPECT_EQ(m.reorder_runs(), 1u);
  // Garbage is collected, not rewritten: the table never grows ...
  EXPECT_LE(m.table_nodes(), before);
  // ... and the sift allocates a bounded number of fresh ids doing it.
  EXPECT_LE(m.num_nodes(), 10 * before);
  // Every handle the encoder holds still denotes its function.
  Manager& t = twin.manager();
  EXPECT_DOUBLE_EQ(m.sat_count(sifted.state_space()), t.sat_count(twin.state_space()));
  EXPECT_DOUBLE_EQ(m.sat_count(sifted.init()), t.sat_count(twin.init()));
  EXPECT_DOUBLE_EQ(m.sat_count(sifted.trans()), t.sat_count(twin.trans()));
  EXPECT_DOUBLE_EQ(m.sat_count(sifted.image(sifted.init())),
                   t.sat_count(twin.image(twin.init())));
}

TEST(BddReorder, SiftCollectsAbortedWorkAndKeepsHandles) {
  Manager m;
  constexpr int kVars = 10;
  const FormulaPile pile = random_pile(m, kVars, 30, 4242);
  // Children handed out by low_of/high_of are client handles as well.
  FormulaPile children;
  for (const Bdd f : pile.formulas) {
    if (f.is_terminal()) continue;
    for (const Bdd c : {m.low_of(f), m.high_of(f)}) {
      children.formulas.push_back(c);
      children.truth.push_back(truth_table(m, c, kVars));
    }
  }

  // OR_i (x_i AND y_i) with every x above every y needs ~2^n nodes, so the
  // abort hook (polled every 16384 creations) fires inside one of the applies.
  constexpr int kPairs = 14;
  std::vector<std::uint32_t> xs;
  std::vector<std::uint32_t> ys;
  for (int i = 0; i < kPairs; ++i) xs.push_back(m.new_var());
  for (int i = 0; i < kPairs; ++i) ys.push_back(m.new_var());
  m.set_abort_check([] { return true; });
  Bdd acc = Bdd::zero();
  int done = 0;
  bool aborted = false;
  try {
    for (; done < kPairs; ++done)
      acc = m.apply_or(acc, m.apply_and(m.var(xs[done]), m.var(ys[done])));
  } catch (const bdd::AbortRequested&) {
    aborted = true;
  }
  ASSERT_TRUE(aborted) << "the workload never reached an abort poll";
  ASSERT_LT(done, kPairs);
  m.set_abort_check(nullptr);

  const std::uint64_t collected = obs::counter("bdd.gc.collected").load();
  m.reorder_now();
  EXPECT_GT(obs::counter("bdd.gc.collected").load(), collected)
      << "the aborted apply left no garbage behind";
  expect_pile_intact(m, pile, kVars);
  expect_pile_intact(m, children, kVars);

  // Redo the aborted step. The caches held its partial results, which the
  // sift collected; a dead id served from a cache would differ from the
  // canonical node the De Morgan route builds, and would evaluate wrongly.
  const Bdd term = m.apply_and(m.var(xs[done]), m.var(ys[done]));
  const Bdd redo = m.apply_or(acc, term);
  EXPECT_EQ(redo, m.apply_not(m.apply_and(m.apply_not(acc), m.apply_not(term))));
  std::uint64_t seed = 11;
  for (int sample = 0; sample < 256; ++sample) {
    std::vector<bool> env(m.num_vars());
    for (std::size_t i = 0; i < env.size(); ++i) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      env[i] = (seed >> 40) & 1;
    }
    bool expected = false;
    for (int i = 0; i <= done; ++i) expected = expected || (env[xs[i]] && env[ys[i]]);
    ASSERT_EQ(m.eval(redo, env), expected) << "sample " << sample;
  }
}

TEST(BddManager, ApplyDiffMatchesAndNot) {
  Manager m;
  constexpr int kVars = 8;
  const FormulaPile pile = random_pile(m, kVars, 24, 555);
  for (std::size_t i = 0; i + 1 < pile.formulas.size(); i += 2) {
    const Bdd a = pile.formulas[i];
    const Bdd b = pile.formulas[i + 1];
    EXPECT_EQ(m.apply_diff(a, b), m.apply_and(a, m.apply_not(b)));
  }
}

TEST(BddManager, ApplyDiffWithIndexOverGrowingSet) {
  Manager m;
  constexpr int kVars = 8;
  const FormulaPile pile = random_pile(m, kVars, 30, 9090);
  // Simulate the checker's loop: `reached` only grows; the index rides along.
  bdd::ReachIndex index;
  Bdd reached = pile.formulas[0];
  index.advance(reached);
  for (std::size_t i = 1; i < pile.formulas.size(); ++i) {
    const Bdd frontier = pile.formulas[i];
    const Bdd expected = m.apply_and(frontier, m.apply_not(reached));
    EXPECT_EQ(m.apply_diff(frontier, reached, &index), expected);
    // Re-querying the same frontier must hit marks/caches, same answer.
    EXPECT_EQ(m.apply_diff(frontier, reached, &index), expected);
    reached = m.apply_or(reached, frontier);
    index.advance(reached);
  }
}

TEST(BddManager, SubsetMatchesImplicationAndAllocatesNothing) {
  Manager m;
  constexpr int kVars = 8;
  const FormulaPile pile = random_pile(m, kVars, 24, 321);
  for (std::size_t i = 0; i + 1 < pile.formulas.size(); i += 2) {
    const Bdd a = pile.formulas[i];
    const Bdd b = pile.formulas[i + 1];
    const bool expected = m.implies(a, b).is_one();
    const std::size_t nodes = m.num_nodes();
    EXPECT_EQ(m.subset(a, b), expected);
    EXPECT_EQ(m.num_nodes(), nodes) << "subset must not create nodes";
    EXPECT_TRUE(m.subset(m.apply_and(a, b), a));
    EXPECT_TRUE(m.subset(a, m.apply_or(a, b)));
  }
}

// --- Symbolic system checks (cross-checked against the explicit engine) ----

ts::TransitionSystem bounded_counter(const std::string& prefix, std::int64_t limit) {
  ts::TransitionSystem ts;
  const Expr x = expr::int_var(prefix + "_x", 0, 10);
  ts.add_var(x);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x),
                           expr::ite(expr::mk_lt(x, expr::int_const(limit)), x + 1, x)));
  return ts;
}

TEST(BddChecker, InvariantViolationWithShortestTrace) {
  const auto ts = bounded_counter("bddc1", 8);
  const Expr x = expr::var_by_name("bddc1_x");
  const auto outcome = bdd::check_invariant_bdd(ts, expr::mk_lt(x, expr::int_const(5)));
  ASSERT_EQ(outcome.verdict, Verdict::kViolated);
  ASSERT_TRUE(outcome.counterexample.has_value());
  EXPECT_EQ(outcome.counterexample->states.size(), 6u);  // shortest, like explicit BFS
  std::string error;
  EXPECT_TRUE(ts.trace_conforms(*outcome.counterexample, &error)) << error;
}

TEST(BddChecker, InvariantProof) {
  const auto ts = bounded_counter("bddc2", 4);
  const Expr x = expr::var_by_name("bddc2_x");
  const auto outcome = bdd::check_invariant_bdd(ts, expr::mk_lt(x, expr::int_const(5)));
  EXPECT_EQ(outcome.verdict, Verdict::kHolds);
}

TEST(BddChecker, SequentialOrderingAgrees) {
  const auto ts = bounded_counter("bddc3", 8);
  const Expr x = expr::var_by_name("bddc3_x");
  bdd::BddOptions options;
  options.order = bdd::VarOrder::kSequential;
  const auto outcome =
      bdd::check_invariant_bdd(ts, expr::mk_lt(x, expr::int_const(5)), options);
  EXPECT_EQ(outcome.verdict, Verdict::kViolated);
}

TEST(BddChecker, ParametricReachabilityFindsBadParams) {
  ts::TransitionSystem ts;
  const Expr x = expr::int_var("bddp_x", 0, 10);
  const Expr limit = expr::int_var("bddp_limit", 0, 10);
  ts.add_var(x);
  ts.add_param(limit);
  ts.add_init(expr::mk_eq(x, expr::int_const(0)));
  ts.add_trans(expr::mk_eq(expr::next(x), expr::ite(expr::mk_lt(x, limit), x + 1, x)));
  const auto outcome = bdd::check_invariant_bdd(ts, expr::mk_lt(x, expr::int_const(5)));
  ASSERT_EQ(outcome.verdict, Verdict::kViolated);
  const auto chosen = outcome.counterexample->params.get(limit);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_GE(std::get<std::int64_t>(*chosen), 5);
  std::string error;
  EXPECT_TRUE(ts.trace_conforms(*outcome.counterexample, &error)) << error;
}

TEST(BddChecker, ReorderAndIndexParityOnWorkloads) {
  // The satellite parity gate: reorder+index on vs off must agree verdict-for-
  // verdict (and trace-length for trace-length) on the checker workloads.
  struct Case {
    ts::TransitionSystem ts;
    Expr invariant;
  };
  std::vector<Case> cases;
  cases.push_back({bounded_counter("bddrp1", 8),
                   expr::mk_lt(expr::var_by_name("bddrp1_x"), expr::int_const(5))});
  cases.push_back({bounded_counter("bddrp2", 4),
                   expr::mk_lt(expr::var_by_name("bddrp2_x"), expr::int_const(5))});
  {
    ts::TransitionSystem ts;
    const Expr x = expr::int_var("bddrp3_x", 0, 10);
    const Expr limit = expr::int_var("bddrp3_limit", 0, 10);
    ts.add_var(x);
    ts.add_param(limit);
    ts.add_init(expr::mk_eq(x, expr::int_const(0)));
    ts.add_trans(expr::mk_eq(expr::next(x), expr::ite(expr::mk_lt(x, limit), x + 1, x)));
    cases.push_back({std::move(ts), expr::mk_lt(x, expr::int_const(5))});
  }
  for (const Case& c : cases) {
    bdd::BddOptions on;
    on.reorder = true;
    on.reach_index = true;
    bdd::BddOptions off;
    off.reorder = false;
    off.reach_index = false;
    const auto fast = bdd::check_invariant_bdd(c.ts, c.invariant, on);
    const auto slow = bdd::check_invariant_bdd(c.ts, c.invariant, off);
    EXPECT_EQ(fast.verdict, slow.verdict);
    ASSERT_EQ(fast.counterexample.has_value(), slow.counterexample.has_value());
    if (fast.counterexample) {
      EXPECT_EQ(fast.counterexample->states.size(), slow.counterexample->states.size());
      std::string error;
      EXPECT_TRUE(c.ts.trace_conforms(*fast.counterexample, &error)) << error;
    }
  }
}

TEST(BddChecker, ReachableStateCount) {
  const auto ts = bounded_counter("bddc4", 4);
  // States 0..4 reachable.
  EXPECT_DOUBLE_EQ(bdd::count_reachable_states(ts), 5.0);
}

TEST(BddCtl, AgreesWithExplicitOracle) {
  // Two-bit system with a toggling low bit and a latching high bit.
  ts::TransitionSystem ts;
  const Expr lo = expr::bool_var("ctl_lo");
  const Expr hi = expr::bool_var("ctl_hi");
  ts.add_var(lo);
  ts.add_var(hi);
  ts.add_init(expr::mk_not(lo));
  ts.add_init(expr::mk_not(hi));
  ts.add_trans(expr::mk_eq(expr::next(lo), expr::mk_not(lo)));
  // hi latches once lo is true.
  ts.add_trans(expr::mk_eq(expr::next(hi), expr::mk_or({hi, lo})));

  const std::vector<std::string> properties = {
      "EF (ctl_hi)",      "AF (ctl_hi)",          "AG (EF (ctl_lo))",
      "EG (!ctl_hi)",     "AG (ctl_lo -> AF ctl_hi)", "E[!ctl_hi U ctl_lo]",
      "A[!ctl_hi U ctl_lo]",
  };
  for (const std::string& text : properties) {
    const ltl::CtlFormula f = ltl::parse_ctl(text);
    const auto symbolic = bdd::check_ctl_bdd(ts, f);
    const auto oracle = core::check_ctl_explicit(ts, f);
    EXPECT_EQ(symbolic.verdict, oracle.verdict) << "property: " << text;
  }
}

TEST(BddCtl, FindsFailingInitialState) {
  ts::TransitionSystem ts;
  const Expr b = expr::bool_var("ctl_stuck");
  ts.add_var(b);
  ts.add_trans(expr::mk_eq(expr::next(b), b));  // frozen bit, both inits allowed
  const auto outcome = bdd::check_ctl_bdd(ts, ltl::parse_ctl("AF (ctl_stuck)"));
  ASSERT_EQ(outcome.verdict, Verdict::kViolated);
  const auto witness = outcome.counterexample->states.front().get(b);
  ASSERT_TRUE(witness.has_value());
  EXPECT_FALSE(std::get<bool>(*witness));
}

}  // namespace
}  // namespace verdict
