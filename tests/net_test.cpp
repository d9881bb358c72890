// Topology, fat-tree generator, reachability, ECMP, failure-model tests.
#include <gtest/gtest.h>

#include "core/bmc.h"
#include "mdl/compose.h"
#include "net/ecmp.h"
#include "net/failures.h"
#include "net/reachability.h"
#include "net/topology.h"

namespace verdict::net {
namespace {

TEST(Topology, BasicConstruction) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  const LinkId l = t.add_link(a, b);
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.num_links(), 1u);
  EXPECT_EQ(t.endpoints(l), std::make_pair(a, b));
  EXPECT_THROW(t.add_link(a, a), std::invalid_argument);
  EXPECT_THROW(t.add_link(a, 99), std::invalid_argument);
}

TEST(Topology, BfsDistancesAndLinkFilters) {
  // a - b - c with a direct a-c link.
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  const NodeId c = t.add_node("c");
  t.add_link(a, b);
  t.add_link(b, c);
  const LinkId ac = t.add_link(a, c);
  EXPECT_EQ(t.bfs_distance(a)[c], 1);
  std::vector<bool> up(t.num_links(), true);
  up[ac] = false;
  EXPECT_EQ(t.bfs_distance(a, up)[c], 2);
  up[0] = false;  // a-b also down
  EXPECT_EQ(t.bfs_distance(a, up)[c], -1);
  EXPECT_FALSE(t.reachable_from(a, up)[c]);
}

// The paper's Fig. 6 node/link/service-node counts (fattree8's 265 links is a
// paper typo; the construction yields 256 — see EXPERIMENTS.md).
// gtest prints this parameter as raw bytes and the discovered test names are
// built from that print, so the struct must have no padding: a 4-byte `k`
// followed by 8-byte fields left 4 uninitialised bytes in every name.
struct FatTreeCounts {
  std::size_t k;
  std::size_t nodes;
  std::size_t links;
  std::size_t service_nodes;
};

class FatTreeCountTest : public ::testing::TestWithParam<FatTreeCounts> {};

TEST_P(FatTreeCountTest, MatchesPaperTopologySizes) {
  const FatTreeCounts expected = GetParam();
  const FatTree ft = make_fat_tree(static_cast<int>(expected.k));
  EXPECT_EQ(ft.topo.num_nodes(), expected.nodes);
  EXPECT_EQ(ft.topo.num_links(), expected.links);
  EXPECT_EQ(ft.edge.size() - 1, expected.service_nodes);  // one leaf = front-end
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, FatTreeCountTest,
                         ::testing::Values(FatTreeCounts{4, 20, 32, 7},
                                           FatTreeCounts{6, 45, 108, 17},
                                           FatTreeCounts{8, 80, 256, 31},
                                           FatTreeCounts{10, 125, 500, 49},
                                           FatTreeCounts{12, 180, 864, 71}));

TEST(FatTree, StructuralInvariants) {
  for (const int k : {4, 6, 8}) {
    const FatTree ft = make_fat_tree(k);
    const int half = k / 2;
    EXPECT_EQ(ft.core.size(), static_cast<std::size_t>(half * half));
    EXPECT_EQ(ft.agg.size(), static_cast<std::size_t>(k * half));
    EXPECT_EQ(ft.edge.size(), static_cast<std::size_t>(k * half));
    // Edge-to-edge diameter is 4 (edge-agg-core-agg-edge).
    const auto dist = ft.topo.bfs_distance(ft.edge.front());
    int max_edge_dist = 0;
    for (const NodeId e : ft.edge) max_edge_dist = std::max(max_edge_dist, dist[e]);
    EXPECT_EQ(max_edge_dist, 4);
    EXPECT_EQ(ft.topo.eccentricity(ft.edge.front()), 4);
  }
  EXPECT_THROW(make_fat_tree(3), std::invalid_argument);
  EXPECT_THROW(make_fat_tree(0), std::invalid_argument);
}

TEST(TestTopology, MatchesFig5Structure) {
  const TestTopology tt = make_test_topology();
  EXPECT_EQ(tt.topo.num_nodes(), 5u);
  EXPECT_EQ(tt.topo.num_links(), 5u);
  EXPECT_EQ(tt.service_nodes.size(), 4u);
  // The front-end has exactly two incident links (its k=2 minimal cut).
  EXPECT_EQ(tt.topo.neighbors(tt.front_end).size(), 2u);
  // Removing any single link keeps everything reachable.
  for (LinkId l = 0; l < tt.topo.num_links(); ++l) {
    std::vector<bool> up(tt.topo.num_links(), true);
    up[l] = false;
    const auto reach = tt.topo.reachable_from(tt.front_end, up);
    for (const NodeId s : tt.service_nodes) EXPECT_TRUE(reach[s]) << "link " << l;
  }
}

// Property test: the symbolic reachability formula evaluated on a concrete
// link assignment agrees with concrete BFS, across random failure patterns.
TEST(SymbolicReachability, AgreesWithBfsOnRandomFailures) {
  const TestTopology tt = make_test_topology();
  std::vector<expr::Expr> link_up;
  for (LinkId l = 0; l < tt.topo.num_links(); ++l)
    link_up.push_back(expr::bool_var("srch_up" + std::to_string(l)));
  const auto reach =
      symbolic_reachability(tt.topo, tt.front_end, link_up, /*depth=*/4);

  for (int mask = 0; mask < (1 << 5); ++mask) {
    std::vector<bool> up(5);
    expr::Env env;
    for (int l = 0; l < 5; ++l) {
      up[l] = (mask >> l) & 1;
      env.set(link_up[l], up[l]);
    }
    const auto concrete = tt.topo.reachable_from(tt.front_end, up);
    for (NodeId v = 0; v < tt.topo.num_nodes(); ++v)
      EXPECT_EQ(expr::eval_bool(reach[v], env), concrete[v]) << "mask=" << mask;
  }
}

TEST(SymbolicReachability, FatTreeDepthFourIsSufficient) {
  // On a fat tree, depth-4 unrolling equals full-depth reachability for
  // every single-link failure (spot check across all single failures).
  const FatTree ft = make_fat_tree(4);
  std::vector<expr::Expr> link_up;
  for (LinkId l = 0; l < ft.topo.num_links(); ++l)
    link_up.push_back(expr::bool_var("ft4_up" + std::to_string(l)));
  const auto reach4 = symbolic_reachability(ft.topo, ft.edge[0], link_up, 4);

  for (LinkId failed = 0; failed < ft.topo.num_links(); ++failed) {
    std::vector<bool> up(ft.topo.num_links(), true);
    up[failed] = false;
    expr::Env env;
    for (LinkId l = 0; l < ft.topo.num_links(); ++l) env.set(link_up[l], up[l]);
    const auto concrete = ft.topo.reachable_from(ft.edge[0], up);
    for (const NodeId e : ft.edge)
      EXPECT_EQ(expr::eval_bool(reach4[e], env), concrete[e]);
  }
}

TEST(Ecmp, PathsAreShortestAndDeterministic) {
  const FatTree ft = make_fat_tree(4);
  const NodeId src = ft.edge[0];
  const NodeId dst = ft.edge[5];  // different pod
  const auto path1 = ecmp_path(ft.topo, src, dst, /*seed=*/7);
  const auto path2 = ecmp_path(ft.topo, src, dst, /*seed=*/7);
  EXPECT_EQ(path1, path2);  // deterministic per seed
  EXPECT_EQ(path1.size(), 4u);  // inter-pod shortest path

  // Different seeds cover more than one equal-cost path.
  std::set<std::vector<LinkId>> distinct;
  for (std::uint64_t seed = 0; seed < 16; ++seed)
    distinct.insert(ecmp_path(ft.topo, src, dst, seed));
  EXPECT_GT(distinct.size(), 1u);
}

TEST(Ecmp, PathIsConnectedSrcToDst) {
  const FatTree ft = make_fat_tree(6);
  const NodeId src = ft.edge[1];
  const NodeId dst = ft.edge[10];
  const auto path = ecmp_path(ft.topo, src, dst, 3);
  NodeId at = src;
  for (const LinkId l : path) {
    const auto [a, b] = ft.topo.endpoints(l);
    ASSERT_TRUE(a == at || b == at);
    at = (a == at) ? b : a;
  }
  EXPECT_EQ(at, dst);
}

TEST(LinkFailures, BudgetIsRespected) {
  // With budget k, no reachable state may have more than k failed links.
  const TestTopology tt = make_test_topology();
  LinkFailureModel model = make_link_failure_model(tt.topo, "lf1", 2);
  const std::vector<mdl::Module> modules{model.module};
  ts::TransitionSystem sys = mdl::compose(modules);
  sys.add_param_constraint(expr::mk_eq(model.budget, expr::int_const(1)));

  std::vector<expr::Expr> down;
  for (expr::Expr up : model.link_up) down.push_back(expr::mk_not(up));
  const expr::Expr too_many = expr::mk_le(expr::count_true(down), expr::int_const(1));
  const auto outcome = core::check_invariant_bmc(sys, too_many, {.max_depth = 6});
  EXPECT_EQ(outcome.verdict, core::Verdict::kBoundReached);

  // And exactly k failures are reachable.
  const expr::Expr exactly_one =
      expr::mk_not(expr::mk_eq(expr::count_true(down), expr::int_const(1)));
  EXPECT_EQ(core::check_invariant_bmc(sys, exactly_one).verdict,
            core::Verdict::kViolated);
}

}  // namespace
}  // namespace verdict::net
