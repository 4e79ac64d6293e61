// Parameterized property sweeps (TEST_P): the library's invariants checked
// across the full (family x seed) grid rather than hand-picked instances.
//
//  P1  tracker equivalence      — oracle == AMPC interval tracker, any graph
//  P2  decomposition validity   — Definition 1 + Lemma 10 on any tree
//  P3  approximation guarantee  — (2+eps) min cut on any connected graph
//  P4  k-cut guarantee          — (4+eps) for all k on small graphs
//  P5  Gomory-Hu correctness    — all-pairs cut encoding per seed
#include <gtest/gtest.h>

#include "ampc_algo/singleton_ampc.h"
#include "exact/brute_force.h"
#include "exact/stoer_wagner.h"
#include "flow/dinic.h"
#include "flow/gomory_hu.h"
#include "graph/generators.h"
#include "mincut/kcut.h"
#include "mincut/mincut_recursive.h"
#include "mincut/singleton.h"
#include "support/rng.h"
#include "tree/low_depth.h"

namespace ampccut {
namespace {

// ---------------------------------------------------------------- P1 ------
struct GraphCase {
  std::string family;
  std::uint64_t seed;
};

void PrintTo(const GraphCase& c, std::ostream* os) {
  *os << c.family << "/seed" << c.seed;
}

WGraph make_graph(const GraphCase& c) {
  const std::uint64_t s = c.seed;
  const auto n = static_cast<VertexId>(16 + (s * 13) % 40);
  if (c.family == "er_sparse") return gen_erdos_renyi(n, 0.15, s);
  if (c.family == "er_dense") return gen_erdos_renyi(n, 0.5, s);
  if (c.family == "weighted") {
    WGraph g = gen_erdos_renyi(n, 0.3, s);
    randomize_weights(g, 25, s + 1);
    return g;
  }
  if (c.family == "planted") return gen_planted_cut(2 * n, 0.35, 1 + s % 4, s);
  if (c.family == "community")
    return gen_communities(4 * n, 2 + s % 3, 0.4, 2, s);
  if (c.family == "cycle") return gen_cycle(n);
  if (c.family == "grid") return gen_grid(4 + s % 4, 5 + s % 3);
  if (c.family == "tree") return gen_random_tree(n, s);
  if (c.family == "pa") return gen_preferential_attachment(n, 2 + s % 3, s);
  return gen_complete(10 + s % 6);
}

class TrackerEquivalenceP : public ::testing::TestWithParam<GraphCase> {};

// The interval tracker is Section 4's, run on the AMPC runtime.
TEST_P(TrackerEquivalenceP, OracleEqualsIntervalTracker) {
  const WGraph g = make_graph(GetParam());
  const ContractionOrder o = make_contraction_order(g, GetParam().seed * 7 + 3);
  const auto oracle = min_singleton_cut_oracle(g, o);
  ampc::Runtime rt(ampc::Config::for_problem(g.n + g.m(), 0.5));
  const auto interval = ampc::ampc_min_singleton_cut(rt, g, o);
  ASSERT_EQ(interval.weight, oracle.weight);
  const auto bag = reconstruct_bag(g, o, interval.rep, interval.time);
  EXPECT_EQ(cut_weight(g, bag), interval.weight);
}

std::vector<GraphCase> grid_cases() {
  std::vector<GraphCase> cases;
  for (const char* family :
       {"er_sparse", "er_dense", "weighted", "planted", "community", "cycle",
        "grid", "tree", "pa", "complete"}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      cases.push_back({family, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Families, TrackerEquivalenceP, ::testing::ValuesIn(grid_cases()),
    [](const ::testing::TestParamInfo<GraphCase>& param_info) {
      return param_info.param.family + "_" +
             std::to_string(param_info.param.seed);
    });

// ---------------------------------------------------------------- P2 ------
struct TreeCase {
  std::string family;
  VertexId n;
  std::uint64_t seed;
};

void PrintTo(const TreeCase& c, std::ostream* os) {
  *os << c.family << "/n" << c.n << "/seed" << c.seed;
}

WGraph make_tree_graph(const TreeCase& c) {
  if (c.family == "path") return gen_path(c.n);
  if (c.family == "star") return gen_star(c.n);
  if (c.family == "broom") return gen_broom(std::max<VertexId>(3, c.n));
  if (c.family == "caterpillar") return gen_caterpillar(c.n / 4 + 1, 3);
  if (c.family == "binary") return gen_binary_tree(c.n);
  return gen_random_tree(c.n, c.seed);
}

class DecompositionP : public ::testing::TestWithParam<TreeCase> {};

TEST_P(DecompositionP, Definition1AndLemma10Hold) {
  const WGraph g = make_tree_graph(GetParam());
  std::vector<TimeStep> times(g.edges.size());
  for (std::size_t i = 0; i < times.size(); ++i)
    times[i] = static_cast<TimeStep>(i + 1);
  Rng rng(GetParam().seed);
  std::shuffle(times.begin(), times.end(), rng);
  const RootedTree rt = build_rooted_tree(g.n, g.edges, times, 0);
  const HeavyLight hl = build_heavy_light(rt);
  const auto d = build_low_depth_decomposition(rt, hl);
  ASSERT_TRUE(validate_low_depth_decomposition(rt, d));
  const auto stats = decomposition_stats(rt, hl, d);
  EXPECT_LE(stats.max_boundary_edges, 2u);
  const double lg = std::log2(std::max(2.0, static_cast<double>(g.n)));
  EXPECT_LE(stats.height, lg * lg + 2 * lg + 2);
  EXPECT_LE(stats.max_light_on_root_path, lg + 1);
}

std::vector<TreeCase> tree_cases() {
  std::vector<TreeCase> cases;
  for (const char* family :
       {"path", "star", "broom", "caterpillar", "binary", "random"}) {
    for (const VertexId n : {2u, 3u, 17u, 64u, 257u}) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        cases.push_back({family, n, seed});
        if (family != std::string("random")) break;  // deterministic shapes
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Trees, DecompositionP, ::testing::ValuesIn(tree_cases()),
    [](const ::testing::TestParamInfo<TreeCase>& param_info) {
      return param_info.param.family + "_n" +
             std::to_string(param_info.param.n) + "_s" +
             std::to_string(param_info.param.seed);
    });

// ---------------------------------------------------------------- P3 ------
class ApproxGuaranteeP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproxGuaranteeP, MinCutWithinTwoPlusEps) {
  const std::uint64_t seed = GetParam();
  WGraph g = gen_erdos_renyi(40 + seed % 30, 0.2, seed + 500);
  if (seed % 2 == 1) randomize_weights(g, 15, seed);
  ApproxMinCutOptions opt;
  opt.seed = seed;
  opt.trials = 2;
  opt.local_threshold = 20;
  const auto r = approx_min_cut(g, opt);
  const auto exact = stoer_wagner_min_cut(g);
  EXPECT_EQ(cut_weight(g, r.side), r.weight);
  EXPECT_GE(r.weight, exact.weight);
  EXPECT_LE(static_cast<double>(r.weight),
            2.9 * static_cast<double>(exact.weight) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxGuaranteeP, ::testing::Range<std::uint64_t>(0, 16));

// ---------------------------------------------------------------- P4 ------
class KCutGuaranteeP
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(KCutGuaranteeP, WithinFourPlusEpsOfBruteForce) {
  const auto [k, seed] = GetParam();
  const WGraph g = gen_erdos_renyi(9 + seed % 3, 0.5, seed + 900);
  ApproxMinCutOptions opt;
  opt.seed = seed;
  opt.trials = 2;
  const auto r = apx_split_k_cut_approx(g, k, opt);
  const auto exact = brute_force_min_k_cut(g, k);
  EXPECT_GE(r.num_parts, k);
  EXPECT_EQ(k_cut_weight(g, r.part), r.weight);
  EXPECT_LE(static_cast<double>(r.weight),
            4.9 * static_cast<double>(exact.weight) + 1e-9);
  // Saran–Vazirani with exact splitters tightens to (2-2/k).
  const auto sv = apx_split_k_cut_exact(g, k);
  EXPECT_LE(static_cast<double>(sv.weight),
            (2.0 - 2.0 / k) * static_cast<double>(exact.weight) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, KCutGuaranteeP,
                         ::testing::Combine(::testing::Values(2u, 3u, 4u),
                                            ::testing::Range<std::uint64_t>(0, 5)));

// ---------------------------------------------------------------- P5 ------
class GomoryHuP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GomoryHuP, TreeEncodesAllPairsCuts) {
  const std::uint64_t seed = GetParam();
  WGraph g = gen_erdos_renyi(11, 0.45, seed + 40);
  randomize_weights(g, 9, seed);
  const GomoryHuTree tree = build_gomory_hu(g);
  for (VertexId s = 0; s < g.n; ++s) {
    for (VertexId t = s + 1; t < g.n; ++t) {
      ASSERT_EQ(tree.min_cut(s, t), st_min_cut(g, s, t))
          << "pair " << s << "," << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GomoryHuP, ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace ampccut
