#include <gtest/gtest.h>

#include "exact/brute_force.h"
#include "flow/gomory_hu.h"
#include "graph/generators.h"
#include "mincut/kcut.h"

namespace ampccut {
namespace {

ApproxMinCutOptions fast_opts(std::uint64_t seed) {
  ApproxMinCutOptions o;
  o.seed = seed;
  o.trials = 2;
  o.local_threshold = 24;
  return o;
}

void check_partition(const WGraph& g, const ApproxKCutResult& r,
                     std::uint32_t k) {
  EXPECT_GE(r.num_parts, k);
  EXPECT_EQ(r.part.size(), g.n);
  EXPECT_EQ(k_cut_weight(g, r.part), r.weight);
  // Parts are non-empty and contiguous ids.
  std::vector<int> count(r.num_parts, 0);
  for (const auto p : r.part) {
    ASSERT_LT(p, r.num_parts);
    ++count[p];
  }
  for (int c : count) EXPECT_GT(c, 0);
}

TEST(ApxSplit, ExactSplitterMatchesSaranVaziraniBound) {
  // With the exact splitter this is Saran–Vazirani: (2-2/k)-approximate.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const WGraph g = gen_erdos_renyi(10, 0.45, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const auto r = apx_split_k_cut_exact(g, k);
      check_partition(g, r, k);
      const auto exact = brute_force_min_k_cut(g, k);
      EXPECT_GE(r.weight, exact.weight);
      EXPECT_LE(static_cast<double>(r.weight),
                (2.0 - 2.0 / k) * static_cast<double>(exact.weight) + 1e-9)
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(ApxSplit, ApproxSplitterWithinFourPlusEps) {
  // Theorem 2: (2+eps)(2-2/k) <= 4+eps overall.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const WGraph g = gen_erdos_renyi(10, 0.5, seed + 20);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const auto r = apx_split_k_cut_approx(g, k, fast_opts(seed));
      check_partition(g, r, k);
      const auto exact = brute_force_min_k_cut(g, k);
      EXPECT_LE(static_cast<double>(r.weight),
                4.9 * static_cast<double>(exact.weight) + 1e-9)
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(ApxSplit, CommunitiesAreSeparatedAtBridges) {
  // k communities with 2 bridges each: the optimal k-cut removes the 2k
  // bridge edges (ring topology), so the greedy result should land there
  // or very close.
  const std::uint32_t k = 4;
  const WGraph g = gen_communities(60, k, 0.6, 2, 5);
  const auto r = apx_split_k_cut_approx(g, k, fast_opts(5));
  check_partition(g, r, k);
  EXPECT_LE(r.weight, 2u * k + 2u);
}

TEST(ApxSplit, KEqualsOneIsTrivial) {
  const WGraph g = gen_cycle(12);
  const auto r = apx_split_k_cut_exact(g, 1);
  EXPECT_EQ(r.weight, 0u);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.num_parts, 1u);
}

TEST(ApxSplit, DisconnectedInputCountsExistingParts) {
  const WGraph g = gen_two_cycles(20);  // already 2 components
  const auto r2 = apx_split_k_cut_exact(g, 2);
  EXPECT_EQ(r2.weight, 0u);
  EXPECT_EQ(r2.iterations, 0u);
  const auto r3 = apx_split_k_cut_exact(g, 3);
  EXPECT_EQ(r3.weight, 2u);  // cut one cycle open
  check_partition(g, r3, 3);
}

TEST(ApxSplit, KEqualsNCutsEverything) {
  const WGraph g = gen_complete(6);
  const auto r = apx_split_k_cut_exact(g, 6);
  EXPECT_EQ(r.num_parts, 6u);
  EXPECT_EQ(r.weight, 15u);  // all 6*5/2 unit edges
}

TEST(ApxSplit, MatchesGomoryHuBaselineShape) {
  // Both greedy-split (exact splitter) and the GH construction are
  // (2-2/k)-approximations; neither should beat the other by more than that
  // factor on random graphs.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const WGraph g = gen_erdos_renyi(14, 0.4, seed + 60);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const auto greedy = apx_split_k_cut_exact(g, k);
      const auto gh = gomory_hu_k_cut(g, k);
      EXPECT_LE(static_cast<double>(greedy.weight),
                2.0 * static_cast<double>(gh.weight) + 1e-9);
      EXPECT_LE(static_cast<double>(gh.weight),
                2.0 * static_cast<double>(greedy.weight) + 1e-9);
    }
  }
}

TEST(ApxSplit, SaturatesInfiniteWeights) {
  // An infinite edge beside a parallel unit edge must saturate, not wrap to
  // 0: the only finite 2-cut isolates vertex 2 at weight 5.
  WGraph g;
  g.n = 3;
  g.add_edge(0, 1, kInfiniteWeight);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 5);
  EXPECT_EQ(brute_force_min_k_cut(g, 2).weight, 5u);
  const auto r = apx_split_k_cut_exact(g, 2);
  check_partition(g, r, 2);
  EXPECT_EQ(r.weight, 5u);
  // Every 3-cut crosses the infinite edge: k_cut_weight saturates at it.
  std::vector<std::uint32_t> all_apart{0, 1, 2};
  EXPECT_EQ(k_cut_weight(g, all_apart), kInfiniteWeight);
}

TEST(ApxSplit, WeightedCommunities) {
  WGraph g = gen_communities(40, 4, 0.7, 1, 9);
  // Make intra-community edges heavy so bridges are clearly optimal.
  const VertexId size = 10;
  for (auto& e : g.edges) {
    if (e.u / size == e.v / size) e.w = 10;
  }
  const auto r = apx_split_k_cut_approx(g, 4, fast_opts(2));
  EXPECT_EQ(r.weight, 4u);  // the 4 unit bridges
}

}  // namespace
}  // namespace ampccut
