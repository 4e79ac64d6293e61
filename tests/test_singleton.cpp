// The library's central correctness contract: the paper's tracker
// (Sections 3+4, run on the AMPC runtime) must agree EXACTLY with the
// small-to-large oracle on the same contraction order, across graph
// families, weights and seeds, and its witness must reconstruct.
#include <gtest/gtest.h>

#include <cmath>

#include "ampc_algo/singleton_ampc.h"
#include "exact/brute_force.h"
#include "graph/generators.h"
#include "mincut/singleton.h"

namespace ampccut {
namespace {

void expect_trackers_agree(const WGraph& g, std::uint64_t seed) {
  const ContractionOrder o = make_contraction_order(g, seed);
  const SingletonCutResult oracle = min_singleton_cut_oracle(g, o);
  ampc::Runtime rt(ampc::Config::for_problem(g.n + g.m(), 0.5));
  const SingletonCutResult got = ampc::ampc_min_singleton_cut(rt, g, o);
  ASSERT_EQ(got.weight, oracle.weight)
      << "trackers disagree on n=" << g.n << " m=" << g.m()
      << " seed=" << seed;
  // The AMPC tracker's witness must reconstruct to a bag of that weight.
  const auto bag = reconstruct_bag(g, o, got.rep, got.time);
  EXPECT_EQ(cut_weight(g, bag), got.weight);
}

TEST(SingletonTrackers, AgreeOnTinyGraphs) {
  WGraph k2;
  k2.n = 2;
  k2.add_edge(0, 1, 7);
  expect_trackers_agree(k2, 0);

  WGraph tri;
  tri.n = 3;
  tri.add_edge(0, 1, 2);
  tri.add_edge(1, 2, 3);
  tri.add_edge(0, 2, 5);
  for (std::uint64_t s = 0; s < 10; ++s) expect_trackers_agree(tri, s);
}

TEST(SingletonTrackers, AgreeOnRandomUnitGraphs) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const VertexId n = 4 + static_cast<VertexId>(seed % 40);
    const WGraph g = gen_erdos_renyi(n, 0.25, seed);
    expect_trackers_agree(g, seed * 13 + 1);
  }
}

TEST(SingletonTrackers, AgreeOnRandomWeightedGraphs) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    WGraph g = gen_erdos_renyi(6 + static_cast<VertexId>(seed % 30), 0.35,
                               seed + 500);
    randomize_weights(g, 20, seed);
    expect_trackers_agree(g, seed * 7 + 3);
  }
}

TEST(SingletonTrackers, AgreeOnStructuredFamilies) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    expect_trackers_agree(gen_cycle(30), seed);
    expect_trackers_agree(gen_grid(6, 7), seed);
    expect_trackers_agree(gen_barbell(16), seed);
    expect_trackers_agree(gen_planted_cut(40, 0.4, 2, seed), seed);
    expect_trackers_agree(gen_communities(40, 4, 0.5, 2, seed), seed);
    expect_trackers_agree(gen_complete(12), seed);
    expect_trackers_agree(gen_preferential_attachment(40, 2, seed), seed);
  }
}

TEST(SingletonTrackers, AgreeOnTrees) {
  // On a tree every contraction bag is a subtree; min singleton cut relates
  // to leaf structure. Good stress for boundary/cap handling.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    expect_trackers_agree(gen_random_tree(40, seed), seed + 2);
    expect_trackers_agree(gen_path(25), seed);
    expect_trackers_agree(gen_star(25), seed);
  }
}

TEST(SingletonTrackers, AgreeOnMultigraphs) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    WGraph g;
    g.n = 8;
    // Dense multigraph with parallel edges.
    for (VertexId u = 0; u < g.n; ++u) {
      for (VertexId v = u + 1; v < g.n; ++v) {
        g.add_edge(u, v, 1 + (u + v + seed) % 4);
        if ((u + 2 * v + seed) % 3 == 0) g.add_edge(u, v, 2);
      }
    }
    expect_trackers_agree(g, seed);
  }
}

TEST(SingletonCut, UpperBoundsMinDegreeAndLowerBoundsMinCut) {
  // The process includes every t=0 singleton {v}, so the result is at most
  // the min weighted degree; and every bag is a real cut, so it is at least
  // the true min cut.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const WGraph g = gen_erdos_renyi(18, 0.4, seed);
    const ContractionOrder o = make_contraction_order(g, seed);
    const auto r = min_singleton_cut_oracle(g, o);
    EXPECT_LE(r.weight, min_singleton_degree(g));
    EXPECT_GE(r.weight, brute_force_min_cut(g).weight);
  }
}

TEST(SingletonCut, OracleWitnessReconstructs) {
  const WGraph g = gen_planted_cut(30, 0.5, 2, 3);
  const ContractionOrder o = make_contraction_order(g, 11);
  const auto r = min_singleton_cut_oracle(g, o);
  const auto bag = reconstruct_bag(g, o, r.rep, r.time);
  EXPECT_EQ(cut_weight(g, bag), r.weight);
  // Proper, non-empty side.
  const auto total = static_cast<std::size_t>(
      std::count(bag.begin(), bag.end(), 1));
  EXPECT_GE(total, 1u);
  EXPECT_LT(total, static_cast<std::size_t>(g.n));
}

TEST(SingletonCut, IntervalStatsWithinPaperBounds) {
  // Lemma 9's memory blowup: at most 2m intervals per decomposition level
  // and at most lg^2 n + 2 lg n + 2 levels, so O(m log^2 n) in total.
  const WGraph g = gen_erdos_renyi(200, 0.05, 21);
  const ContractionOrder o = make_contraction_order(g, 2);
  ampc::Runtime rt(ampc::Config::for_problem(g.n + g.m(), 0.5));
  std::uint64_t intervals = 0;
  (void)ampc::ampc_min_singleton_cut(rt, g, o, {}, &intervals);
  const double lg = std::log2(200.0);
  const auto max_height = static_cast<std::uint64_t>(lg * lg + 2 * lg + 2);
  EXPECT_GT(intervals, 0u);
  EXPECT_LE(intervals, 2 * g.m() * max_height);
}

TEST(SingletonCut, OracleBoundaryThroughInfiniteEdgesDoesNotWrap) {
  // {0} has boundary inf + inf + 3, which a 64-bit running sum wraps to 1.
  WGraph g;
  g.n = 5;
  g.add_edge(0, 1, kInfiniteWeight);
  g.add_edge(0, 2, kInfiniteWeight);
  g.add_edge(0, 3, 3);
  g.add_edge(1, 2, 2);
  g.add_edge(2, 3, 2);
  g.add_edge(3, 4, 5);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const ContractionOrder o = make_contraction_order(g, seed);
    const auto r = min_singleton_cut_oracle(g, o);
    EXPECT_EQ(r.weight, 5u) << "seed " << seed;
    const auto bag = reconstruct_bag(g, o, r.rep, r.time);
    EXPECT_EQ(cut_weight(g, bag), r.weight) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ampccut
