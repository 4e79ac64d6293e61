#include <gtest/gtest.h>

#include "exact/brute_force.h"
#include "exact/stoer_wagner.h"
#include "graph/generators.h"

namespace ampccut {
namespace {

TEST(StoerWagner, Triangle) {
  WGraph g;
  g.n = 3;
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 3);
  g.add_edge(0, 2, 5);
  const auto r = stoer_wagner_min_cut(g);
  EXPECT_EQ(r.weight, 5u);  // isolate vertex 1
  EXPECT_EQ(cut_weight(g, r.side), r.weight);
}

TEST(StoerWagner, BarbellFindsBridge) {
  const WGraph g = gen_barbell(16);
  const auto r = stoer_wagner_min_cut(g);
  EXPECT_EQ(r.weight, 1u);
  EXPECT_EQ(cut_weight(g, r.side), 1u);
}

TEST(StoerWagner, DisconnectedIsZero) {
  WGraph g;
  g.n = 4;
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto r = stoer_wagner_min_cut(g);
  EXPECT_EQ(r.weight, 0u);
}

TEST(StoerWagner, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const WGraph g = gen_erdos_renyi(10, 0.4, seed);
    WGraph w = g;
    randomize_weights(w, 8, seed + 100);
    const auto sw = stoer_wagner_min_cut(w);
    const auto bf = brute_force_min_cut(w);
    EXPECT_EQ(sw.weight, bf.weight) << "seed " << seed;
    EXPECT_EQ(cut_weight(w, sw.side), sw.weight);
  }
}

TEST(StoerWagner, MergesParallelEdges) {
  WGraph g;
  g.n = 3;
  g.add_edge(0, 1, 1);
  g.add_edge(0, 1, 1);  // parallel
  g.add_edge(1, 2, 3);
  g.add_edge(0, 2, 1);
  const auto r = stoer_wagner_min_cut(g);
  EXPECT_EQ(r.weight, 3u);  // isolate vertex 0: 1+1+1

  // A parallel edge next to an infinite one must saturate, not wrap to 0:
  // the only finite cut isolates vertex 2.
  WGraph inf;
  inf.n = 3;
  inf.add_edge(0, 1, kInfiniteWeight);
  inf.add_edge(0, 1, 1);
  inf.add_edge(1, 2, 5);
  EXPECT_EQ(stoer_wagner_min_cut(inf).weight, 5u);
  EXPECT_EQ(brute_force_min_cut(inf).weight, 5u);
}

TEST(BruteForce, PathGraph) {
  const WGraph g = gen_path(6);
  const auto r = brute_force_min_cut(g);
  EXPECT_EQ(r.weight, 1u);
}

TEST(BruteForce, KCutOnTwoTriangles) {
  // Two triangles joined by one edge: 2-cut = 1; 3-cut must break a triangle.
  WGraph g;
  g.n = 6;
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  g.add_edge(2, 3);
  const auto k2 = brute_force_min_k_cut(g, 2);
  EXPECT_EQ(k2.weight, 1u);
  const auto k3 = brute_force_min_k_cut(g, 3);
  EXPECT_EQ(k3.weight, 3u);
  EXPECT_EQ(k_cut_weight(g, k3.part), k3.weight);
}

TEST(BruteForce, KCutDegenerateCases) {
  const WGraph g = gen_complete(4);
  const auto k1 = brute_force_min_k_cut(g, 1);
  EXPECT_EQ(k1.weight, 0u);
  const auto kn = brute_force_min_k_cut(g, 4);
  EXPECT_EQ(kn.weight, 6u);  // all edges cut
}

TEST(MinSingletonDegree, Simple) {
  WGraph g;
  g.n = 3;
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 3);
  g.add_edge(0, 2, 5);
  EXPECT_EQ(min_singleton_degree(g), 5u);
}

}  // namespace
}  // namespace ampccut
