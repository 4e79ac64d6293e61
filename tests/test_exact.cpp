#include <gtest/gtest.h>

#include <algorithm>

#include "exact/brute_force.h"
#include "exact/stoer_wagner.h"
#include "graph/generators.h"
#include "support/rng.h"

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

// One graph of the pinned corpus below. Shapes: 0 random multigraph,
// 1 sparse (often disconnected), 2 two halves with no edge between them,
// 3 weights in {1, 2} (tie-heavy: the pick rule decides the witness).
// Endpoints are drawn independently, so self-loops and parallel edges occur;
// about a quarter of the graphs carry kInfiniteWeight edges.
WGraph sw_corpus_graph(std::uint64_t seed, VertexId n) {
  Rng rng(seed);
  WGraph g;
  g.n = n;
  const std::uint64_t shape = rng.next_below(4);
  const bool with_inf = rng.next_below(4) == 0;
  const std::uint64_t m =
      shape == 1 ? rng.next_below(n) + 1 : rng.next_below(3 * n) + n;
  const VertexId half = n / 2;
  for (std::uint64_t i = 0; i < m; ++i) {
    auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n));
    if (shape == 2 && (u < half) != (v < half)) {
      v = u < half ? v % half : half + v % (n - half);
    }
    Weight w = shape == 3 ? 1 + rng.next_below(2) : 1 + rng.next_below(100);
    if (with_inf && rng.next_below(16) == 0) w = kInfiniteWeight;
    g.edges.push_back({u, v, w});
    if (rng.next_below(8) == 0) g.edges.push_back({u, v, w});  // parallel
  }
  return g;
}

// Pins Stoer–Wagner's exact outputs: the weight AND the witness side, which
// depend on the pick rule (maximum connectivity, lowest id on ties, each
// phase started at the lowest active id). Any rewrite must keep this digest.
TEST(StoerWagner, PinnedCorpusDigest) {
  std::uint64_t h = 0;
  std::size_t graphs = 0, loops = 0, infinite = 0, disconnected = 0;
  const auto fold = [&](const WGraph& g) {
    const MinCutResult r = stoer_wagner_min_cut(g);
    h = splitmix64(h ^ r.weight);
    for (VertexId v = 0; v < g.n; ++v) {
      if (r.side[v] != 0) h = splitmix64(h + v + 1);
    }
    h = splitmix64(h ^ r.side.size());
    ++graphs;
    loops += std::any_of(g.edges.begin(), g.edges.end(),
                         [](const WEdge& e) { return e.u == e.v; });
    infinite += std::any_of(g.edges.begin(), g.edges.end(), [](const WEdge& e) {
      return e.w == kInfiniteWeight;
    });
    disconnected += r.weight == 0;
  };
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    fold(sw_corpus_graph(seed, static_cast<VertexId>(2 + seed % 39)));
  }
  for (const VertexId n : {64u, 100u, 128u, 200u, 256u}) {
    fold(sw_corpus_graph(7919 * n, n));
  }
  // Every cut infinite: the weight stays kInfiniteWeight, the side all 0.
  WGraph all_inf = gen_complete(5);
  for (WEdge& e : all_inf.edges) e.w = kInfiniteWeight;
  fold(all_inf);
  EXPECT_EQ(graphs, 2006u);
  EXPECT_GE(loops, 200u);
  EXPECT_GE(infinite, 200u);
  EXPECT_GE(disconnected, 200u);
  EXPECT_EQ(h, 0x9460135537839cd7ull) << std::hex << "digest 0x" << h;
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
