#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/union_find.h"

namespace ampccut {
namespace {

WGraph triangle() {
  WGraph g;
  g.n = 3;
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 3);
  g.add_edge(0, 2, 5);
  return g;
}

TEST(Graph, BasicAccounting) {
  const WGraph g = triangle();
  EXPECT_EQ(g.m(), 3u);
  const auto deg = g.weighted_degrees();
  EXPECT_EQ(deg[0], 7u);
  EXPECT_EQ(deg[1], 5u);
  EXPECT_EQ(deg[2], 8u);
  EXPECT_EQ(deg[0] + deg[1] + deg[2], 2 * 10u);  // each edge counted twice
}

TEST(Graph, RejectsSelfLoopAndRange) {
  WGraph g;
  g.n = 2;
  EXPECT_THROW(g.add_edge(0, 0), std::logic_error);
  EXPECT_THROW(g.add_edge(0, 5), std::logic_error);
}

TEST(Graph, AdjacencyIsSymmetric) {
  const WGraph g = triangle();
  const Adjacency adj(g);
  EXPECT_EQ(adj.degree(0), 2u);
  EXPECT_EQ(adj.degree(1), 2u);
  EXPECT_EQ(adj.degree(2), 2u);
  // Each edge appears once from each side with consistent ids.
  std::size_t arcs = 0;
  for (VertexId v = 0; v < g.n; ++v) {
    for (const auto& a : adj.neighbors(v)) {
      ++arcs;
      const auto& e = g.edges[a.edge];
      EXPECT_TRUE((e.u == v && e.v == a.to) || (e.v == v && e.u == a.to));
      EXPECT_EQ(e.w, a.w);
    }
  }
  EXPECT_EQ(arcs, 2 * g.m());
}

TEST(Graph, ComponentsAndConnectivity) {
  WGraph g;
  g.n = 5;
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_EQ(count_components(g), 3u);
  EXPECT_FALSE(is_connected(g));
  const auto lab = component_labels(g);
  EXPECT_EQ(lab[0], lab[1]);
  EXPECT_EQ(lab[2], lab[3]);
  EXPECT_NE(lab[0], lab[2]);
  EXPECT_NE(lab[4], lab[0]);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  EXPECT_TRUE(is_connected(g));
}

TEST(Graph, CutWeight) {
  const WGraph g = triangle();
  EXPECT_EQ(cut_weight(g, {1, 0, 0}), 7u);
  EXPECT_EQ(cut_weight(g, {0, 1, 0}), 5u);
  EXPECT_EQ(cut_weight(g, {1, 1, 0}), 8u);
  EXPECT_EQ(cut_weight(g, {0, 0, 0}), 0u);
}

TEST(UnionFind, MergesAndCounts) {
  UnionFind uf(6);
  EXPECT_EQ(uf.num_components(), 6u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_TRUE(uf.unite(0, 3));
  EXPECT_EQ(uf.num_components(), 3u);
  EXPECT_TRUE(uf.same(1, 2));
  EXPECT_FALSE(uf.same(1, 4));
  EXPECT_EQ(uf.component_size(uf.find(0)), 4u);
}

}  // namespace
}  // namespace ampccut
