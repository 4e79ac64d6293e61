#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "support/bits.h"
#include "support/rng.h"
#include "tree/hld.h"

namespace ampccut {
namespace {

struct TreeFixture {
  VertexId n;
  std::vector<WEdge> edges;
  std::vector<TimeStep> times;
  RootedTree rt;
  HeavyLight hl;

  TreeFixture(const WGraph& g, std::uint64_t seed, VertexId root = 0) {
    n = g.n;
    edges = g.edges;
    times.resize(edges.size());
    // Unique random times via shuffled ranks.
    std::vector<TimeStep> ranks(edges.size());
    for (std::size_t i = 0; i < ranks.size(); ++i)
      ranks[i] = static_cast<TimeStep>(i + 1);
    Rng rng(seed);
    std::shuffle(ranks.begin(), ranks.end(), rng);
    times = ranks;
    rt = build_rooted_tree(n, edges, times, root);
    hl = build_heavy_light(rt);
  }
};

TEST(RootedTree, ParentsDepthsSubtrees) {
  const WGraph g = gen_binary_tree(15);
  const TreeFixture f(g, 1);
  EXPECT_EQ(f.rt.parent[0], kInvalidVertex);
  EXPECT_EQ(f.rt.subtree[0], 15u);
  for (VertexId v = 1; v < 15; ++v) {
    EXPECT_EQ(f.rt.parent[v], (v - 1) / 2);
    EXPECT_EQ(f.rt.depth[v], f.rt.depth[(v - 1) / 2] + 1);
  }
  // Subtree sizes of a complete binary tree on 15 vertices.
  EXPECT_EQ(f.rt.subtree[1], 7u);
  EXPECT_EQ(f.rt.subtree[3], 3u);
  EXPECT_EQ(f.rt.subtree[7], 1u);
}

TEST(RootedTree, RejectsNonTree) {
  WGraph g;
  g.n = 4;
  g.add_edge(0, 1);
  g.add_edge(2, 3);  // disconnected: 2 edges for n=4
  std::vector<TimeStep> times{1, 2};
  EXPECT_THROW(build_rooted_tree(4, g.edges, times, 0), std::logic_error);
}

TEST(HeavyLight, EveryVertexOnExactlyOnePath) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const WGraph g = gen_random_tree(200, seed);
    const TreeFixture f(g, seed);
    std::vector<int> seen(g.n, 0);
    for (const auto& path : f.hl.paths) {
      ASSERT_FALSE(path.empty());
      for (std::size_t i = 0; i < path.size(); ++i) {
        ++seen[path[i]];
        EXPECT_EQ(f.hl.pos_in_path[path[i]], i);
        if (i > 0) {
          // Consecutive path vertices are parent/heavy-child pairs.
          EXPECT_EQ(f.rt.parent[path[i]], path[i - 1]);
          EXPECT_EQ(f.rt.heavy[path[i - 1]], path[i]);
        }
      }
    }
    for (int s : seen) EXPECT_EQ(s, 1);  // Observation 2
  }
}

TEST(HeavyLight, PathGraphIsOnePath) {
  const WGraph g = gen_path(50);
  const TreeFixture f(g, 3);
  EXPECT_EQ(f.hl.num_paths(), 1u);
  EXPECT_EQ(f.hl.paths[0].size(), 50u);
}

TEST(HeavyLight, StarHasOneNonTrivialPath) {
  const WGraph g = gen_star(20);
  const TreeFixture f(g, 3);
  // Root + one heavy child form one path; 18 leaves are singleton paths.
  EXPECT_EQ(f.hl.num_paths(), 19u);
}

TEST(HeavyLight, LightEdgesOnRootPathLogarithmic) {
  // Observation 1: every root-to-vertex path crosses O(log n) light edges.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const WGraph g = gen_random_tree(1000, seed);
    const TreeFixture f(g, seed);
    for (VertexId v = 0; v < g.n; ++v) {
      std::uint32_t light = 0;
      for (VertexId x = v; f.rt.parent[x] != kInvalidVertex;
           x = f.rt.parent[x]) {
        if (f.rt.heavy[f.rt.parent[x]] != x) ++light;
      }
      EXPECT_LE(light, floor_log2(g.n) + 1);
    }
  }
}

}  // namespace
}  // namespace ampccut
