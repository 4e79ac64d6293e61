#include <gtest/gtest.h>

#include <numeric>

#include "ampc_algo/list_ranking.h"
#include "ampc_algo/msf.h"
#include "ampc_algo/prefix_min.h"
#include "ampc_algo/tree_ops.h"
#include "graph/generators.h"
#include "mincut/contraction.h"
#include "support/rng.h"
#include "tree/hld.h"

namespace ampccut::ampc {
namespace {

Runtime make_rt(std::uint64_t problem, double eps = 0.5) {
  return Runtime(Config::for_problem(problem, eps));
}

// Build a random permutation list: next[] chains elements in random order.
struct RandomList {
  std::vector<std::uint64_t> next;
  std::vector<std::uint64_t> order;  // order[k] = k-th element of the chain
};
RandomList random_list(std::uint64_t n, std::uint64_t seed) {
  RandomList l;
  l.order.resize(n);
  std::iota(l.order.begin(), l.order.end(), 0);
  Rng rng(seed);
  std::shuffle(l.order.begin(), l.order.end(), rng);
  l.next.assign(n, kNoNext);
  for (std::uint64_t k = 0; k + 1 < n; ++k) l.next[l.order[k]] = l.order[k + 1];
  return l;
}

TEST(AmpcListRank, SuffixCountsOnChain) {
  for (const std::uint64_t n : {1u, 2u, 17u, 100u, 5000u}) {
    const RandomList l = random_list(n, n);
    Runtime rt = make_rt(n);
    const auto rank = list_rank(rt, l.next, std::vector<std::int64_t>(n, 1));
    for (std::uint64_t k = 0; k < n; ++k) {
      EXPECT_EQ(rank[l.order[k]], static_cast<std::int64_t>(n - k)) << n;
    }
  }
}

TEST(AmpcListRank, WeightedAndNegativeValues) {
  const std::uint64_t n = 2000;
  const RandomList l = random_list(n, 3);
  std::vector<std::int64_t> vals(n);
  Rng rng(9);
  for (auto& v : vals) v = static_cast<std::int64_t>(rng.next_below(21)) - 10;
  Runtime rt = make_rt(n);
  const auto rank = list_rank(rt, l.next, vals);
  std::int64_t suffix = 0;
  for (std::uint64_t k = n; k-- > 0;) {
    suffix += vals[l.order[k]];
    EXPECT_EQ(rank[l.order[k]], suffix);
  }
}

TEST(AmpcListRank, MultipleListsAtOnce) {
  // Three disjoint chains in one array.
  std::vector<std::uint64_t> next{1, 2, kNoNext, 4, kNoNext, kNoNext};
  std::vector<std::int64_t> vals{1, 2, 3, 4, 5, 6};
  Runtime rt = make_rt(6);
  const auto rank = list_rank(rt, next, vals);
  EXPECT_EQ(rank[0], 6);  // 1+2+3
  EXPECT_EQ(rank[1], 5);
  EXPECT_EQ(rank[2], 3);
  EXPECT_EQ(rank[3], 9);  // 4+5
  EXPECT_EQ(rank[4], 5);
  EXPECT_EQ(rank[5], 6);
}

TEST(AmpcListRank, RoundsStayFlatAcrossSizes) {
  // O(1/eps) rounds: growing n by 16x must not grow rounds proportionally.
  std::uint64_t rounds_small = 0, rounds_large = 0;
  {
    Runtime rt = make_rt(1 << 10);
    const RandomList l = random_list(1 << 10, 1);
    (void)list_rank(rt, l.next, std::vector<std::int64_t>(1 << 10, 1));
    rounds_small = rt.metrics().rounds;
  }
  {
    Runtime rt = make_rt(1 << 14);
    const RandomList l = random_list(1 << 14, 1);
    (void)list_rank(rt, l.next, std::vector<std::int64_t>(1 << 14, 1));
    rounds_large = rt.metrics().rounds;
  }
  EXPECT_LE(rounds_large, rounds_small + 6);
}

TEST(AmpcPrefix, MinPrefixSumFindsWitness) {
  std::vector<std::int64_t> vals{3, -1, -4, 2, -7, 10};
  // prefixes: 3, 2, -2, 0, -7, 3 -> min -7 at index 4
  Runtime rt = make_rt(64);
  const auto r = segmented_min_prefix_sum(rt, vals, {0, vals.size()});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].min_prefix, -7);
  EXPECT_EQ(r[0].argmin, 4u);
}

TEST(AmpcPrefix, SegmentedMinPrefix) {
  // Segments: [1,-2] ; [] ; [5, -1, -1, -1]
  std::vector<std::int64_t> vals{1, -2, 5, -1, -1, -1};
  std::vector<std::uint64_t> offsets{0, 2, 2, 6};
  Runtime rt = make_rt(64);
  const auto r = segmented_min_prefix_sum(rt, vals, offsets);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].min_prefix, -1);
  EXPECT_EQ(r[0].argmin, 1u);
  EXPECT_EQ(r[1].min_prefix, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(r[2].min_prefix, 2);
  EXPECT_EQ(r[2].argmin, 3u);
}

TEST(AmpcPrefix, SegmentedManyRandomSegments) {
  Rng rng(11);
  std::vector<std::int64_t> vals;
  std::vector<std::uint64_t> offsets{0};
  const int segs = 50;
  for (int s = 0; s < segs; ++s) {
    const std::uint64_t len = rng.next_below(40);
    for (std::uint64_t i = 0; i < len; ++i) {
      vals.push_back(static_cast<std::int64_t>(rng.next_below(11)) - 5);
    }
    offsets.push_back(vals.size());
  }
  Runtime rt = make_rt(256, 0.4);
  const auto got = segmented_min_prefix_sum(rt, vals, offsets);
  for (int s = 0; s < segs; ++s) {
    std::int64_t acc = 0, best = std::numeric_limits<std::int64_t>::max();
    std::uint64_t arg = 0;
    for (std::uint64_t i = offsets[s]; i < offsets[s + 1]; ++i) {
      acc += vals[i];
      if (acc < best) {
        best = acc;
        arg = i - offsets[s];
      }
    }
    EXPECT_EQ(got[s].min_prefix, best) << "segment " << s;
    if (best != std::numeric_limits<std::int64_t>::max()) {
      EXPECT_EQ(got[s].argmin, arg) << "segment " << s;
    }
  }
}

TEST(AmpcTreeOps, MatchesSequentialRooting) {
  for (const WGraph& g :
       {gen_path(200), gen_star(200), gen_broom(200), gen_binary_tree(255),
        gen_random_tree(300, 7), gen_caterpillar(40, 4)}) {
    std::vector<TimeStep> times(g.edges.size());
    for (std::size_t i = 0; i < times.size(); ++i) {
      times[i] = static_cast<TimeStep>(i + 1);
    }
    Runtime rt = make_rt(g.n);
    const AmpcRootedTree a = ampc_root_tree(rt, g.n, g.edges, times, 0);
    const RootedTree s = build_rooted_tree(g.n, g.edges, times, 0);
    for (VertexId v = 0; v < g.n; ++v) {
      EXPECT_EQ(a.parent[v], s.parent[v]) << "n=" << g.n << " v=" << v;
      EXPECT_EQ(a.parent_time[v], s.parent_time[v]);
      EXPECT_EQ(a.depth[v], s.depth[v]);
      EXPECT_EQ(a.subtree[v], s.subtree[v]);
    }
  }
}

TEST(AmpcTreeOps, PreorderIsAValidDfsNumbering) {
  const WGraph g = gen_random_tree(400, 13);
  std::vector<TimeStep> times(g.edges.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    times[i] = static_cast<TimeStep>(i + 1);
  }
  Runtime rt = make_rt(g.n);
  const AmpcRootedTree a = ampc_root_tree(rt, g.n, g.edges, times, 0);
  // Preorder is a permutation; children come after parents; a subtree
  // occupies a contiguous preorder range.
  std::vector<std::uint8_t> seen(g.n, 0);
  for (VertexId v = 0; v < g.n; ++v) {
    ASSERT_LT(a.preorder[v], g.n);
    EXPECT_FALSE(seen[a.preorder[v]]);
    seen[a.preorder[v]] = 1;
    if (a.parent[v] != kInvalidVertex) {
      EXPECT_GT(a.preorder[v], a.preorder[a.parent[v]]);
      EXPECT_LT(a.preorder[v], a.preorder[a.parent[v]] + a.subtree[a.parent[v]]);
    }
  }
}

TEST(AmpcComponents, FindsComponents) {
  WGraph g = gen_two_cycles(40);
  Runtime rt = make_rt(g.n);
  const auto label = ampc_components(rt, g);
  EXPECT_EQ(label[0], 0u);
  EXPECT_EQ(label[25], 20u);
  for (VertexId v = 0; v < 20; ++v) EXPECT_EQ(label[v], 0u);
  for (VertexId v = 20; v < 40; ++v) EXPECT_EQ(label[v], 20u);
}

TEST(AmpcComponents, RoundsBeatMpcOnCycles) {
  // The adaptive walks collapse a cycle in a handful of rounds even as n
  // grows 16x (1-vs-2-cycle motivation, E7).
  std::uint64_t rounds_small = 0, rounds_large = 0;
  {
    Runtime rt = make_rt(1 << 9);
    (void)ampc_components(rt, gen_cycle(1 << 9));
    rounds_small = rt.metrics().rounds;
  }
  {
    Runtime rt = make_rt(1 << 13);
    (void)ampc_components(rt, gen_cycle(1 << 13));
    rounds_large = rt.metrics().rounds;
  }
  EXPECT_LE(rounds_large, rounds_small + 4);
}

TEST(AmpcMsf, BothVariantsMatchKruskal) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const WGraph g = gen_erdos_renyi(60, 0.15, seed);
    const ContractionOrder o = make_contraction_order(g, seed + 5);
    const auto want = msf_edges_by_time(g, o);
    Runtime rt1 = make_rt(g.n + g.m());
    EXPECT_EQ(ampc_msf_boruvka(rt1, g, o), want) << "seed " << seed;
    Runtime rt2 = make_rt(g.n + g.m());
    EXPECT_EQ(ampc_msf_cited(rt2, g, o), want);
    EXPECT_GT(rt2.metrics().charged_rounds, 0u);
  }
}

TEST(AmpcMsf, BoruvkaHandlesForests) {
  const WGraph g = gen_two_cycles(30);
  const ContractionOrder o = make_contraction_order(g, 2);
  Runtime rt = make_rt(g.n + g.m());
  const auto forest = ampc_msf_boruvka(rt, g, o);
  EXPECT_EQ(forest, msf_edges_by_time(g, o));
  EXPECT_EQ(forest.size(), g.n - 2u);
}

}  // namespace
}  // namespace ampccut::ampc
