// Per-rule unit tests for the exact kernelization front-end (src/kernel):
// hand-built graphs with the exact expected kernel + lineage, unpack
// round-trips asserting the certificate's cut weight recomputed on the
// ORIGINAL graph equals the kernel-side answer, and thread-count
// bit-identity of the whole KernelResult (the tsan CI job runs this file).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exact/brute_force.h"
#include "exact/stoer_wagner.h"
#include "graph/generators.h"
#include "kernel/front.h"
#include "kernel/kernel.h"
#include "support/threadpool.h"

namespace ampccut {
namespace {

using kernel::KernelOptions;
using kernel::KernelResult;
using kernel::kernelize;

KernelOptions only_merge() {
  KernelOptions o = kernel::enabled_defaults();
  o.remove_low_degree = false;
  o.contract_heavy_edges = false;
  return o;
}

KernelOptions no_heavy() {
  KernelOptions o = kernel::enabled_defaults();
  o.contract_heavy_edges = false;
  return o;
}

KernelOptions no_peel() {
  KernelOptions o = kernel::enabled_defaults();
  o.remove_low_degree = false;
  return o;
}

// The members of one original vertex set `side` as a dense side vector.
std::vector<std::uint8_t> side_of(VertexId n,
                                  const std::vector<VertexId>& members) {
  std::vector<std::uint8_t> side(n, 0);
  for (const VertexId v : members) side[v] = 1;
  return side;
}

TEST(KernelRules, ParallelEdgeMergeProducesCanonicalKernel) {
  WGraph g;
  g.n = 3;
  g.add_edge(0, 1, 2);
  g.add_edge(1, 0, 3);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 1, 4);
  g.add_edge(0, 1, 5);

  const KernelResult kr = kernelize(g, only_merge());
  ASSERT_EQ(kr.kernel.n, 3u);
  const std::vector<WEdge> expected = {{0, 1, 10}, {1, 2, 5}};
  EXPECT_EQ(kr.kernel.edges, expected);
  EXPECT_EQ(kr.stats.merged_parallel, 3u);
  EXPECT_EQ(kr.stats.removed_degree_one, 0u);
  EXPECT_EQ(kr.stats.contracted_certified, 0u);
  // Merging alone removes no vertex: the lineage is the identity.
  EXPECT_EQ(kr.map.kernel_of, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(kr.map.candidate_weight, kInfiniteWeight);
  EXPECT_FALSE(kr.solved());
}

TEST(KernelRules, DegreeOneRemovalResolvesAnEdge) {
  WGraph g;
  g.n = 2;
  g.add_edge(0, 1, 4);

  const KernelResult kr = kernelize(g, no_heavy());
  ASSERT_TRUE(kr.solved());
  EXPECT_EQ(kr.stats.removed_degree_one, 1u);
  const MinCutResult r = kr.resolved_cut();
  EXPECT_EQ(r.weight, 4u);
  EXPECT_EQ(cut_weight(g, r.side), 4u);
}

TEST(KernelRules, StarResolvesToCheapestLeaf) {
  // Star around 0 with leaf weights 5, 3, 7: the min cut is the cheapest
  // leaf's singleton. The peel cascade removes everything.
  WGraph g;
  g.n = 4;
  g.add_edge(0, 1, 5);
  g.add_edge(0, 2, 3);
  g.add_edge(0, 3, 7);

  const KernelResult kr = kernelize(g, no_heavy());
  ASSERT_TRUE(kr.solved());
  const MinCutResult r = kr.resolved_cut();
  EXPECT_EQ(r.weight, 3u);
  EXPECT_EQ(r.side, side_of(4, {2}));
  EXPECT_EQ(cut_weight(g, r.side), 3u);
  EXPECT_EQ(r.weight, stoer_wagner_min_cut(g).weight);
}

TEST(KernelRules, DegreeTwoPathContractionKeepsExactKernel) {
  // K4 minus edge (2,3), with (2,3) subdivided through vertex 4 as
  // 2 -9- 4 -2- 3. The peel contracts 4 into an edge (2, 3, 2); without the
  // certified rule nothing else fires, leaving a 4-vertex kernel whose min
  // cut equals the original's.
  WGraph g;
  g.n = 5;
  g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 1);
  g.add_edge(0, 3, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(1, 3, 1);
  g.add_edge(2, 4, 9);
  g.add_edge(4, 3, 2);

  const KernelResult kr = kernelize(g, no_heavy());
  ASSERT_FALSE(kr.solved());
  ASSERT_EQ(kr.kernel.n, 4u);
  const std::vector<WEdge> expected = {{0, 1, 1}, {0, 2, 1}, {0, 3, 1},
                                       {1, 2, 1}, {1, 3, 1}, {2, 3, 2}};
  EXPECT_EQ(kr.kernel.edges, expected);
  EXPECT_EQ(kr.stats.removed_degree_two, 1u);
  // Vertex 4 rides with its heavier-edge neighbor 2.
  EXPECT_EQ(kr.map.kernel_of, (std::vector<VertexId>{0, 1, 2, 3, 2}));
  EXPECT_EQ(kr.map.candidate_weight, 11u);  // the removed vertex's singleton
  EXPECT_EQ(kr.map.candidate_members, (std::vector<VertexId>{4}));

  // Unpack round-trip: solving the kernel and lifting equals solving the
  // original, and the lifted side really cuts that much in the original.
  const MinCutResult kernel_cut = stoer_wagner_min_cut(kr.kernel);
  const MinCutResult lifted = kr.map.unpack(kernel_cut);
  EXPECT_EQ(lifted.weight, kernel_cut.weight);
  EXPECT_EQ(lifted.weight, stoer_wagner_min_cut(g).weight);
  EXPECT_EQ(cut_weight(g, lifted.side), lifted.weight);
}

TEST(KernelRules, DegreeTwoParallelPairCollapses) {
  // Weighted triangle: every vertex has degree 2, so the peel alone reduces
  // it fully; the a == b case (two parallel edges after the first
  // contraction) is exercised on the way.
  WGraph g;
  g.n = 3;
  g.add_edge(0, 1, 5);
  g.add_edge(0, 2, 3);
  g.add_edge(1, 2, 2);

  const KernelResult kr = kernelize(g, no_heavy());
  ASSERT_TRUE(kr.solved());
  EXPECT_EQ(kr.stats.removed_degree_two, 2u);
  const MinCutResult r = kr.resolved_cut();
  EXPECT_EQ(r.weight, 5u);  // the two cheapest edges: 3 + 2
  EXPECT_EQ(r.side, side_of(3, {2}));
  EXPECT_EQ(cut_weight(g, r.side), 5u);
}

TEST(KernelRules, CertifiedContractionMergesHeavyPairs) {
  // 4-cycle with weights 10, 1, 10, 1: the heavy edges certify (moving one
  // endpoint across a separating cut never helps) and contract, then the
  // remaining 2-vertex kernel resolves to the true min cut of 2.
  WGraph g;
  g.n = 4;
  g.add_edge(0, 1, 10);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 10);
  g.add_edge(3, 0, 1);

  const KernelResult kr = kernelize(g, no_peel());
  ASSERT_TRUE(kr.solved());
  EXPECT_EQ(kr.stats.contracted_certified, 3u);
  const MinCutResult r = kr.resolved_cut();
  EXPECT_EQ(r.weight, 2u);
  EXPECT_EQ(cut_weight(g, r.side), 2u);
  EXPECT_EQ(r.weight, stoer_wagner_min_cut(g).weight);
}

TEST(KernelRules, ConnectivityCertificateFiresOnCliques) {
  // Unit K4: no single edge is heavy, but every adjacent pair has
  // 1 + 2 * min(1, 1) = 3 >= lambda = 3 edge-disjoint connecting paths, so
  // the certificate contracts the whole clique and resolves mincut = 3.
  const WGraph g = gen_complete(4);
  const KernelResult kr = kernelize(g, no_peel());
  ASSERT_TRUE(kr.solved());
  EXPECT_EQ(kr.stats.contracted_certified, 3u);
  const MinCutResult r = kr.resolved_cut();
  EXPECT_EQ(r.weight, 3u);
  EXPECT_EQ(cut_weight(g, r.side), 3u);
}

TEST(KernelRules, BarbellResolvesToBridge) {
  // Two K8 blobs joined by one edge: the certificate collapses each clique,
  // the parallel merge leaves a single bridge edge, and the final heavy rule
  // resolves the planted min cut of 1 — the VieCut showcase instance.
  const WGraph g = gen_barbell(16);
  const KernelResult kr = kernelize(g, kernel::enabled_defaults());
  ASSERT_TRUE(kr.solved());
  const MinCutResult r = kr.resolved_cut();
  EXPECT_EQ(r.weight, 1u);
  EXPECT_EQ(cut_weight(g, r.side), 1u);
}

TEST(KernelSplit, DisconnectedInputResolvesToZero) {
  WGraph g = gen_cycle(3);
  WGraph h = gen_cycle(4);
  for (const auto& e : h.edges) g.edges.push_back({e.u + 3, e.v + 3, e.w});
  g.n = 7;

  const KernelResult kr = kernelize(g, kernel::enabled_defaults());
  ASSERT_TRUE(kr.solved());
  EXPECT_EQ(kr.kernel.n, 0u);
  EXPECT_EQ(kr.stats.components, 2u);
  const MinCutResult r = kr.resolved_cut();
  EXPECT_EQ(r.weight, 0u);
  EXPECT_EQ(r.side, side_of(7, {0, 1, 2}));
  EXPECT_EQ(cut_weight(g, r.side), 0u);
}

TEST(KernelSplit, TrivialInputsPassThrough) {
  WGraph empty;
  const KernelResult k0 = kernelize(empty, kernel::enabled_defaults());
  EXPECT_TRUE(k0.solved());
  EXPECT_EQ(k0.resolved_cut().weight, kInfiniteWeight);

  WGraph one;
  one.n = 1;
  const KernelResult k1 = kernelize(one, kernel::enabled_defaults());
  EXPECT_TRUE(k1.solved());
  EXPECT_EQ(k1.kernel.n, 1u);
  EXPECT_EQ(k1.map.kernel_of, (std::vector<VertexId>{0}));
  EXPECT_EQ(k1.resolved_cut().weight, kInfiniteWeight);
}

// The zoo used by the round-trip and front-end tests below.
WGraph zoo_case(std::uint64_t i) {
  const std::uint64_t seed = i * 7919 + 3;
  const VertexId n = 8 + static_cast<VertexId>(i % 9);  // 8..16
  WGraph g;
  switch (i % 7) {
    case 0:
      g = gen_erdos_renyi(n, 0.35, seed);
      break;
    case 1:
      g = gen_planted_cut(n, 0.7, 1 + static_cast<VertexId>(i % 3), seed);
      break;
    case 2:
      g = gen_communities(3 * n, 3, 0.6, 2, seed);
      break;
    case 3:
      g = gen_barbell(n);
      break;
    case 4:
      g = gen_random_tree(n, seed);
      break;
    case 5:
      g = gen_grid(3, 1 + n / 3);
      break;
    default:
      g = gen_random_connected(n, n + 3 + i % 4, seed);
      break;
  }
  if (i % 2 == 1) randomize_weights(g, 7, seed + 1);
  return g;
}

TEST(KernelRoundTrip, UnpackedCutMatchesOriginalMinCutOnZoo) {
  for (std::uint64_t i = 0; i < 42; ++i) {
    const WGraph g = zoo_case(i);
    const Weight truth = stoer_wagner_min_cut(g).weight;
    const KernelResult kr = kernelize(g, kernel::enabled_defaults());

    MinCutResult r;
    if (kr.solved()) {
      r = kr.resolved_cut();
    } else {
      r = kr.map.unpack(stoer_wagner_min_cut(kr.kernel));
    }
    EXPECT_EQ(r.weight, truth) << "case " << i;
    // The reduction-safety property: the certificate's weight recomputed on
    // the ORIGINAL graph equals the kernel-side answer.
    EXPECT_EQ(cut_weight(g, r.side), r.weight) << "case " << i;
    // The lineage is a partition of the original vertices.
    if (!kr.solved()) {
      std::vector<std::uint64_t> bucket(kr.kernel.n, 0);
      for (VertexId v = 0; v < g.n; ++v) {
        ASSERT_LT(kr.map.kernel_of[v], kr.kernel.n) << "case " << i;
        ++bucket[kr.map.kernel_of[v]];
      }
      for (VertexId kv = 0; kv < kr.kernel.n; ++kv) {
        EXPECT_GE(bucket[kv], 1u) << "case " << i << " kernel vertex " << kv;
      }
    }
  }
}

TEST(KernelFront, StoerWagnerKernelizedMatchesPlain) {
  for (std::uint64_t i = 0; i < 42; ++i) {
    const WGraph g = zoo_case(i);
    const Weight truth = stoer_wagner_min_cut(g).weight;
    const MinCutResult r = kernel::stoer_wagner_min_cut_kernelized(g);
    EXPECT_EQ(r.weight, truth) << "case " << i;
    EXPECT_EQ(cut_weight(g, r.side), r.weight) << "case " << i;
    // Disabled options defer to the plain solver bit-for-bit.
    const MinCutResult off =
        kernel::stoer_wagner_min_cut_kernelized(g, KernelOptions{});
    const MinCutResult plain = stoer_wagner_min_cut(g);
    EXPECT_EQ(off.weight, plain.weight) << "case " << i;
    EXPECT_EQ(off.side, plain.side) << "case " << i;
  }
}

TEST(KernelDeterminism, BitIdenticalAcrossThreadCounts) {
  // Two shapes: a sparse graph that reduces heavily (peel cascades + rebuild
  // paths) and a dense one that barely reduces (the certificate scan); both
  // have enough edges to push the psort primitives onto their parallel
  // paths. The reference is the fully sequential run (pool == nullptr).
  std::vector<WGraph> graphs;
  graphs.push_back(gen_random_connected(6000, 9000, 42));
  randomize_weights(graphs.back(), 9, 43);
  graphs.push_back(gen_erdos_renyi(200, 0.5, 7));

  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const WGraph& g = graphs[gi];
    const KernelResult ref = kernelize(g, kernel::enabled_defaults(), nullptr);
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      const KernelResult kr = kernelize(g, kernel::enabled_defaults(), &pool);
      EXPECT_EQ(kr.kernel.n, ref.kernel.n) << "graph " << gi << " t" << threads;
      EXPECT_EQ(kr.kernel.edges, ref.kernel.edges)
          << "graph " << gi << " t" << threads;
      EXPECT_EQ(kr.map.kernel_of, ref.map.kernel_of)
          << "graph " << gi << " t" << threads;
      EXPECT_EQ(kr.map.candidate_weight, ref.map.candidate_weight)
          << "graph " << gi << " t" << threads;
      EXPECT_EQ(kr.map.candidate_members, ref.map.candidate_members)
          << "graph " << gi << " t" << threads;
      EXPECT_EQ(kr.stats, ref.stats) << "graph " << gi << " t" << threads;
    }
  }
}

TEST(KernelDeterminism, SparseGraphActuallyReduces) {
  // Guard for the determinism fixture above and the bench families: the
  // sparse instance must kernelize substantially or the speedup story is
  // fiction.
  WGraph g = gen_random_connected(6000, 9000, 42);
  const KernelResult kr = kernelize(g, kernel::enabled_defaults());
  EXPECT_LT(kr.stats.kernel_n, kr.stats.original_n / 2);
}

}  // namespace
}  // namespace ampccut
