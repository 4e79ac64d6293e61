// The serving tier's property suite (DESIGN.md "Cut-query serving tier").
//
// The contract under test: every answer a CutServer ever returns equals the
// direct max-flow on the graph of the snapshot that served it — across the
// six-family generator zoo with weighted/multigraph/disconnected variants,
// with the kernel front-end on or off, through the single-shot path and the
// batch path at any pool width, for batches of one block and of many.
// Rebuild faults may only cost freshness (RetriesExhaustedError with the old
// epoch still serving), never correctness. Suite name "Serve" rides the
// tsan/asan CI filters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exact/brute_force.h"
#include "exact/stoer_wagner.h"
#include "flow/dinic.h"
#include "flow/gomory_hu.h"
#include "graph/generators.h"
#include "serve/cut_server.h"
#include "serve/scenarios.h"
#include "support/errors.h"
#include "support/rng.h"
#include "support/threadpool.h"

namespace ampccut {
namespace {

using serve::CutServer;
using serve::CutServerOptions;
using serve::QueryPair;

// Base zoo: the six generator families (the kernel suite's zoo, reused so
// the serving tier is pinned on the same distribution of shapes).
WGraph serve_zoo_base(std::uint64_t i) {
  const std::uint64_t seed = i * 1319 + 29;
  const VertexId n = 8 + static_cast<VertexId>(i % 8);  // 8..15
  switch (i % 6) {
    case 0:
      return gen_erdos_renyi(n, 0.4, seed);
    case 1:
      return gen_planted_cut(n, 0.75, 1 + static_cast<VertexId>(i % 3), seed);
    case 2:
      return gen_communities(3 * n, 3, 0.7, 2, seed);
    case 3:
      return gen_barbell(n);
    case 4:
      return gen_random_tree(n, seed);
    default:
      return gen_grid(3, 1 + n / 3);
  }
}

// Variant layer: 0 = as generated, 1 = random weights, 2 = multigraph
// (first three edges duplicated), 3 = disconnected (a far triangle).
WGraph serve_zoo_case(std::uint64_t i) {
  WGraph g = serve_zoo_base(i);
  const std::uint64_t seed = i * 1319 + 101;
  switch (i % 4) {
    case 1:
      randomize_weights(g, 6, seed);
      break;
    case 2:
      for (std::size_t e = 0; e < 3 && e < g.edges.size(); ++e) {
        g.edges.push_back(g.edges[e]);
      }
      break;
    case 3: {
      const VertexId base = g.n;
      g.n += 3;
      g.add_edge(base, base + 1, 2);
      g.add_edge(base + 1, base + 2, 2);
      g.add_edge(base + 2, base, 2);
      break;
    }
    default:
      break;
  }
  return g;
}

// All pairs on small graphs, a seeded sample on larger ones — the
// differential check multiplies by a Dinic run per pair.
std::vector<QueryPair> zoo_pairs(const WGraph& g, std::uint64_t seed) {
  std::vector<QueryPair> pairs;
  if (g.n <= 20) {
    for (VertexId s = 0; s < g.n; ++s) {
      for (VertexId t = s + 1; t < g.n; ++t) pairs.push_back({s, t});
    }
    return pairs;
  }
  Rng rng(seed);
  while (pairs.size() < 60) {
    const auto s = static_cast<VertexId>(rng.next_below(g.n));
    const auto t = static_cast<VertexId>(rng.next_below(g.n));
    if (s != t) pairs.push_back({s, t});
  }
  return pairs;
}

// --- Differential correctness ----------------------------------------------

TEST(Serve, ZooAnswersEqualDirectMaxFlow) {
  for (std::uint64_t i = 0; i < 24; ++i) {
    const WGraph g = serve_zoo_case(i);
    CutServerOptions opt;
    opt.kernel = kernel::enabled_defaults();
    CutServer server(g, opt);
    for (const auto& p : zoo_pairs(g, i * 7 + 5)) {
      EXPECT_EQ(server.query(p.s, p.t), st_min_cut(g, p.s, p.t))
          << "zoo " << i << " pair " << p.s << "," << p.t;
    }
  }
}

TEST(Serve, KernelOnAndOffServeBitIdenticalAnswers) {
  for (std::uint64_t i = 0; i < 24; ++i) {
    const WGraph g = serve_zoo_case(i);
    CutServerOptions on;
    on.kernel = kernel::enabled_defaults();
    CutServerOptions off;  // kernel.enabled defaults to false
    CutServer with_kernel(g, on);
    CutServer without(g, off);
    for (const auto& p : zoo_pairs(g, i * 7 + 6)) {
      EXPECT_EQ(with_kernel.query(p.s, p.t), without.query(p.s, p.t))
          << "zoo " << i;
    }
  }
}

TEST(Serve, KernelMergePassRecordsProvenance) {
  // A connected multigraph: the merge-only pass must fire, shrink the flow
  // edge count, leave the vertex set alone — and never change an answer.
  WGraph g = gen_erdos_renyi(10, 0.5, 7);
  for (std::size_t e = 0; e < 4 && e < g.edges.size(); ++e) {
    g.edges.push_back(g.edges[e]);
  }
  ASSERT_TRUE(is_connected(g));
  CutServerOptions opt;
  opt.kernel = kernel::enabled_defaults();
  CutServer server(g, opt);
  const auto snap = server.snapshot();
  EXPECT_TRUE(snap->stats().kernelized);
  EXPECT_GE(snap->stats().merged_parallel, 4U);
  EXPECT_LT(snap->stats().flow_edges, snap->stats().m);
  EXPECT_EQ(snap->n(), g.n);
  EXPECT_EQ(snap->graph().m(), g.m());  // snapshot keeps the ORIGINAL graph
  for (const auto& p : zoo_pairs(g, 99)) {
    EXPECT_EQ(server.query(p.s, p.t), st_min_cut(g, p.s, p.t));
  }
}

TEST(Serve, GlobalMinCutMatchesStoerWagner) {
  for (std::uint64_t i = 0; i < 24; ++i) {
    const WGraph g = serve_zoo_case(i);
    CutServer server(g);
    const MinCutResult got = server.snapshot()->global_min_cut();
    const MinCutResult truth = stoer_wagner_min_cut(g);
    EXPECT_EQ(got.weight, truth.weight) << "zoo " << i;
    EXPECT_EQ(cut_weight(g, got.side), got.weight) << "zoo " << i;
  }
}

// --- Batch path -------------------------------------------------------------

// Longer than 16 of query_batch_on's blocks (grain at most 1024), so a
// batch this long takes the pool's fan-out path: parallel_for runs a batch
// of at most one 16-iteration chunk inline on the caller.
constexpr std::size_t kManyBlockBatch = 16 * 1024 + 1;

// `pairs` repeated until the list holds at least `len` pairs.
std::vector<QueryPair> repeat_pairs(const std::vector<QueryPair>& pairs,
                                    std::size_t len) {
  std::vector<QueryPair> out;
  while (out.size() < len) out.insert(out.end(), pairs.begin(), pairs.end());
  return out;
}

TEST(Serve, BatchIsBitIdenticalToSequentialAtEveryPoolWidth) {
  for (std::uint64_t i = 0; i < 24; i += 3) {
    const WGraph g = serve_zoo_case(i);
    const auto pairs = zoo_pairs(g, i * 7 + 8);
    const auto long_pairs = repeat_pairs(pairs, kManyBlockBatch);

    CutServer server(g);
    std::vector<Weight> sequential;
    sequential.reserve(long_pairs.size());
    for (const auto& p : long_pairs) {
      sequential.push_back(server.query(p.s, p.t));
    }
    const std::vector<Weight> short_sequential(
        sequential.begin(),
        sequential.begin() + static_cast<std::ptrdiff_t>(pairs.size()));
    EXPECT_EQ(server.query_batch(pairs), short_sequential) << "zoo " << i;
    EXPECT_EQ(server.query_batch(long_pairs), sequential) << "zoo " << i;

    for (const std::uint32_t threads : {1U, 2U, 4U}) {
      ThreadPool pool(threads);
      CutServerOptions popt;
      popt.pool = &pool;
      CutServer pooled(g, popt);
      EXPECT_EQ(pooled.query_batch(pairs), short_sequential)
          << "zoo " << i << " threads " << threads;
      EXPECT_EQ(pooled.query_batch(long_pairs), sequential)
          << "zoo " << i << " threads " << threads << " (many blocks)";
    }
  }
}

TEST(Serve, BatchOnPinnedSnapshotIgnoresLaterSwaps) {
  const WGraph g1 = gen_planted_cut(24, 0.6, 2, 5);
  WGraph g2 = g1;
  randomize_weights(g2, 9, 77);
  CutServer server(g1);
  const auto pin = server.snapshot();
  server.update_graph(g2);
  ASSERT_EQ(server.snapshot()->epoch(), 2U);
  const auto pairs = zoo_pairs(g1, 3);
  const auto pinned = server.query_batch_on(pin, pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pinned[i], st_min_cut(g1, pairs[i].s, pairs[i].t));
  }
  const auto fresh = server.query_batch(pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(fresh[i], st_min_cut(g2, pairs[i].s, pairs[i].t));
  }
}

// --- Epoch discipline -------------------------------------------------------

TEST(Serve, UpdateGraphSwapsEpochWhileOldPinKeepsServing) {
  const WGraph g1 = gen_barbell(8);
  const WGraph g2 = gen_grid(4, 5);
  CutServer server(g1);
  const auto pin = server.snapshot();
  EXPECT_EQ(pin->epoch(), 1U);
  server.update_graph(g2);
  const auto now = server.snapshot();
  EXPECT_EQ(now->epoch(), 2U);
  EXPECT_EQ(now->n(), g2.n);
  // The retired snapshot is immutable and still answers for ITS graph.
  EXPECT_EQ(pin->query(0, 7), st_min_cut(g1, 0, 7));
  EXPECT_EQ(now->query(0, 19), st_min_cut(g2, 0, 19));
  const auto s = server.stats();
  EXPECT_EQ(s.rebuilds, 1U);
  EXPECT_EQ(s.snapshots_published, 2U);
}

// --- Error taxonomy ---------------------------------------------------------

TEST(Serve, InvalidPairsThrowTypedOnEveryPath) {
  const WGraph g = gen_path(4);
  CutServer server(g);

  EXPECT_THROW((void)server.query(0, 0), InvalidQueryError);
  EXPECT_THROW((void)server.query(0, 4), InvalidQueryError);
  EXPECT_THROW((void)server.query(9, 1), InvalidQueryError);
  EXPECT_THROW((void)server.query_batch({{0, 1}, {2, 2}}), InvalidQueryError);
  EXPECT_THROW((void)server.snapshot()->query(0, 7), InvalidQueryError);
  EXPECT_THROW((void)server.snapshot()->tree().min_cut(7, 0),
               InvalidQueryError);
  try {
    (void)server.query(3, 3);
    FAIL() << "expected InvalidQueryError";
  } catch (const Error& e) {  // the taxonomy root catches it too
    EXPECT_NE(std::string(e.what()).find("invalid cut query"),
              std::string::npos);
  }
}

// --- Degenerate and extreme inputs ------------------------------------------

TEST(Serve, SingleAndTwoVertexGraphs) {
  WGraph one;
  one.n = 1;
  CutServer s1(one);
  EXPECT_EQ(s1.snapshot()->epoch(), 1U);
  EXPECT_EQ(s1.snapshot()->global_min_cut().weight, kInfiniteWeight);
  EXPECT_TRUE(s1.snapshot()->global_min_cut().side.empty());
  EXPECT_THROW((void)s1.query(0, 0), InvalidQueryError);

  WGraph two;
  two.n = 2;
  two.add_edge(0, 1, 9);
  CutServer s2(two);
  EXPECT_EQ(s2.query(0, 1), 9U);
  EXPECT_EQ(s2.query(1, 0), 9U);
  EXPECT_EQ(s2.snapshot()->global_min_cut().weight, 9U);
}

TEST(Serve, DisconnectedGraphServesZeroAcrossComponents) {
  WGraph g = gen_erdos_renyi(7, 0.8, 3);
  const VertexId base = g.n;
  g.n += 4;
  g.add_edge(base, base + 1, 5);
  g.add_edge(base + 1, base + 2, 5);
  g.add_edge(base + 2, base + 3, 5);
  ASSERT_FALSE(is_connected(g));
  CutServerOptions opt;
  opt.kernel = kernel::enabled_defaults();  // must be bypassed, not crash
  CutServer server(g, opt);
  EXPECT_EQ(server.snapshot()->stats().components, 2U);
  EXPECT_FALSE(server.snapshot()->stats().kernelized);
  for (VertexId s = 0; s < base; ++s) {
    for (VertexId t = base; t < g.n; ++t) {
      EXPECT_EQ(server.query(s, t), 0U);
    }
  }
  EXPECT_EQ(server.query(base, base + 3), 5U);  // within-component is exact
  EXPECT_EQ(server.snapshot()->global_min_cut().weight, 0U);
}

TEST(Serve, InfiniteWeightEdgesServeSaturated) {
  WGraph g;
  g.n = 5;
  g.add_edge(0, 1, kInfiniteWeight);
  g.add_edge(1, 2, 5);
  g.add_edge(2, 3, kInfiniteWeight);
  g.add_edge(3, 4, 2);
  g.add_edge(4, 0, 1);
  CutServer server(g);
  for (VertexId s = 0; s < g.n; ++s) {
    for (VertexId t = s + 1; t < g.n; ++t) {
      EXPECT_EQ(server.query(s, t), st_min_cut(g, s, t))
          << "pair " << s << "," << t;
    }
  }
  EXPECT_EQ(server.query(0, 1), kInfiniteWeight);
}

TEST(Serve, KernelMergeOfInfiniteParallelEdgesSaturates) {
  // The kernel's merge pass folds (0,1,inf) and (0,1,1) into one edge; the
  // sum must clamp at kInfiniteWeight instead of wrapping to 0.
  WGraph g;
  g.n = 3;
  g.add_edge(0, 1, kInfiniteWeight);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 5);
  CutServerOptions on;
  on.kernel = kernel::enabled_defaults();
  CutServer with_kernel(g, on);
  CutServer without(g, CutServerOptions{});
  EXPECT_EQ(with_kernel.query(0, 1), kInfiniteWeight);
  EXPECT_EQ(with_kernel.query(0, 1), without.query(0, 1));
  EXPECT_EQ(with_kernel.query(1, 2), 5U);
}

// --- Served k-cut and scenarios ---------------------------------------------

TEST(Serve, SnapshotKCutMatchesDirectConstruction) {
  const WGraph g = gen_communities(48, 4, 0.5, 2, 21);
  CutServer server(g);
  for (const std::uint32_t k : {2U, 3U, 4U}) {
    const GHKCut served = server.snapshot()->k_cut(k);
    const GHKCut direct = gomory_hu_k_cut(g, k);
    EXPECT_EQ(served.weight, direct.weight) << "k=" << k;
    EXPECT_EQ(served.part, direct.part) << "k=" << k;
    EXPECT_EQ(k_cut_weight(g, served.part), served.weight) << "k=" << k;
  }
}

TEST(Serve, ScenarioReportsAreConsistentWithDirectSolvers) {
  const WGraph g = gen_planted_cut(60, 0.4, 3, 17);
  CutServer server(g);

  ampc::AmpcMinCutOptions mopt;
  mopt.recursion.seed = 5;
  mopt.recursion.trials = 2;
  const auto community = serve::serve_community_cut(server, mopt);
  const Weight truth = stoer_wagner_min_cut(g).weight;
  EXPECT_EQ(community.epoch, 1U);
  EXPECT_EQ(community.cut.weight, truth);  // served global cut is exact
  EXPECT_EQ(cut_weight(g, community.cut.side), community.cut.weight);
  EXPECT_GE(community.ampc.weight, truth);  // the cross-check approximates

  const std::vector<QueryPair> pairs = {{0, 59}, {1, 30}, {12, 45}};
  const auto rel = serve::serve_network_reliability(server, pairs);
  ASSERT_EQ(rel.pair_capacity.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(rel.pair_capacity[i], st_min_cut(g, pairs[i].s, pairs[i].t));
  }
  EXPECT_EQ(rel.weakest.weight, truth);
  Weight crossing = 0;
  for (const auto& e : rel.weakest_links) crossing = sat_add(crossing, e.w);
  EXPECT_EQ(crossing, rel.weakest.weight);

  const auto kc = serve::serve_kcut_partition(server, 3);
  EXPECT_EQ(kc.epoch, 1U);
  EXPECT_EQ(k_cut_weight(g, kc.cut.part), kc.cut.weight);
  std::uint32_t covered = 0;
  for (const auto sz : kc.part_sizes) covered += sz;
  EXPECT_EQ(covered, g.n);
}

// --- Faulted rebuilds -------------------------------------------------------

TEST(Serve, ScheduledFaultRecoveryIsBitIdentical) {
  const WGraph g = gen_random_connected(20, 45, 31);
  CutServer clean(g);

  CutServerOptions opt;
  // Scheduled faults fire on attempt 0 only (ampc/fault.h), so recovery is
  // guaranteed within max_attempts = 3; round = epoch, machine = step.
  opt.fault.scheduled.push_back({1, 3, ampc::FaultKind::kMachineCrash});
  opt.fault.scheduled.push_back({1, 7, ampc::FaultKind::kStagedWriteLoss});
  opt.retry.max_attempts = 3;
  CutServer faulted(g, opt);

  EXPECT_EQ(faulted.stats().build_retries, 1U);  // one discarded attempt
  EXPECT_EQ(faulted.snapshot()->stats().build_attempts, 2U);
  EXPECT_EQ(clean.snapshot()->stats().build_attempts, 1U);
  // The replayed build serves answers bit-identical to the fault-free one.
  for (const auto& p : zoo_pairs(g, 13)) {
    EXPECT_EQ(faulted.query(p.s, p.t), clean.query(p.s, p.t));
  }
  EXPECT_EQ(faulted.snapshot()->tree().parent, clean.snapshot()->tree().parent);
  EXPECT_EQ(faulted.snapshot()->tree().parent_cut_weight,
            clean.snapshot()->tree().parent_cut_weight);
}

TEST(Serve, ConstructionUnderCertainFaultsThrowsRetriesExhausted) {
  const WGraph g = gen_path(6);
  CutServerOptions opt;
  opt.fault.seed = 11;
  opt.fault.crash_rate = 1.0;  // every attempt dies at the first step
  opt.retry.max_attempts = 2;
  EXPECT_THROW(CutServer server(g, opt), RetriesExhaustedError);
}

TEST(Serve, ExhaustedUpdateKeepsOldEpochServingThenRecovers) {
  const WGraph g1 = gen_barbell(6);
  const WGraph g2 = gen_grid(3, 4);
  CutServer server(g1);
  const Weight before = server.query(0, 5);

  ampc::FaultPlan certain;
  certain.seed = 4;
  certain.crash_rate = 1.0;
  ampc::RetryPolicy tight;
  tight.max_attempts = 2;
  server.set_fault(certain, tight);
  try {
    server.update_graph(g2);
    FAIL() << "expected RetriesExhaustedError";
  } catch (const RetriesExhaustedError& e) {
    EXPECT_EQ(e.round(), 2U);  // the epoch that failed to publish
    EXPECT_EQ(e.attempts(), 2U);
  }
  // Degraded freshness, never a wrong answer: epoch 1 still serves g1.
  EXPECT_EQ(server.snapshot()->epoch(), 1U);
  EXPECT_EQ(server.query(0, 5), before);
  EXPECT_EQ(server.stats().rebuilds, 0U);
  EXPECT_EQ(server.stats().build_retries, 2U);

  server.set_fault({}, {});  // chaos off; the next update must land
  server.update_graph(g2);
  EXPECT_EQ(server.snapshot()->epoch(), 2U);
  EXPECT_EQ(server.query(0, 5), st_min_cut(g2, 0, 5));
}

}  // namespace
}  // namespace ampccut
