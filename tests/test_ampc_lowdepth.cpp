#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ampc_algo/low_depth_ampc.h"
#include "ampc_algo/singleton_ampc.h"
#include "graph/generators.h"
#include "support/rng.h"
#include "support/threadpool.h"
#include "tree/low_depth.h"

namespace ampccut::ampc {
namespace {

Runtime make_rt(std::uint64_t problem, double eps = 0.5) {
  return Runtime(Config::for_problem(problem, eps));
}

struct Both {
  AmpcDecomposition ampc;
  LowDepthDecomposition seq;
};

Both build_both(const WGraph& tree_graph, std::uint64_t seed) {
  std::vector<TimeStep> times(tree_graph.edges.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    times[i] = static_cast<TimeStep>(i + 1);
  }
  Rng rng(seed);
  std::shuffle(times.begin(), times.end(), rng);
  Both b;
  Runtime rt = make_rt(tree_graph.n);
  const AmpcRootedTree at =
      ampc_root_tree(rt, tree_graph.n, tree_graph.edges, times, 0);
  b.ampc = ampc_low_depth_decomposition(rt, at);
  const RootedTree st =
      build_rooted_tree(tree_graph.n, tree_graph.edges, times, 0);
  const HeavyLight hl = build_heavy_light(st);
  b.seq = build_low_depth_decomposition(st, hl);
  return b;
}

TEST(AmpcLowDepth, MatchesSequentialLabelForLabel) {
  for (const WGraph& g :
       {gen_path(150), gen_star(150), gen_broom(151), gen_binary_tree(127),
        gen_caterpillar(30, 4), gen_random_tree(200, 3),
        gen_random_tree(200, 4), gen_random_tree(77, 5)}) {
    const Both b = build_both(g, g.n);
    ASSERT_EQ(b.ampc.height, b.seq.height) << "n=" << g.n;
    for (VertexId v = 0; v < g.n; ++v) {
      EXPECT_EQ(b.ampc.label[v], b.seq.label[v]) << "n=" << g.n << " v=" << v;
      EXPECT_EQ(b.ampc.leaf_depth[v], b.seq.leaf_depth[v]);
      EXPECT_EQ(b.ampc.pos[v], b.seq.pos_in_path[v]);
      EXPECT_EQ(b.ampc.len[v], b.seq.path_len[b.seq.path_id[v]]);
    }
  }
}

TEST(AmpcLowDepth, HeadsAreConsistent) {
  const WGraph g = gen_random_tree(300, 9);
  const Both b = build_both(g, 9);
  for (VertexId v = 0; v < g.n; ++v) {
    // head is on the same path at position 0.
    EXPECT_EQ(b.ampc.head[b.ampc.head[v]], b.ampc.head[v]);
    EXPECT_EQ(b.ampc.pos[b.ampc.head[v]], 0u);
  }
}

TEST(AmpcLowDepth, ManyRandomTreesStayValid) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const VertexId n = 2 + static_cast<VertexId>((seed * 31) % 200);
    const WGraph g = gen_random_tree(n, seed);
    const Both b = build_both(g, seed);
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(b.ampc.label[v], b.seq.label[v])
          << "seed=" << seed << " n=" << n << " v=" << v;
    }
  }
}

TEST(AmpcLowDepth, RoundCountFlatAcrossSizes) {
  std::uint64_t small_rounds = 0, large_rounds = 0;
  {
    const WGraph g = gen_random_tree(1 << 8, 1);
    std::vector<TimeStep> times(g.edges.size());
    for (std::size_t i = 0; i < times.size(); ++i)
      times[i] = static_cast<TimeStep>(i + 1);
    Runtime rt = make_rt(g.n);
    const auto at = ampc_root_tree(rt, g.n, g.edges, times, 0);
    (void)ampc_low_depth_decomposition(rt, at);
    small_rounds = rt.metrics().rounds;
  }
  {
    const WGraph g = gen_random_tree(1 << 13, 1);
    std::vector<TimeStep> times(g.edges.size());
    for (std::size_t i = 0; i < times.size(); ++i)
      times[i] = static_cast<TimeStep>(i + 1);
    Runtime rt = make_rt(g.n);
    const auto at = ampc_root_tree(rt, g.n, g.edges, times, 0);
    (void)ampc_low_depth_decomposition(rt, at);
    large_rounds = rt.metrics().rounds;
  }
  EXPECT_LE(large_rounds, small_rounds + 10);
}

// ---- The AMPC tracker vs. the oracle: the central equivalence. -----------

void expect_ampc_tracker_matches(const WGraph& g, std::uint64_t seed) {
  const ContractionOrder o = make_contraction_order(g, seed);
  const SingletonCutResult oracle = min_singleton_cut_oracle(g, o);
  Runtime rt = make_rt(g.n + g.m());
  const SingletonCutResult got = ampc_min_singleton_cut(rt, g, o);
  ASSERT_EQ(got.weight, oracle.weight)
      << "AMPC tracker disagrees: n=" << g.n << " m=" << g.m()
      << " seed=" << seed;
  const auto bag = reconstruct_bag(g, o, got.rep, got.time);
  EXPECT_EQ(cut_weight(g, bag), got.weight);
}

TEST(AmpcSingleton, MatchesOracleOnTinyGraphs) {
  WGraph k2;
  k2.n = 2;
  k2.add_edge(0, 1, 7);
  expect_ampc_tracker_matches(k2, 0);
  for (std::uint64_t s = 0; s < 6; ++s) {
    expect_ampc_tracker_matches(gen_complete(4), s);
    expect_ampc_tracker_matches(gen_path(5), s);
  }
}

TEST(AmpcSingleton, MatchesOracleOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const VertexId n = 5 + static_cast<VertexId>(seed % 30);
    const WGraph g = gen_erdos_renyi(n, 0.3, seed);
    expect_ampc_tracker_matches(g, seed * 3 + 1);
  }
}

TEST(AmpcSingleton, MatchesOracleOnWeightedAndStructured) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    WGraph g = gen_erdos_renyi(25, 0.3, seed + 70);
    randomize_weights(g, 12, seed);
    expect_ampc_tracker_matches(g, seed);
    expect_ampc_tracker_matches(gen_cycle(24), seed);
    expect_ampc_tracker_matches(gen_grid(5, 6), seed);
    expect_ampc_tracker_matches(gen_planted_cut(30, 0.4, 2, seed), seed);
    expect_ampc_tracker_matches(gen_random_tree(30, seed), seed);
    expect_ampc_tracker_matches(gen_star(20), seed);
  }
}

TEST(AmpcSingleton, InfiniteEdgesMatchOracle) {
  // {0} has boundary inf + inf + 3: its coverage must saturate, not enter
  // the interval sums as two -1 deltas.
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
    EXPECT_EQ(min_singleton_cut_oracle(g, o).weight, 5u) << "seed " << seed;
    expect_ampc_tracker_matches(g, seed);
  }
  // Every bag infinite: no witness, as from the oracle.
  WGraph all_inf = gen_complete(4);
  for (WEdge& e : all_inf.edges) e.w = kInfiniteWeight;
  const ContractionOrder o = make_contraction_order(all_inf, 0);
  Runtime rt = make_rt(all_inf.n + all_inf.m());
  const SingletonCutResult got = ampc_min_singleton_cut(rt, all_inf, o);
  EXPECT_EQ(got.weight, kInfiniteWeight);
  EXPECT_EQ(got.rep, min_singleton_cut_oracle(all_inf, o).rep);
}

TEST(AmpcSingleton, BoruvkaMsfVariantAgrees) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const WGraph g = gen_erdos_renyi(30, 0.25, seed + 200);
    const ContractionOrder o = make_contraction_order(g, seed);
    Runtime rt = make_rt(g.n + g.m());
    AmpcSingletonOptions opt;
    opt.use_boruvka_msf = true;
    const auto got = ampc_min_singleton_cut(rt, g, o, opt);
    EXPECT_EQ(got.weight, min_singleton_cut_oracle(g, o).weight);
    EXPECT_EQ(rt.metrics().charged_by_label.count(
                  "msf[cited Behnezhad et al. 2020]"),
              0u);
  }
}

TEST(AmpcSingleton, RoundsAreSizeIndependent) {
  // Theorem 3: O(1/eps) rounds with machine memory N^eps. Both sizes sit
  // above the simulator's 64-word memory floor so the N^eps scaling law is
  // in effect; growing N by 8x must leave rounds essentially flat.
  std::uint64_t small_rounds = 0, large_rounds = 0;
  {
    const WGraph g = gen_random_connected(1024, 3072, 1);
    const ContractionOrder o = make_contraction_order(g, 1);
    Runtime rt = make_rt(g.n + g.m());
    (void)ampc_min_singleton_cut(rt, g, o);
    small_rounds = rt.metrics().model_rounds();
  }
  {
    const WGraph g = gen_random_connected(8192, 24576, 1);
    const ContractionOrder o = make_contraction_order(g, 1);
    Runtime rt = make_rt(g.n + g.m());
    (void)ampc_min_singleton_cut(rt, g, o);
    large_rounds = rt.metrics().model_rounds();
  }
  EXPECT_LE(large_rounds, small_rounds + 12);
}

// Step 6 streams its interval events into one log per round participant,
// so how the events split across logs follows the thread schedule. The
// grouping must not: at pool widths 1..4 the answer, every model count and
// the interval count are equal. n = 512 with m = 4n gives the intervals
// round well over 16 machines, so parallel_for really fans out.
TEST(AmpcSingleton, IntervalEventsIdenticalAcrossPoolWidths) {
  WGraph g = gen_random_connected(512, 2048, 5);
  randomize_weights(g, 17, 9);
  const ContractionOrder o = make_contraction_order(g, 5);
  const Config cfg = Config::for_problem(g.n + g.m(), 0.5);
  ASSERT_GT(cfg.num_machines(g.m()), 16u);  // h >= 1 levels per edge
  struct Run {
    SingletonCutResult r;
    std::uint64_t intervals = 0;
    std::uint64_t rounds, charged_rounds, dht_reads, dht_writes,
        max_machine_traffic, peak_table_words, budget_violations;
    std::map<std::string, std::uint64_t, std::less<>> rounds_by_label,
        charged_by_label;
  };
  // Two runs per width: which events share a log varies run to run.
  std::vector<Run> runs;
  std::vector<std::size_t> widths;
  for (const std::size_t width : {1u, 1u, 2u, 2u, 3u, 3u, 4u, 4u}) {
    ThreadPool pool(width);
    Runtime rt(cfg, &pool);
    widths.push_back(width);
    Run run;
    run.r = ampc_min_singleton_cut(rt, g, o, {}, &run.intervals);
    const Metrics& m = rt.metrics();
    run.rounds = m.rounds;
    run.charged_rounds = m.charged_rounds;
    run.dht_reads = m.dht_reads;
    run.dht_writes = m.dht_writes;
    run.max_machine_traffic = m.max_machine_traffic;
    run.peak_table_words = m.peak_table_words;
    run.budget_violations = m.budget_violations.load();
    run.rounds_by_label = m.rounds_by_label;
    run.charged_by_label = m.charged_by_label;
    runs.push_back(std::move(run));
  }
  ASSERT_GT(runs[0].intervals, 0u);
  for (std::size_t w = 1; w < runs.size(); ++w) {
    SCOPED_TRACE(::testing::Message() << "run " << w << ", pool width "
                                      << widths[w]);
    const Run& a = runs[0];
    const Run& b = runs[w];
    EXPECT_EQ(b.r.weight, a.r.weight);
    EXPECT_EQ(b.r.rep, a.r.rep);
    EXPECT_EQ(b.r.time, a.r.time);
    EXPECT_EQ(b.intervals, a.intervals);
    EXPECT_EQ(b.rounds, a.rounds);
    EXPECT_EQ(b.charged_rounds, a.charged_rounds);
    EXPECT_EQ(b.dht_reads, a.dht_reads);
    EXPECT_EQ(b.dht_writes, a.dht_writes);
    EXPECT_EQ(b.max_machine_traffic, a.max_machine_traffic);
    EXPECT_EQ(b.peak_table_words, a.peak_table_words);
    EXPECT_EQ(b.budget_violations, a.budget_violations);
    EXPECT_EQ(b.rounds_by_label, a.rounds_by_label);
    EXPECT_EQ(b.charged_by_label, a.charged_by_label);
  }
}

}  // namespace
}  // namespace ampccut::ampc
