// Determinism of the parallel recursion drivers (DESIGN.md "Parallel
// recursion scheduling"): for every thread count, the Karger–Stein skeleton
// and the APX-SPLIT greedy loop must return bit-identical results — weight,
// witness side, RecursionStats, and (for the model backends) every counted
// metric. threads == 1 is the historical depth-first path; threads > 1 are
// dedicated pools, so the task-DAG machinery is exercised even on a
// single-core host where the shared pool degenerates to sequential.
//
// Also holds the unit tests of the ThreadPool::TaskGroup primitive the
// drivers are built on (nested submission, help-while-wait, exception
// propagation, parallel_for reentrancy) — this suite plus
// test_runtime_concurrency is what the ThreadSanitizer CI job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ampc_algo/kcut_ampc.h"
#include "ampc_algo/mincut_ampc.h"
#include "exact/brute_force.h"
#include "exact/stoer_wagner.h"
#include "graph/generators.h"
#include "mincut/kcut.h"
#include "mincut/mincut_recursive.h"
#include "mpc/gn_baseline.h"
#include "support/threadpool.h"

namespace ampccut {
namespace {

constexpr std::uint32_t kThreadCounts[] = {2, 3, 5};

ApproxMinCutOptions base_opts(std::uint64_t seed) {
  ApproxMinCutOptions o;
  o.seed = seed;
  o.trials = 2;
  o.local_threshold = 16;
  return o;
}

// A multigraph with heavy parallel-edge bundles (contractions produce these;
// the radix compaction in contract_to_size must merge them identically).
WGraph gen_multigraph(VertexId n, std::uint64_t seed) {
  WGraph g = gen_random_connected(n, 3ull * n, seed);
  const std::size_t m = g.edges.size();
  for (std::size_t e = 0; e < m; e += 3) {
    g.edges.push_back(g.edges[e]);  // duplicate every third edge
    g.edges.push_back({g.edges[e].u, g.edges[e].v, g.edges[e].w + 2});
  }
  return g;
}

WGraph gen_star(VertexId n) {
  WGraph g;
  g.n = n;
  for (VertexId v = 1; v < n; ++v) g.add_edge(0, v, 1 + v % 3);
  return g;
}

void expect_same_mincut(const WGraph& g, const ApproxMinCutOptions& opt) {
  ApproxMinCutOptions seq = opt;
  seq.threads = 1;
  const ApproxMinCutResult ref = approx_min_cut(g, seq);
  EXPECT_EQ(cut_weight(g, ref.side), ref.weight);
  for (const std::uint32_t threads : kThreadCounts) {
    ApproxMinCutOptions par = opt;
    par.threads = threads;
    const ApproxMinCutResult got = approx_min_cut(g, par);
    EXPECT_EQ(got.weight, ref.weight) << "threads " << threads;
    EXPECT_EQ(got.side, ref.side) << "threads " << threads;
    EXPECT_EQ(got.stats, ref.stats) << "threads " << threads;
  }
}

TEST(ParallelRecursion, RandomGraphsMatchSequential) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const WGraph g = gen_random_connected(220, 900, seed + 3);
    expect_same_mincut(g, base_opts(seed));
  }
}

TEST(ParallelRecursion, WeightedGraphsMatchSequential) {
  WGraph g = gen_erdos_renyi(140, 0.08, 17);
  randomize_weights(g, 50, 5);
  if (!is_connected(g)) GTEST_SKIP() << "generator produced disconnected g";
  expect_same_mincut(g, base_opts(9));
}

TEST(ParallelRecursion, MultigraphMatchesSequential) {
  expect_same_mincut(gen_multigraph(150, 21), base_opts(2));
}

TEST(ParallelRecursion, StarMatchesSequential) {
  // Adversarial for the contraction schedule: every edge is a bridge to the
  // hub, so singleton bags dominate and branches collapse fast.
  expect_same_mincut(gen_star(180), base_opts(4));
}

TEST(ParallelRecursion, DisconnectedGuardMatchesSequential) {
  // The disconnected short-circuit runs before any pool is touched; the
  // zero-weight component witness must be identical for every thread count.
  expect_same_mincut(gen_two_cycles(40), base_opts(1));
}

TEST(ParallelRecursion, OracleTrackerMatchesSequential) {
  const ApproxMinCutOptions o = base_opts(6);
  expect_same_mincut(gen_random_connected(180, 700, 31), o);
}

TEST(ParallelRecursion, AmpcBackendMetricsAreThreadCountIndependent) {
  const WGraph g = gen_random_connected(200, 800, 77);
  ampc::AmpcMinCutOptions seq;
  seq.recursion = base_opts(11);
  seq.recursion.threads = 1;
  const ampc::AmpcMinCutReport ref = ampc::ampc_approx_min_cut(g, seq);
  for (const std::uint32_t threads : kThreadCounts) {
    ampc::AmpcMinCutOptions par = seq;
    par.recursion.threads = threads;
    const ampc::AmpcMinCutReport got = ampc::ampc_approx_min_cut(g, par);
    EXPECT_EQ(got.weight, ref.weight);
    EXPECT_EQ(got.side, ref.side);
    EXPECT_EQ(got.stats, ref.stats);
    EXPECT_EQ(got.measured_rounds, ref.measured_rounds);
    EXPECT_EQ(got.charged_rounds, ref.charged_rounds);
    EXPECT_EQ(got.levels_used, ref.levels_used);
    EXPECT_EQ(got.dht_reads, ref.dht_reads);
    EXPECT_EQ(got.dht_writes, ref.dht_writes);
    EXPECT_EQ(got.max_machine_traffic, ref.max_machine_traffic);
    EXPECT_EQ(got.peak_table_words, ref.peak_table_words);
    EXPECT_EQ(got.budget_violations, ref.budget_violations);
  }
}

TEST(ParallelRecursion, MpcBackendMatchesSequential) {
  const WGraph g = gen_random_connected(160, 650, 51);
  mpc::MpcMinCutOptions seq;
  seq.recursion = base_opts(13);
  seq.recursion.threads = 1;
  const mpc::MpcMinCutReport ref = mpc::mpc_gn_min_cut(g, seq);
  for (const std::uint32_t threads : kThreadCounts) {
    mpc::MpcMinCutOptions par = seq;
    par.recursion.threads = threads;
    const mpc::MpcMinCutReport got = mpc::mpc_gn_min_cut(g, par);
    EXPECT_EQ(got.weight, ref.weight);
    EXPECT_EQ(got.side, ref.side);
    EXPECT_EQ(got.rounds, ref.rounds);
    EXPECT_EQ(got.messages, ref.messages);
  }
}

TEST(ParallelKCut, ApproxSplitterMatchesSequential) {
  const WGraph g = gen_communities(120, 4, 8.0 / 120, 2, 19);
  ApproxMinCutOptions seq = base_opts(23);
  seq.threads = 1;
  const ApproxKCutResult ref = apx_split_k_cut_approx(g, 4, seq);
  for (const std::uint32_t threads : kThreadCounts) {
    ApproxMinCutOptions par = seq;
    par.threads = threads;
    const ApproxKCutResult got = apx_split_k_cut_approx(g, 4, par);
    EXPECT_EQ(got.weight, ref.weight) << "threads " << threads;
    EXPECT_EQ(got.part, ref.part) << "threads " << threads;
    EXPECT_EQ(got.num_parts, ref.num_parts);
    EXPECT_EQ(got.iterations, ref.iterations);
  }
}

TEST(ParallelKCut, AmpcWrapperMatchesSequential) {
  const WGraph g = gen_communities(100, 3, 8.0 / 100, 2, 29);
  ampc::AmpcMinCutOptions seq;
  seq.recursion = base_opts(31);
  seq.recursion.trials = 1;
  seq.recursion.threads = 1;
  const ampc::AmpcKCutReport ref = ampc::ampc_apx_split_k_cut(g, 3, seq);
  for (const std::uint32_t threads : kThreadCounts) {
    ampc::AmpcMinCutOptions par = seq;
    par.recursion.threads = threads;
    const ampc::AmpcKCutReport got = ampc::ampc_apx_split_k_cut(g, 3, par);
    EXPECT_EQ(got.result.weight, ref.result.weight);
    EXPECT_EQ(got.result.part, ref.result.part);
    EXPECT_EQ(got.measured_rounds, ref.measured_rounds);
    EXPECT_EQ(got.charged_rounds, ref.charged_rounds);
  }
}

// A cycle of `cliques` triangles joined by unit ring edges. Clique i's edges
// weigh 100 + i, so a component's local vertex 0 (its smallest original
// vertex, always the first vertex of a clique) names its clique by weight.
WGraph clique_cycle(VertexId cliques) {
  WGraph g;
  g.n = 3 * cliques;
  for (VertexId c = 0; c < cliques; ++c) {
    const VertexId b = 3 * c;
    g.add_edge(b, b + 1, 100 + c);
    g.add_edge(b + 1, b + 2, 100 + c);
    g.add_edge(b, b + 2, 100 + c);
    g.add_edge(b + 2, 3 * ((c + 1) % cliques), 1);
  }
  return g;
}

TEST(ParallelKCut, EachComponentSolvedOnce) {
  constexpr VertexId kCliques = 8;
  constexpr std::uint32_t k = 8;
  const WGraph g = clique_cycle(kCliques);
  // call_seq -> (min vertex, vertex count) of the component it solved.
  using Calls = std::map<std::uint64_t, std::pair<VertexId, VertexId>>;
  auto run = [&](std::size_t width, Calls& calls) {
    std::mutex mu;
    ThreadPool pool(width);
    return apx_split_k_cut(
        g, k,
        [&](const WGraph& sub, std::uint64_t call_seq) {
          VertexId min_vertex = g.n;
          for (const auto& e : sub.edges) {
            if ((e.u == 0 || e.v == 0) && e.w >= 100) {
              min_vertex = 3 * static_cast<VertexId>(e.w - 100);
            }
          }
          {
            std::lock_guard<std::mutex> lock(mu);
            EXPECT_TRUE(calls.emplace(call_seq, std::make_pair(min_vertex, sub.n))
                            .second)
                << "call_seq " << call_seq << " reused";
          }
          return stoer_wagner_min_cut(sub);
        },
        nullptr, &pool);
  };

  Calls ref_calls;
  const ApproxKCutResult ref = run(1, ref_calls);
  // Certified optimum: any 8-part partition either splits a clique (cost
  // >= 200) or separates all 8 cliques along the 8 unit ring edges.
  EXPECT_EQ(ref.weight, 8u);
  EXPECT_EQ(k_cut_weight(g, ref.part), ref.weight);
  EXPECT_EQ(ref.num_parts, k);
  EXPECT_EQ(ref.iterations, k - 1);
  // Pass 1 solves the whole graph; every later pass solves only the two
  // halves of the previous winner (none of them is a single vertex here).
  ASSERT_EQ(ref_calls.size(), 1 + 2 * (k - 2));
  std::set<std::pair<VertexId, VertexId>> seen;
  std::uint64_t expected_seq = 1;
  for (const auto& [seq, comp] : ref_calls) {
    EXPECT_EQ(seq, expected_seq++);
    EXPECT_LT(comp.first, g.n);
    EXPECT_TRUE(seen.insert(comp).second)
        << "component (" << comp.first << ", " << comp.second
        << ") solved twice";
  }

  Calls par_calls;
  const ApproxKCutResult par = run(4, par_calls);
  EXPECT_EQ(par.weight, ref.weight);
  EXPECT_EQ(par.part, ref.part);
  EXPECT_EQ(par.num_parts, ref.num_parts);
  EXPECT_EQ(par.iterations, ref.iterations);
  EXPECT_EQ(par_calls, ref_calls);
}

// --- TaskGroup primitive -----------------------------------------------

TEST(TaskGroup, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  ThreadPool::TaskGroup group(pool);
  for (int i = 1; i <= 100; ++i) {
    group.run([&sum, i] { sum.fetch_add(i); });
  }
  group.wait();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(TaskGroup, NestedSubmissionFromInsideTasks) {
  // The recursion shape: tasks spawn their own groups and wait on them while
  // running on the pool. Three levels of fan-out, counted exactly.
  ThreadPool pool(4);
  std::atomic<int> leaves{0};
  std::function<void(int)> recurse = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    ThreadPool::TaskGroup group(pool);
    for (int b = 0; b < 3; ++b) {
      group.run([&recurse, depth] { recurse(depth - 1); });
    }
    group.wait();
  };
  recurse(3);
  EXPECT_EQ(leaves.load(), 27);
}

TEST(TaskGroup, ExceptionsPropagateToWait) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.run([i] {
      if (i == 5) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(TaskGroup, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  int calls = 0;
  ThreadPool::TaskGroup group(pool);
  group.run([&calls] { ++calls; });
  EXPECT_EQ(calls, 1);  // ran inline, before wait()
  group.wait();
  EXPECT_EQ(calls, 1);
}

TEST(TaskGroup, ParallelForFromInsideTasks) {
  // Tasks may issue rounds (the AMPC runtime does): parallel_for must be
  // callable from pool tasks, concurrently.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  ThreadPool::TaskGroup group(pool);
  for (int t = 0; t < 6; ++t) {
    group.run([&pool, &total] {
      pool.parallel_for(50, [&total](std::size_t) { total.fetch_add(1); });
    });
  }
  group.wait();
  EXPECT_EQ(total.load(), 300);
}

}  // namespace
}  // namespace ampccut
