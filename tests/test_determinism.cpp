// Seed-determinism regression suite (reproducibility contract).
//
// Every randomized entry point takes an explicit seed and must be a pure
// function of (input, seed): identical seeds give identical results across
// runs and across thread schedules. The library earns this by construction —
// Rng is never seeded from std::random_device or the clock, parallel
// reductions land in per-slot storage and are reduced sequentially (the
// recursion driver's branch slots, the AMPC tracker's interval slots), and
// the AMPC tables merge with commutative policies
// (kMin/kMax) with at most one writer per key where order would matter
// (msf proposals, heavy-child election). These tests pin that contract so a
// future "helpful" entropy source or order-dependent reduction breaks CI
// instead of silently de-reproducing experiments.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "ampc_algo/list_ranking.h"
#include "ampc_algo/mincut_ampc.h"
#include "ampc_algo/singleton_ampc.h"
#include "flow/gomory_hu.h"
#include "graph/generators.h"
#include "kernel/kernel.h"
#include "mincut/contraction.h"
#include "serve/cut_server.h"
#include "support/psort.h"
#include "support/rng.h"
#include "support/threadpool.h"

namespace ampccut {
namespace {

TEST(Determinism, ContractionOrderSameSeedSameTimes) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const WGraph g = gen_erdos_renyi(40, 0.2, seed + 21);
    const ContractionOrder a = make_contraction_order(g, seed);
    const ContractionOrder b = make_contraction_order(g, seed);
    EXPECT_EQ(a.time, b.time) << "seed " << seed;
  }
}

// The AMPC singleton tracker runs rounds on the shared thread pool, so this
// additionally guards against thread-schedule-dependent results.
TEST(Determinism, SingletonAmpcSameSeedSameResult) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    WGraph g = gen_erdos_renyi(30, 0.25, seed + 11);
    randomize_weights(g, 7, seed + 90);
    const ContractionOrder o = make_contraction_order(g, seed);
    ampc::Runtime rt_a(ampc::Config::for_problem(g.n + g.m(), 0.5));
    const auto a = ampc::ampc_min_singleton_cut(rt_a, g, o);
    ampc::Runtime rt_b(ampc::Config::for_problem(g.n + g.m(), 0.5));
    const auto b = ampc::ampc_min_singleton_cut(rt_b, g, o);
    EXPECT_EQ(a.weight, b.weight) << "seed " << seed;
    EXPECT_EQ(a.rep, b.rep) << "seed " << seed;
    EXPECT_EQ(a.time, b.time) << "seed " << seed;
    // Round/traffic accounting is part of the reproducibility story: the
    // benches report these numbers as experiment results.
    EXPECT_EQ(rt_a.metrics().rounds, rt_b.metrics().rounds) << "seed " << seed;
    EXPECT_EQ(rt_a.metrics().dht_reads, rt_b.metrics().dht_reads)
        << "seed " << seed;
    EXPECT_EQ(rt_a.metrics().dht_writes, rt_b.metrics().dht_writes)
        << "seed " << seed;
  }
}

// Counts of one ampc_min_singleton_cut run, pinned below.
struct SingletonPin {
  Weight weight;
  VertexId rep;
  TimeStep time;
  std::uint64_t rounds;
  std::uint64_t charged_rounds;
  std::uint64_t dht_writes;
  std::uint64_t peak_table_words;
  std::map<std::string, std::uint64_t, std::less<>> rounds_by_label;
  // Read-side counts. The tracker's round bodies count the reads of dead
  // (vertex, level) and (edge, level) items in bulk, so these pin that the
  // bulk counts equal the per-item ones, machine by machine.
  std::uint64_t dht_reads;
  std::uint64_t max_machine_traffic;
  std::uint64_t budget_violations;
};

// Four dense clusters joined in a ring by light bundles, the shape of the
// certified rings the solve benchmarks run: each cluster is two Hamiltonian
// cycles (steps 1 and 3 around 16 vertices) of weights 10..14, and bundle j
// is two edges of weight j + 1 into the next cluster.
WGraph pinned_ring() {
  constexpr VertexId kClusters = 4;
  constexpr VertexId kSize = 16;
  WGraph g;
  g.n = kClusters * kSize;
  for (VertexId c = 0; c < kClusters; ++c) {
    const VertexId base = c * kSize;
    for (VertexId i = 0; i < kSize; ++i) {
      g.add_edge(base + i, base + (i + 1) % kSize, 10 + i % 5);
      g.add_edge(base + i, base + (i + 3) % kSize, 10 + (i + 2) % 5);
    }
    const VertexId next = ((c + 1) % kClusters) * kSize;
    g.add_edge(base + 2, next + 5, c + 1);
    g.add_edge(base + 9, next + 12, c + 1);
  }
  return g;
}

// The tracker's answer and every model count, pinned on three graphs at
// pool widths 1 and 4: host-side speedups of the tracker must leave rounds,
// reads, writes, per-machine traffic and table sizes exactly where they are.
TEST(Determinism, AmpcSingletonCountsPinned) {
  WGraph random = gen_random_connected(60, 240, 7);
  randomize_weights(random, 9, 3);
  // Every label a tracker run bumps; only the list-ranking contraction
  // depth differs between the three graphs.
  const auto labels = [](std::uint64_t lr_levels) {
    return std::map<std::string, std::uint64_t, std::less<>>{
        {"euler.orient", 1},
        {"euler.sort[cited]", 0},
        {"euler.successors", 1},
        {"hld_rmq.build[cited Thm 4]", 0},
        {"list_rank.base", 4},
        {"list_rank.compact[cited]", 0},
        {"list_rank.expand", lr_levels},
        {"list_rank.sample", lr_levels},
        {"list_rank.walk", lr_levels},
        {"low_depth.base_depth", 1},
        {"low_depth.heavy", 1},
        {"low_depth.label", 1},
        {"msf[cited Behnezhad et al. 2020]", 0},
        {"segmented_min_prefix.leaf", 1},
        {"singleton.group_sort[cited]", 0},
        {"singleton.intervals", 1},
        {"singleton.ldr_time", 1},
        {"singleton.leaders", 1}};
  };
  // dht_writes: a heavy-child proposal is one word (a dense put), not two.
  const std::vector<std::pair<WGraph, SingletonPin>> cases = {
      {pinned_ring(),
       {10, 5, 56, 19, 10, 2784, 2118, labels(2), 23110, 2224, 50}},
      {random,
       {11, 23, 0, 19, 10, 3876, 2101, labels(2), 29534, 1836, 73}},
      {gen_grid(8, 9),
       {2, 0, 0, 25, 12, 3155, 2614, labels(4), 29452, 1856, 70}},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const WGraph& g = cases[c].first;
    const SingletonPin& pin = cases[c].second;
    const ContractionOrder o = make_contraction_order(g, 11 + c);
    for (const std::size_t width : {1u, 4u}) {
      ThreadPool pool(width);
      ampc::Runtime rt(ampc::Config::for_problem(g.n + g.m(), 0.5), &pool);
      const SingletonCutResult r = ampc::ampc_min_singleton_cut(rt, g, o);
      const ampc::Metrics& m = rt.metrics();
      SCOPED_TRACE(::testing::Message() << "case " << c << " width "
                                        << width);
      EXPECT_EQ(r.weight, pin.weight);
      EXPECT_EQ(r.rep, pin.rep);
      EXPECT_EQ(r.time, pin.time);
      EXPECT_EQ(m.rounds, pin.rounds);
      EXPECT_EQ(m.charged_rounds, pin.charged_rounds);
      EXPECT_EQ(m.dht_writes, pin.dht_writes);
      EXPECT_EQ(m.peak_table_words, pin.peak_table_words);
      EXPECT_EQ(m.rounds_by_label, pin.rounds_by_label);
      EXPECT_EQ(m.dht_reads, pin.dht_reads);
      EXPECT_EQ(m.max_machine_traffic, pin.max_machine_traffic);
      EXPECT_EQ(m.budget_violations.load(), pin.budget_violations);
    }
  }
}

// A random permutation of 0..n-1 cut into chains of 1..max_len elements.
std::vector<std::uint64_t> random_chains(std::uint64_t n, std::uint64_t max_len,
                                         std::uint64_t seed) {
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::uint64_t> next(n, ampc::kNoNext);
  for (std::uint64_t k = 0; k < n;) {
    const std::uint64_t len =
        std::min<std::uint64_t>(n - k, 1 + rng.next_below(max_len));
    for (std::uint64_t j = k; j + 1 < k + len; ++j) {
      next[order[j]] = order[j + 1];
    }
    k += len;
  }
  return next;
}

// FNV-1a over every rank of every column.
std::uint64_t rank_digest(const std::vector<std::vector<std::int64_t>>& cols) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& col : cols) {
    for (const std::int64_t v : col) {
      h ^= static_cast<std::uint64_t>(v);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// List ranking's ranks and model counts, pinned for one and two value
// columns at pool widths 1 and 4 on three inputs: one long chain (two
// contraction levels, then the one-machine base), many short chains (the
// direct walk), and a chain long enough for three contraction levels. The
// walks read through the counted dense read path, and every word of it must
// land on the same machine as before.
TEST(Determinism, ListRankCountsPinned) {
  struct Pin {
    std::uint64_t digest;
    std::uint64_t dht_reads;
    std::uint64_t dht_writes;
    std::uint64_t max_machine_traffic;
    std::map<std::string, std::uint64_t, std::less<>> rounds_by_label;
  };
  const auto labels = [](std::uint64_t contractions, bool direct_walk,
                         std::uint64_t expansions) {
    std::map<std::string, std::uint64_t, std::less<>> m{
        {"list_rank.compact[cited]", 0},
        {"list_rank.expand", expansions},
        {"list_rank.sample", contractions},
        {"list_rank.walk", contractions}};
    m.emplace(direct_walk ? "list_rank.direct_walk" : "list_rank.base", 1);
    return m;
  };
  struct Input {
    std::uint64_t n, max_len, seed;
    Pin one_column, two_columns;
  };
  const std::vector<Input> inputs = {
      {1500, 1500, 1,
       {0xda47d882043e09e4ULL, 49195, 2340, 2037, labels(2, false, 2)},
       {0x484e42daaf2bb44cULL, 65040, 4260, 2776, labels(2, false, 2)}},
      {1500, 4, 2,
       {0x62d8d15f37aff1a4ULL, 19509, 8585, 387, labels(3, true, 2)},
       {0x27c0b6ce639d0908ULL, 25679, 13324, 580, labels(3, true, 2)}},
      {20000, 20000, 3,
       {0xa82e573af3c50a00ULL, 639784, 31504, 2208, labels(3, false, 3)},
       {0x0e5ff3b97a75719eULL, 845450, 57256, 3008, labels(3, false, 3)}},
  };
  for (const Input& in : inputs) {
    const std::vector<std::uint64_t> next =
        random_chains(in.n, in.max_len, in.seed);
    std::vector<std::vector<std::int64_t>> values(
        2, std::vector<std::int64_t>(in.n));
    Rng rng(in.seed + 10);
    for (std::uint64_t i = 0; i < in.n; ++i) {
      values[0][i] = static_cast<std::int64_t>(rng.next_below(21)) - 10;
      values[1][i] = static_cast<std::int64_t>(i % 3);
    }
    for (const std::size_t k : {1u, 2u}) {
      const Pin& pin = k == 1 ? in.one_column : in.two_columns;
      const std::vector<std::vector<std::int64_t>> cols(values.begin(),
                                                        values.begin() + k);
      for (const std::size_t width : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "n " << in.n << " columns " << k
                                          << " width " << width);
        ThreadPool pool(width);
        // 64-word machines, so every input contracts at least twice.
        ampc::Runtime rt(ampc::Config::for_problem(4096, 0.5), &pool);
        const auto ranks = ampc::list_rank_multi(rt, next, cols);
        const ampc::Metrics& m = rt.metrics();
        EXPECT_EQ(rank_digest(ranks), pin.digest);
        EXPECT_EQ(m.dht_reads, pin.dht_reads);
        EXPECT_EQ(m.dht_writes, pin.dht_writes);
        EXPECT_EQ(m.max_machine_traffic, pin.max_machine_traffic);
        EXPECT_EQ(m.rounds_by_label, pin.rounds_by_label);
      }
    }
  }
}

TEST(Determinism, AmpcMinCutSameSeedSameResult) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const WGraph g = gen_erdos_renyi(40, 0.15, seed + 31);
    ampc::AmpcMinCutOptions opt;
    opt.recursion.seed = seed;
    opt.recursion.trials = 1;
    opt.recursion.local_threshold = 16;
    const auto a = ampc::ampc_approx_min_cut(g, opt);
    const auto b = ampc::ampc_approx_min_cut(g, opt);
    EXPECT_EQ(a.weight, b.weight) << "seed " << seed;
    EXPECT_EQ(a.side, b.side) << "seed " << seed;
    EXPECT_EQ(a.measured_rounds, b.measured_rounds) << "seed " << seed;
    EXPECT_EQ(a.charged_rounds, b.charged_rounds) << "seed " << seed;
  }
}

// The clock ranking in make_contraction_order runs on psort's parallel
// stable sort; ContractionOrder::{perm,time} must be bit-identical at every
// thread count. The big graph (m ~ 10k > psort::kSeqCutoff) actually takes
// the parallel path; the small one pins the sequential-fallback agreement.
TEST(Determinism, ContractionOrderBitIdenticalAcrossThreadCounts) {
  for (const VertexId n : {VertexId{40}, VertexId{200}}) {
    const WGraph g = gen_erdos_renyi(n, 0.5, n + 17);
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      ThreadPool seq(1);
      const ContractionOrder ref = make_contraction_order(g, seed, &seq);
      ASSERT_EQ(ref.perm.size(), g.edges.size());
      for (const std::size_t threads : {std::size_t{2}, std::size_t{3},
                                        std::size_t{5}, std::size_t{0}}) {
        ThreadPool pool(threads);
        const ContractionOrder got = make_contraction_order(g, seed, &pool);
        ASSERT_EQ(got.perm, ref.perm)
            << "n=" << n << " seed=" << seed << " threads=" << threads;
        ASSERT_EQ(got.time, ref.time)
            << "n=" << n << " seed=" << seed << " threads=" << threads;
      }
      // The default pool (the shared one) agrees too.
      const ContractionOrder shared_pool = make_contraction_order(g, seed);
      ASSERT_EQ(shared_pool.perm, ref.perm);
      ASSERT_EQ(shared_pool.time, ref.time);
    }
  }
}

// Seed-corpus regression: pinned FNV-1a digests of ContractionOrder::perm
// for fixed (graph, seed) pairs. A future sort/primitive change that
// silently perturbs the rank order — while still producing a validly
// sorted permutation — fails HERE, loudly, instead of de-reproducing every
// downstream experiment. If a change intentionally alters the order
// (e.g. a new tie-break policy), re-pin these constants and say so in the
// PR: that is an experiment-breaking change, not a refactor.
std::uint64_t fnv1a_perm(const std::vector<EdgeId>& perm) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const EdgeId e : perm) {
    // Fold the value, not its bytes, so the digest is endianness-portable.
    h = (h ^ e) * 1099511628211ULL;  // FNV prime
  }
  return h;
}

TEST(Determinism, ContractionOrderDigestCorpus) {
  struct Pinned {
    const char* name;
    WGraph g;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  WGraph weighted = gen_erdos_renyi(40, 0.4, 11);
  randomize_weights(weighted, 9, 5);
  const Pinned corpus[] = {
      {"erdos_renyi(60,0.15,101) seed=1", gen_erdos_renyi(60, 0.15, 101), 1,
       0xf360bf7e8ff5c9eeULL},
      {"random_connected(80,200,7) seed=2", gen_random_connected(80, 200, 7),
       2, 0x53cd4d8251e21fbfULL},
      {"weighted erdos_renyi(40,0.4,11) seed=5", weighted, 5,
       0xc26f97fb138378d1ULL},
  };
  for (const Pinned& p : corpus) {
    const ContractionOrder o = make_contraction_order(p.g, p.seed);
    EXPECT_EQ(fnv1a_perm(o.perm), p.digest)
        << p.name << ": ContractionOrder::perm changed. If intentional, "
        << "re-pin to 0x" << std::hex << fnv1a_perm(o.perm);
  }
}

// The kernelization front-end (src/kernel) promises a bit-identical
// KernelResult — graph, lineage, candidate, stats — at every thread count:
// its control loop is sequential and every sort runs on psort. The sparse
// graph reduces heavily (peel cascades, rebuilds), the dense one exercises
// the certificate scan, and both have enough edges for psort's parallel
// path. (test_kernel.cpp pins the same contract against pools 1/2/4; this
// corpus adds the shared-pool width.)
TEST(Determinism, KernelOutputBitIdenticalAcrossThreadCounts) {
  std::vector<WGraph> graphs;
  graphs.push_back(gen_random_connected(6000, 9000, 17));
  randomize_weights(graphs.back(), 5, 18);
  graphs.push_back(gen_erdos_renyi(200, 0.5, 19));

  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const WGraph& g = graphs[gi];
    const kernel::KernelResult ref =
        kernel::kernelize(g, kernel::enabled_defaults(), nullptr);
    for (const std::uint32_t threads : {1u, 2u, 4u, 0u}) {
      ThreadPool owned(threads == 0 ? ThreadPool::shared().num_threads()
                                    : threads);
      const kernel::KernelResult kr =
          kernel::kernelize(g, kernel::enabled_defaults(), &owned);
      EXPECT_EQ(kr.kernel.edges, ref.kernel.edges)
          << "graph " << gi << " threads " << threads;
      EXPECT_EQ(kr.map.kernel_of, ref.map.kernel_of)
          << "graph " << gi << " threads " << threads;
      EXPECT_EQ(kr.map.candidate_weight, ref.map.candidate_weight)
          << "graph " << gi << " threads " << threads;
      EXPECT_EQ(kr.map.candidate_members, ref.map.candidate_members)
          << "graph " << gi << " threads " << threads;
      EXPECT_EQ(kr.stats, ref.stats)
          << "graph " << gi << " threads " << threads;
    }
  }
}

// The serving tier publishes Gomory–Hu snapshots whose answers must not
// depend on the pool that built them: Gusfield's loop is sequential by
// construction and the kernel merge rides psort, so the tree — parents AND
// cut weights — is bit-identical at every thread count, whether built
// directly or through a CutServer (kernel merge on). The digest is pinned
// like the contraction corpus above: an intentional tie-break change must
// re-pin it in the PR, not drift silently.
std::uint64_t fnv1a_tree(const GomoryHuTree& t) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (std::size_t v = 0; v < t.parent.size(); ++v) {
    h = (h ^ t.parent[v]) * 1099511628211ULL;  // FNV prime
    h = (h ^ t.parent_cut_weight[v]) * 1099511628211ULL;
  }
  return h;
}

TEST(Determinism, GomoryHuTreeBitIdenticalAcrossThreadCounts) {
  WGraph g = gen_random_connected(120, 360, 23);
  randomize_weights(g, 7, 24);
  for (std::size_t e = 0; e < 6; ++e) g.edges.push_back(g.edges[e]);

  // The direct build on the raw multigraph.
  const GomoryHuTree direct = build_gomory_hu(g);
  const std::uint64_t direct_digest = fnv1a_tree(direct);
  EXPECT_EQ(direct_digest, 0xa3f1368fea4c2723ULL)
      << "Gomory-Hu tree changed. If intentional, re-pin to 0x" << std::hex
      << direct_digest;

  // Serve-built trees run the flows on the MERGED graph, so their shape may
  // legitimately differ from `direct` — but across pool widths they must be
  // bit-identical (Gusfield is sequential, the merge rides psort), and every
  // answer must agree with the direct tree's.
  std::uint64_t serve_digest = 0;
  for (const std::uint32_t threads : {1u, 2u, 4u, 0u}) {
    ThreadPool owned(threads == 0 ? ThreadPool::shared().num_threads()
                                  : threads);
    serve::CutServerOptions opt;
    opt.kernel = kernel::enabled_defaults();  // merge pass feeds the flows
    opt.pool = &owned;
    serve::CutServer server(g, opt);
    const GomoryHuTree& tree = server.snapshot()->tree();
    if (threads == 1) {
      serve_digest = fnv1a_tree(tree);
      EXPECT_EQ(serve_digest, 0xa3f1368fea4c2723ULL)
          << "serve-built Gomory-Hu tree changed. If intentional, re-pin to 0x"
          << std::hex << serve_digest;
      for (VertexId s = 0; s < g.n; s += 7) {
        for (VertexId t = s + 1; t < g.n; t += 5) {
          EXPECT_EQ(tree.min_cut(s, t), direct.min_cut(s, t));
        }
      }
    }
    EXPECT_EQ(fnv1a_tree(tree), serve_digest) << "threads " << threads;
  }
}

// Transport-setting bit-identity: AmpcMinCutOptions still carries the
// `transport` and `num_processes` fields that cutbench assigns, although
// rounds always run in-process now. Setting them must not change the
// report — result, stats or any model metric — at any process count.
TEST(Determinism, AmpcMinCutBitIdenticalAcrossTransports) {
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    const WGraph g = gen_erdos_renyi(36, 0.2, seed + 77);
    ampc::AmpcMinCutOptions opt;
    opt.recursion.seed = seed;
    opt.recursion.trials = 2;
    opt.recursion.local_threshold = 8;
    opt.recursion.threads = 1;
    const auto base = ampc::ampc_approx_min_cut(g, opt);
    opt.transport = ampc::TransportKind::kLocal;
    for (const std::uint32_t procs : {1u, 2u, 4u}) {
      opt.num_processes = procs;
      const auto set = ampc::ampc_approx_min_cut(g, opt);
      EXPECT_EQ(set.weight, base.weight) << "seed " << seed << " p" << procs;
      EXPECT_EQ(set.side, base.side) << "seed " << seed << " p" << procs;
      EXPECT_EQ(set.stats, base.stats) << "seed " << seed << " p" << procs;
      EXPECT_EQ(set.measured_rounds, base.measured_rounds)
          << "seed " << seed << " p" << procs;
      EXPECT_EQ(set.charged_rounds, base.charged_rounds)
          << "seed " << seed << " p" << procs;
      EXPECT_EQ(set.levels_used, base.levels_used)
          << "seed " << seed << " p" << procs;
      EXPECT_EQ(set.dht_reads, base.dht_reads)
          << "seed " << seed << " p" << procs;
      EXPECT_EQ(set.dht_writes, base.dht_writes)
          << "seed " << seed << " p" << procs;
      EXPECT_EQ(set.max_machine_traffic, base.max_machine_traffic)
          << "seed " << seed << " p" << procs;
      EXPECT_EQ(set.peak_table_words, base.peak_table_words)
          << "seed " << seed << " p" << procs;
      EXPECT_EQ(set.budget_violations, base.budget_violations)
          << "seed " << seed << " p" << procs;
    }
  }
}

TEST(Determinism, DifferentSeedsEventuallyDiffer) {
  // Sanity check that the seed actually feeds through: across many seeds the
  // contraction order the recursion draws must take at least two values.
  const WGraph g = gen_erdos_renyi(24, 0.3, 5);
  bool saw_difference = false;
  const ContractionOrder first = make_contraction_order(g, 0);
  for (std::uint64_t seed = 1; seed < 16 && !saw_difference; ++seed) {
    saw_difference = make_contraction_order(g, seed).time != first.time;
  }
  EXPECT_TRUE(saw_difference);
}

}  // namespace
}  // namespace ampccut
