// Cross-validation property suite: three independent min-cut implementations
// must agree on the min-cut VALUE over a spread of random small weighted
// graphs. This is the Henzinger-et-al-style harness the benches lean on:
// when solvers with disjoint failure modes (matrix Stoer–Wagner, exhaustive
// enumeration, the AMPC pipeline) all report the same number, the number is
// almost certainly the min cut.
//
// Agreement semantics per solver:
//   * brute_force_min_cut     — exact by enumeration, the final word;
//   * stoer_wagner_min_cut    — exact deterministic, must match brute force;
//   * ampc_approx_min_cut     — the paper's (2+eps) pipeline; its recursion
//     with several trials on these sizes lands exact (asserted), and its
//     reported side must be a real cut of the claimed weight.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ampc_algo/kcut_ampc.h"
#include "ampc_algo/mincut_ampc.h"
#include "exact/brute_force.h"
#include "exact/stoer_wagner.h"
#include "graph/generators.h"
#include "kernel/front.h"
#include "mincut/kcut.h"
#include "mpc/gn_baseline.h"

namespace ampccut {
namespace {

// One generator family per residue so the ~50 cases sweep ER graphs, fixed
// edge-count graphs, planted cuts, and structured controls.
WGraph make_case(std::uint64_t i) {
  const std::uint64_t seed = i * 977 + 13;
  const VertexId n = 6 + static_cast<VertexId>(i % 7);  // 6..12
  WGraph g;
  switch (i % 5) {
    case 0:
      g = gen_erdos_renyi(n, 0.45, seed);
      break;
    case 1:
      g = gen_random_connected(n, n + 2 + i % 5, seed);
      break;
    case 2:
      g = gen_planted_cut(n, 0.8, 1 + static_cast<VertexId>(i % 2), seed);
      break;
    case 3:
      g = gen_complete(n);
      break;
    default:
      g = gen_cycle(n);
      break;
  }
  randomize_weights(g, 6, seed + 1);
  return g;
}

TEST(CrossValidation, ThreeSolversAgreeOnFiftyRandomGraphs) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    const WGraph g = make_case(i);
    const auto bf = brute_force_min_cut(g);
    ASSERT_LT(bf.weight, kInfiniteWeight) << "case " << i;

    const auto sw = stoer_wagner_min_cut(g);
    EXPECT_EQ(sw.weight, bf.weight) << "stoer_wagner, case " << i;
    EXPECT_EQ(cut_weight(g, sw.side), sw.weight) << "case " << i;

    ampc::AmpcMinCutOptions opt;
    opt.recursion.seed = i;
    opt.recursion.trials = 6;
    opt.recursion.local_threshold = 4;
    const auto am = ampc::ampc_approx_min_cut(g, opt);
    EXPECT_EQ(am.weight, bf.weight) << "mincut_ampc, case " << i;
    EXPECT_EQ(cut_weight(g, am.side), am.weight) << "case " << i;
  }
}

TEST(CrossValidation, KCutSolversAgreeOnSmallGraphs) {
  // Same idea one level up: the recursive k-cut against brute force.
  for (std::uint64_t i = 0; i < 8; ++i) {
    const WGraph g = make_case(i * 3 + 1);
    const auto bf2 = brute_force_min_k_cut(g, 2);
    const auto bf = brute_force_min_cut(g);
    EXPECT_EQ(bf2.weight, bf.weight) << "case " << i;
    EXPECT_EQ(k_cut_weight(g, bf2.part), bf2.weight) << "case " << i;
  }
}

// ---------------------------------------------------------------------------
// Kernelization differential layer: for every zoo instance and every
// backend, kernelize -> solve -> unpack must return the same cut VALUE as
// solving the original, and the reported side must cut exactly that much in
// the original graph. Weighted, multigraph and disconnected variants ride
// along; every kernelized backend also runs at thread counts 1 and 4 and
// must produce bit-identical results.

// Base zoo: the ISSUE's six families.
WGraph kernel_zoo_base(std::uint64_t i) {
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
WGraph kernel_zoo_case(std::uint64_t i) {
  WGraph g = kernel_zoo_base(i);
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

TEST(CrossValidation, KernelizedMinCutAgreesOnAllBackends) {
  for (std::uint64_t i = 0; i < 36; ++i) {
    const WGraph g = kernel_zoo_case(i);
    const Weight truth = stoer_wagner_min_cut(g).weight;

    // Exact backend behind the front-end.
    const MinCutResult sw = kernel::stoer_wagner_min_cut_kernelized(g);
    EXPECT_EQ(sw.weight, truth) << "kernelized stoer_wagner, case " << i;
    EXPECT_EQ(cut_weight(g, sw.side), sw.weight) << "case " << i;

    // AMPC backend, kernel on vs off, thread counts 1 and 4.
    ampc::AmpcMinCutOptions opt;
    opt.recursion.seed = i;
    opt.recursion.trials = 6;
    opt.recursion.local_threshold = 4;
    opt.recursion.threads = 1;
    const auto off = ampc::ampc_approx_min_cut(g, opt);
    opt.recursion.kernel = kernel::enabled_defaults();
    const auto on1 = ampc::ampc_approx_min_cut(g, opt);
    opt.recursion.threads = 4;
    const auto on4 = ampc::ampc_approx_min_cut(g, opt);
    EXPECT_EQ(off.weight, truth) << "ampc unkernelized, case " << i;
    EXPECT_EQ(on1.weight, truth) << "ampc kernelized, case " << i;
    EXPECT_EQ(cut_weight(g, on1.side), on1.weight) << "case " << i;
    // Thread-count bit-identity of the kernelized pipeline.
    EXPECT_EQ(on4.weight, on1.weight) << "case " << i;
    EXPECT_EQ(on4.side, on1.side) << "case " << i;
    EXPECT_EQ(on4.stats, on1.stats) << "case " << i;

    // MPC backend.
    mpc::MpcMinCutOptions mopt;
    mopt.recursion = opt.recursion;
    mopt.recursion.threads = 1;
    const auto mp = mpc::mpc_gn_min_cut(g, mopt);
    EXPECT_EQ(mp.weight, truth) << "mpc kernelized, case " << i;
    EXPECT_EQ(cut_weight(g, mp.side), mp.weight) << "case " << i;
  }
}

TEST(CrossValidation, KernelizedKCutAgreesOnAllBackends) {
  for (std::uint64_t i = 0; i < 12; ++i) {
    // Connected cases only: the greedy split loop counts components.
    const WGraph g = kernel_zoo_case((i % 3 == 2) ? i + 1 : i);
    const auto k = static_cast<std::uint32_t>(2 + i % 2);

    // Exact Saran–Vazirani splitter, kernel off vs on.
    const ApproxKCutResult off = apx_split_k_cut_exact(g, k);
    const ApproxKCutResult on =
        apx_split_k_cut_exact(g, k, kernel::enabled_defaults());
    EXPECT_EQ(on.weight, off.weight) << "exact k-cut, case " << i;
    EXPECT_EQ(k_cut_weight(g, on.part), on.weight) << "case " << i;
    EXPECT_GE(on.num_parts, k) << "case " << i;

    // AMPC k-cut, kernel off vs on (per-component kernels compound through
    // the shared RuntimeArena).
    ampc::AmpcMinCutOptions aopt;
    aopt.recursion.seed = i;
    aopt.recursion.trials = 6;
    aopt.recursion.local_threshold = 4;
    aopt.recursion.threads = 1;
    ampc::RuntimeArena arena;
    aopt.arena = &arena;
    const auto aoff = ampc::ampc_apx_split_k_cut(g, k, aopt);
    aopt.recursion.kernel = kernel::enabled_defaults();
    const auto aon = ampc::ampc_apx_split_k_cut(g, k, aopt);
    EXPECT_EQ(aon.result.weight, aoff.result.weight)
        << "ampc k-cut, case " << i;
    EXPECT_EQ(k_cut_weight(g, aon.result.part), aon.result.weight)
        << "case " << i;

    // MPC k-cut.
    mpc::MpcMinCutOptions mopt;
    mopt.recursion = aopt.recursion;
    const auto mon = mpc::mpc_gn_k_cut(g, k, mopt);
    EXPECT_EQ(mon.result.weight, aoff.result.weight)
        << "mpc k-cut, case " << i;
    EXPECT_EQ(k_cut_weight(g, mon.result.part), mon.result.weight)
        << "case " << i;
  }
}

// ---------------------------------------------------------------------------
// Transport-setting layer: AmpcMinCutOptions still carries the `transport`
// and `num_processes` fields that cutbench (the repo benchmark) assigns,
// although rounds always run in-process now. The e1 min-cut and e4 k-cut
// reports — results AND model accounting — must be bit-identical whatever
// they are set to, with the kernel front-end both off and on.

void expect_mincut_reports_equal(const ampc::AmpcMinCutReport& a,
                                 const ampc::AmpcMinCutReport& b,
                                 const std::string& what) {
  EXPECT_EQ(a.weight, b.weight) << what;
  EXPECT_EQ(a.side, b.side) << what;
  EXPECT_EQ(a.stats, b.stats) << what;
  EXPECT_EQ(a.measured_rounds, b.measured_rounds) << what;
  EXPECT_EQ(a.charged_rounds, b.charged_rounds) << what;
  EXPECT_EQ(a.levels_used, b.levels_used) << what;
  EXPECT_EQ(a.dht_reads, b.dht_reads) << what;
  EXPECT_EQ(a.dht_writes, b.dht_writes) << what;
  EXPECT_EQ(a.max_machine_traffic, b.max_machine_traffic) << what;
  EXPECT_EQ(a.peak_table_words, b.peak_table_words) << what;
  EXPECT_EQ(a.budget_violations, b.budget_violations) << what;
}

TEST(CrossValidation, MinCutReportBitIdenticalAcrossTransports) {
  for (std::uint64_t i = 0; i < 4; ++i) {
    const WGraph g = kernel_zoo_case(i * 5 + 2);
    for (const bool kernel_on : {false, true}) {
      ampc::AmpcMinCutOptions opt;
      opt.recursion.seed = i;
      opt.recursion.trials = 4;
      opt.recursion.local_threshold = 4;
      opt.recursion.threads = 1;
      if (kernel_on) opt.recursion.kernel = kernel::enabled_defaults();
      const auto base = ampc::ampc_approx_min_cut(g, opt);
      EXPECT_EQ(base.weight, stoer_wagner_min_cut(g).weight)
          << "case " << i << " kernel " << kernel_on;
      opt.transport = ampc::TransportKind::kLocal;
      for (const std::uint32_t procs : {1u, 2u, 4u}) {
        opt.num_processes = procs;
        const auto set = ampc::ampc_approx_min_cut(g, opt);
        expect_mincut_reports_equal(
            set, base,
            "case " + std::to_string(i) + " kernel " +
                std::to_string(kernel_on) + " procs " + std::to_string(procs));
      }
    }
  }
}

TEST(CrossValidation, KCutReportBitIdenticalAcrossTransports) {
  for (std::uint64_t i = 0; i < 3; ++i) {
    // Connected cases only (see KernelizedKCutAgreesOnAllBackends).
    const WGraph g = kernel_zoo_case((i % 3 == 2) ? 3 * i + 1 : 3 * i);
    const auto k = static_cast<std::uint32_t>(2 + i % 2);
    for (const bool kernel_on : {false, true}) {
      ampc::AmpcMinCutOptions opt;
      opt.recursion.seed = i;
      opt.recursion.trials = 4;
      opt.recursion.local_threshold = 4;
      opt.recursion.threads = 1;
      if (kernel_on) opt.recursion.kernel = kernel::enabled_defaults();
      const ampc::AmpcKCutReport base = ampc::ampc_apx_split_k_cut(g, k, opt);
      opt.transport = ampc::TransportKind::kLocal;
      for (const std::uint32_t procs : {1u, 2u, 4u}) {
        opt.num_processes = procs;
        const ampc::AmpcKCutReport set = ampc::ampc_apx_split_k_cut(g, k, opt);
        const std::string what = "case " + std::to_string(i) + " kernel " +
                                 std::to_string(kernel_on) + " procs " +
                                 std::to_string(procs);
        EXPECT_EQ(set.result.weight, base.result.weight) << what;
        EXPECT_EQ(set.result.part, base.result.part) << what;
        EXPECT_EQ(set.result.num_parts, base.result.num_parts) << what;
        EXPECT_EQ(set.measured_rounds, base.measured_rounds) << what;
        EXPECT_EQ(set.charged_rounds, base.charged_rounds) << what;
        EXPECT_EQ(k_cut_weight(g, set.result.part), set.result.weight) << what;
      }
    }
  }
}

}  // namespace
}  // namespace ampccut
