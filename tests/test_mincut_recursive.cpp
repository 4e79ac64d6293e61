#include <gtest/gtest.h>

#include "ampc_algo/mincut_ampc.h"
#include "exact/stoer_wagner.h"
#include "graph/generators.h"
#include "mincut/mincut_recursive.h"

namespace ampccut {
namespace {

ApproxMinCutOptions fast_opts(std::uint64_t seed) {
  ApproxMinCutOptions o;
  o.seed = seed;
  o.trials = 2;
  o.local_threshold = 24;
  return o;
}

TEST(ApproxMinCut, ValidCutOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const WGraph g = gen_erdos_renyi(80, 0.1, seed);
    const auto r = approx_min_cut(g, fast_opts(seed));
    EXPECT_EQ(cut_weight(g, r.side), r.weight);
    const auto ones = std::count(r.side.begin(), r.side.end(), 1);
    EXPECT_GT(ones, 0);
    EXPECT_LT(ones, static_cast<long>(g.n));
  }
}

TEST(ApproxMinCut, WithinTwoPlusEpsOfExact) {
  // Theorem 1's guarantee is (2+eps) w.h.p.; empirically the result is
  // usually exact. We assert the hard 2+eps bound with eps = 0.9.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const WGraph g = gen_erdos_renyi(60, 0.15, seed + 40);
    const auto exact = stoer_wagner_min_cut(g);
    const auto r = approx_min_cut(g, fast_opts(seed));
    EXPECT_GE(r.weight, exact.weight);
    EXPECT_LE(static_cast<double>(r.weight),
              (2.0 + 0.9) * static_cast<double>(exact.weight) + 1e-9)
        << "seed " << seed;
  }
}

TEST(ApproxMinCut, FindsPlantedCutExactly) {
  // A planted sparse bridge is a singleton-cut magnet: the tracker should
  // recover it exactly.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const WGraph g = gen_planted_cut(80, 0.3, 2, seed);
    const auto exact = stoer_wagner_min_cut(g);
    const auto r = approx_min_cut(g, fast_opts(seed));
    EXPECT_EQ(r.weight, exact.weight) << "seed " << seed;
  }
}

TEST(ApproxMinCut, BarbellIsExact) {
  const WGraph g = gen_barbell(40);
  const auto r = approx_min_cut(g, fast_opts(3));
  EXPECT_EQ(r.weight, 1u);
}

TEST(ApproxMinCut, WeightedGraphs) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    WGraph g = gen_erdos_renyi(50, 0.2, seed + 7);
    randomize_weights(g, 30, seed);
    const auto exact = stoer_wagner_min_cut(g);
    const auto r = approx_min_cut(g, fast_opts(seed));
    EXPECT_EQ(cut_weight(g, r.side), r.weight);
    EXPECT_LE(static_cast<double>(r.weight),
              2.9 * static_cast<double>(exact.weight));
  }
}

TEST(ApproxMinCut, DisconnectedReturnsZero) {
  const WGraph g = gen_two_cycles(30);
  const auto r = approx_min_cut(g, fast_opts(1));
  EXPECT_EQ(r.weight, 0u);
  EXPECT_EQ(cut_weight(g, r.side), 0u);
  const auto ones = std::count(r.side.begin(), r.side.end(), 1);
  EXPECT_EQ(ones, 15);
}

TEST(ApproxMinCut, SmallInstanceGoesLocal) {
  const WGraph g = gen_complete(8);
  const auto r = approx_min_cut(g, fast_opts(1));
  EXPECT_EQ(r.weight, 7u);  // K8 min cut isolates one vertex
  EXPECT_EQ(r.stats.local_solves, r.stats.instances);
  EXPECT_EQ(r.stats.depth, 0u);
}

TEST(ApproxMinCut, RecursionDepthIsDoublyLogarithmic) {
  // The schedule contracts by x = max(4, t^c): depth should stay tiny.
  ApproxMinCutOptions o = fast_opts(5);
  o.trials = 1;
  const WGraph g = gen_random_connected(3000, 9000, 11);
  const auto r = approx_min_cut(g, o);
  EXPECT_LE(r.stats.depth, 7u);
  EXPECT_GE(r.stats.depth, 2u);
  EXPECT_GT(r.stats.tracker_calls, 0u);
}

TEST(ApproxMinCut, OracleAndIntervalBackendsAgreeInDistribution) {
  // Same seed -> same contraction orders -> identical results whichever
  // tracker is used: the sequential backend's oracle and the AMPC backend's
  // interval tracker (Section 4) compute the same function.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const WGraph g = gen_erdos_renyi(60, 0.15, seed + 90);
    ampc::AmpcMinCutOptions b;
    b.recursion = fast_opts(seed);
    const ApproxMinCutResult seq = approx_min_cut(g, fast_opts(seed));
    const ampc::AmpcMinCutReport par = ampc::ampc_approx_min_cut(g, b);
    EXPECT_EQ(seq.weight, par.weight);
    EXPECT_EQ(seq.stats, par.stats);
  }
}

TEST(ApproxMinCut, RejectsDegenerateInputs) {
  WGraph g;
  g.n = 1;
  EXPECT_THROW(approx_min_cut(g, fast_opts(1)), std::logic_error);
}

}  // namespace
}  // namespace ampccut
