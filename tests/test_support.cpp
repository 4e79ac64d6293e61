#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/bits.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/threadpool.h"

namespace ampccut {
namespace {

TEST(Bits, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(255), 7u);
  EXPECT_EQ(floor_log2(256), 8u);
  EXPECT_EQ(floor_log2((1ull << 63) + 5), 63u);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(0, 3), 0u);
  EXPECT_EQ(ceil_div(1, 1), 1u);
}

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(REPRO_CHECK_MSG(false, "boom"), std::logic_error);
  EXPECT_NO_THROW(REPRO_CHECK(true));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SplitIndependence) {
  Rng base(7);
  Rng s1 = base.split(1);
  Rng s2 = base.split(2);
  // Different tags give different streams.
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= (s1.next_u64() != s2.next_u64());
  EXPECT_TRUE(any_diff);
  // Same tag reproduces.
  Rng s1b = base.split(1);
  Rng s1c = base.split(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(s1b.next_u64(), s1c.next_u64());
}

TEST(Rng, NextBelowInRangeAndRoughlyUniform) {
  Rng rng(3);
  std::vector<int> hist(10, 0);
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++hist[v];
  }
  for (int c : hist) {
    EXPECT_GT(c, kTrials / 10 * 0.9);
    EXPECT_LT(c, kTrials / 10 * 1.1);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const double o = rng.next_double_open();
    EXPECT_GT(o, 0.0);
    EXPECT_LE(o, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0;
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) sum += rng.next_exponential(4.0);
  EXPECT_NEAR(sum / kTrials, 0.25, 0.01);
}

TEST(ThreadPool, RunsAllIterations) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesEmptyAndSingle) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
  std::atomic<int> n{0};
  pool.parallel_for(1, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  // Every iteration runs and the lowest throwing index's exception surfaces,
  // on the inline (one-thread) path and the batch path alike.
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(width);
    ThreadPool pool(width);
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(100, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 37) throw std::runtime_error("iteration 37");
        if (i == 5) throw std::runtime_error("iteration 5");
      });
      ADD_FAILURE() << "parallel_for swallowed the exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "iteration 5");
    }
    EXPECT_EQ(ran.load(), 100);
    // Pool stays usable after an exception.
    std::atomic<int> n{0};
    pool.parallel_for(50, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 50);
  }
}

TEST(ThreadPool, OneChunkBatchRunsInlineOnTheCaller) {
  // A batch of at most one 16-iteration chunk runs on the calling thread
  // even on a wide pool, with the batch path's error contract.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(16);
  pool.parallel_for(16, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);

  std::vector<int> ran(16, 0);
  try {
    pool.parallel_for(16, [&](std::size_t i) {
      ran[i] = 1;
      if (i == 11) throw std::runtime_error("iteration 11");
      if (i == 3) throw std::runtime_error("iteration 3");
    });
    ADD_FAILURE() << "parallel_for swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "iteration 3");
  }
  EXPECT_EQ(ran, std::vector<int>(16, 1));
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<long> sum{0};
    pool.parallel_for(200, [&](std::size_t i) { sum.fetch_add(long(i)); });
    EXPECT_EQ(sum.load(), 199L * 200 / 2);
  }
}

}  // namespace
}  // namespace ampccut
