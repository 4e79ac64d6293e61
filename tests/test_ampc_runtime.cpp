#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "ampc/runtime.h"
#include "ampc_algo/mincut_ampc.h"
#include "graph/generators.h"
#include "support/errors.h"
#include "support/threadpool.h"

namespace ampccut::ampc {
namespace {

Config small_config() {
  Config c = Config::for_problem(1 << 12, 0.5);
  return c;
}

TEST(AmpcConfig, MachineMemoryFollowsEps) {
  const Config c = Config::for_problem(1 << 20, 0.5);
  EXPECT_EQ(c.machine_memory_words, 1u << 10);
  const Config tight = Config::for_problem(1 << 20, 0.25);
  EXPECT_EQ(tight.machine_memory_words, 64u);  // clamped lower bound
  EXPECT_EQ(c.num_machines(1 << 20), 1u << 10);
}

TEST(AmpcRuntime, CountsRounds) {
  Runtime rt(small_config());
  rt.round("a", 4, [](MachineContext&) {});
  rt.round("b", 2, [](MachineContext&) {});
  rt.charge_rounds("cited", 3);
  EXPECT_EQ(rt.metrics().rounds, 2u);
  EXPECT_EQ(rt.metrics().charged_rounds, 3u);
  EXPECT_EQ(rt.metrics().model_rounds(), 5u);
  EXPECT_EQ(rt.metrics().rounds_by_label.at("a"), 1u);
}

TEST(AmpcRuntime, WritesInvisibleUntilBarrier) {
  Runtime rt(small_config());
  DenseTable<std::uint64_t> t(rt, "t", 16);
  rt.round("write", 1, [&](MachineContext&) {
    t.put(7, 42);
    // AMPC semantics: the write targets the NEXT round's hash table.
    EXPECT_EQ(t.get(7), 0u);
  });
  // After the barrier the value is visible.
  rt.round("read", 1, [&](MachineContext&) { EXPECT_EQ(t.get(7), 42u); });
}

TEST(AmpcRuntime, MergePolicies) {
  Runtime rt(small_config());
  DenseTable<std::uint64_t> tmin(rt, "min", 4, ~0ull, Merge::kMin);
  DenseTable<std::uint64_t> tsum(rt, "sum", 4, 0, Merge::kSum);
  rt.round("w", 8, [&](MachineContext& ctx) {
    tmin.put(1, 100 + ctx.machine_id());
    tsum.put(1, 1);
  });
  EXPECT_EQ(tmin.raw(1), 100u);
  EXPECT_EQ(tsum.raw(1), 8u);
}

TEST(AmpcRuntime, MergingPolicyNeedsOrderedValueType) {
  // A pair has no +=, so only kOverwrite can commit it; the table rejects
  // the other policies when it is built or re-leased, before any round.
  using Pair = std::pair<std::uint64_t, std::uint64_t>;
  Runtime rt(small_config());
  EXPECT_THROW(DenseTable<Pair>(rt, "p", 4, Pair{}, Merge::kSum),
               std::logic_error);
  EXPECT_THROW(rt.lease_dense<Pair>("p", 4, Pair{}, Merge::kMin),
               std::logic_error);
  DenseTable<Pair> ok(rt, "p", 4);
  rt.round("w", 1, [&](MachineContext&) { ok.put(2, {3, 4}); });
  EXPECT_EQ(ok.raw(2), Pair(3, 4));
}

TEST(AmpcRuntime, DenseTableStagedWrites) {
  Runtime rt(small_config());
  DenseTable<std::uint64_t> t(rt, "d", 16, 5);
  rt.round("w", 4, [&](MachineContext& ctx) {
    EXPECT_EQ(t.get(ctx.machine_id()), 5u);
    t.put(ctx.machine_id(), ctx.machine_id() * 10);
  });
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(t.raw(i), i * 10);
  for (std::uint64_t i = 4; i < 16; ++i) EXPECT_EQ(t.raw(i), 5u);
}

TEST(AmpcRuntime, TracksTrafficPerMachine) {
  Runtime rt(small_config());
  DenseTable<std::uint64_t> t(rt, "d", 64, 1);
  rt.round("r", 2, [&](MachineContext& ctx) {
    if (ctx.machine_id() == 0) {
      for (int i = 0; i < 10; ++i) (void)t.get(i);
    } else {
      (void)t.get(0);
    }
  });
  EXPECT_EQ(rt.metrics().dht_reads, 11u);
  EXPECT_EQ(rt.metrics().max_machine_traffic, 10u);
}

TEST(AmpcRuntime, ContextReadsCountLikeActiveMachineReads) {
  // get(ctx, i) charges the context it is given exactly what get(i) charges
  // the thread's active machine, multi-word values included.
  Runtime rt(small_config());
  DenseTable<std::uint64_t> t(rt, "d", 64, 1);
  DenseTable<std::pair<std::uint64_t, std::uint64_t>> wide(rt, "w", 4);
  rt.round("r", 2, [&](MachineContext& ctx) {
    if (ctx.machine_id() == 0) {
      for (int i = 0; i < 10; ++i) (void)t.get(ctx, i);
    } else {
      (void)t.get(0);
      (void)wide.get(ctx, 3);
    }
  });
  EXPECT_EQ(rt.metrics().dht_reads, 13u);
  EXPECT_EQ(rt.metrics().max_machine_traffic, 10u);
}

TEST(AmpcRuntime, BudgetViolationsRecorded) {
  Config c = small_config();
  c.machine_memory_words = 4;
  Runtime rt(c);
  DenseTable<std::uint64_t> t(rt, "d", 64, 1);
  rt.round("r", 1, [&](MachineContext&) {
    for (int i = 0; i < 10; ++i) (void)t.get(i);  // 10 > 4 budget
  });
  EXPECT_EQ(rt.metrics().budget_violations.load(), 1u);
}

// A round whose body throws is discarded, not committed, and rethrown
// unchanged; the driver-side overflow write staged before it survives and
// commits with the next round, and the runtime stays reusable.
TEST(AmpcRuntime, ThrowingRoundDiscardsStagingAndStaysUsable) {
  ThreadPool pool(4);
  Runtime rt(Config::for_problem(4096, 0.5), &pool);
  auto dense = rt.lease_dense<std::uint64_t>("d", 64, 0, Merge::kSum);
  dense->put(40, 1000);  // driver-side: the overflow log
  EXPECT_THROW(rt.round("bug", 32,
                        [&](MachineContext& ctx) {
                          dense->put(ctx.machine_id(), 100);
                          if (ctx.machine_id() == 17) {
                            throw std::logic_error("actual bug");
                          }
                        }),
               std::logic_error);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(dense->raw(i), 0u) << i;
  rt.round("after", 4, [&](MachineContext& ctx) {
    dense->put(ctx.machine_id(), 5);
  });
  for (std::uint64_t m = 0; m < 4; ++m) EXPECT_EQ(dense->raw(m), 5u);
  EXPECT_EQ(dense->raw(40), 1000u);
  // Leases stay releasable and reset_for_subproblem stays legal.
  dense.release();
  rt.reset_for_subproblem(Config::for_problem(1024, 0.5));
  EXPECT_EQ(rt.metrics().rounds, 0u);
}

// The two strict-budget tests keep the FaultInjection suite name they were
// written under, so their ids stay stable in test history and CI filters;
// they exercise only the runtime's strict-budget path.
TEST(FaultInjection, StrictBudgetEscalatesToTypedError) {
  ThreadPool pool(2);
  Config cfg = Config::for_problem(4096, 0.5);  // 64-word budget
  Runtime counting(cfg, &pool);
  counting.round("fi.heavy", 2,
                 [](MachineContext& ctx) { ctx.count_read(100); });
  EXPECT_EQ(counting.metrics().budget_violations.load(), 2u);

  Config scfg = cfg;
  scfg.strict_budget = true;
  Runtime strict(scfg, &pool);
  try {
    strict.round("fi.heavy", 2,
                 [](MachineContext& ctx) { ctx.count_read(100); });
    FAIL() << "expected BudgetExceededError";
  } catch (const BudgetExceededError& e) {
    EXPECT_GT(e.traffic(), e.budget());
    EXPECT_EQ(e.budget(), 64u);
  }
  // The runtime stays usable.
  strict.round("fi.light", 2, [](MachineContext&) {});
}

TEST(FaultInjection, StrictBudgetDegradesGracefullyInTracker) {
  const WGraph g = gen_random_connected(40, 90, 7);
  AmpcMinCutOptions base;
  base.recursion.threads = 1;
  base.recursion.seed = 3;
  const AmpcMinCutReport plain = ampc_approx_min_cut(g, base);
  ASSERT_GT(plain.budget_violations, 0u);  // strict mode must have work to do
  AmpcMinCutOptions strict = base;
  strict.strict_budget = true;
  const AmpcMinCutReport degraded = ampc_approx_min_cut(g, strict);
  // Degradation reruns instances with a coarser model; the cut itself is
  // model-eps-independent, so results match the relaxed run bit for bit.
  EXPECT_EQ(degraded.weight, plain.weight);
  EXPECT_EQ(degraded.side, plain.side);
  EXPECT_EQ(degraded.stats, plain.stats);
  EXPECT_GT(degraded.budget_degradations, 0u);
}

TEST(AmpcRuntime, RoundOverItemsChunksByMemory) {
  Config c = small_config();
  c.machine_memory_words = 8;
  Runtime rt(c);
  std::atomic<std::uint64_t> total{0};
  rt.round_over_items("items", 30, [&](MachineContext&, std::uint64_t i) {
    total.fetch_add(i);
  });
  EXPECT_EQ(total.load(), 29u * 30 / 2);
  EXPECT_EQ(rt.metrics().rounds, 1u);
}

TEST(AmpcRuntime, PeakTableWordsTracked) {
  Runtime rt(small_config());
  {
    DenseTable<std::uint64_t> t(rt, "d", 1000);
    rt.round("noop", 1, [](MachineContext&) {});
  }
  EXPECT_GE(rt.metrics().peak_table_words, 1000u);
}

}  // namespace
}  // namespace ampccut::ampc
