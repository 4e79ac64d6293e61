// The table/runtime pooling contract (DESIGN.md "Table and runtime
// pooling"): a lease must hand back cleared, correctly-sized storage no
// matter what the previous tenant did to it; pooled and fresh-table runs
// must produce bit-identical contents, metrics, and traffic counts across
// merge policies and thread counts; and Runtime::reset_for_subproblem must
// make runtime reuse indistinguishable from fresh construction.
#include <gtest/gtest.h>

#include "ampc/runtime.h"
#include "ampc_algo/singleton_ampc.h"
#include "graph/generators.h"
#include "mincut/contraction.h"

namespace ampccut::ampc {
namespace {

TEST(TablePool, DenseLeaseReturnsClearedCorrectlySizedStorage) {
  Runtime rt(Config::for_problem(1 << 10, 0.5));
  {
    auto t = rt.lease_dense<std::uint64_t>("first", 8, 7);
    ASSERT_EQ(t->size(), 8u);
    t->seed(3, 99);
    rt.round("dirty", 2, [&](MachineContext& ctx) {
      t->put(ctx.machine_id(), 1000 + ctx.machine_id());
    });
    EXPECT_EQ(t->raw(0), 1000u);
  }
  // Same value type: the second lease reuses the first lease's storage...
  auto t2 = rt.lease_dense<std::uint64_t>("second", 16, 3);
  EXPECT_EQ(rt.pool_stats().reuses, 1u);
  // ...but none of its contents, at the new shape and init.
  ASSERT_EQ(t2->size(), 16u);
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(t2->raw(i), 3u);

  // Shrinking re-lease is just as clean, including a non-uniform init value
  // (exercises the assign fallback next to the memset fast path).
  t2.release();
  auto t3 = rt.lease_dense<std::uint64_t>("third", 4, 0x0102030405060708ull,
                                          Merge::kSum);
  ASSERT_EQ(t3->size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t3->raw(i), 0x0102030405060708ull);
  }
  // The reset policy (kMin) governs, not the previous tenant's kSum.
  t3.release();
  auto t4 = rt.lease_dense<std::uint64_t>("fourth", 8, ~0ull, Merge::kMin);
  EXPECT_EQ(rt.pool_stats().reuses, 3u);
  rt.round("w", 4, [&](MachineContext& ctx) {
    t4->put(5, 100 + ctx.machine_id());
  });
  EXPECT_EQ(t4->raw(5), 100u);
}

TEST(TablePool, PoolIsKeyedByConcreteType) {
  Runtime rt(Config::for_problem(1 << 10, 0.5));
  rt.lease_dense<std::uint64_t>("a", 8);      // released immediately
  auto t = rt.lease_dense<std::uint8_t>("b", 8);  // different value type
  EXPECT_EQ(rt.pool_stats().reuses, 0u);
  auto u = rt.lease_dense<std::uint64_t>("c", 8);  // matches the first
  EXPECT_EQ(rt.pool_stats().reuses, 1u);
}

// Everything observable about one workload run — committed contents of all
// four merge policies plus every metric the benches quote.
struct Outcome {
  std::vector<std::uint64_t> min_t, max_t, sum_t, ovr_t, dense;
  std::uint64_t rounds = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t max_traffic = 0;
  std::uint64_t peak_words = 0;
  std::uint64_t violations = 0;

  bool operator==(const Outcome&) const = default;
};

// The merge-policy workload from test_runtime_concurrency, parameterized
// over how the tables come to exist (direct construction vs leases): two
// rounds over 16 machines, shared and private keys, all four policies, a
// dense kSum table, adaptive reads, and a driver-side overflow write.
template <class MakeTables>
Outcome run_workload(Runtime& rt, MakeTables&& make) {
  auto tables = make(rt);
  auto& [tmin, tmax, tsum, tovr, dense] = tables;

  constexpr std::size_t kMachines = 16;
  rt.round("phase1", kMachines, [&](MachineContext& ctx) {
    const auto m = static_cast<std::uint64_t>(ctx.machine_id());
    for (std::uint64_t k = 0; k < 4; ++k) {
      tmin->put(k, 100 + ((m * 7 + k) % 13));
      tmax->put(k, 100 + ((m * 5 + k) % 11));
      tsum->put(k, m + k);
      tovr->put(k, m);
    }
    tovr->put(1000 + m, m);
    dense->put(m % 8, 1);
    dense->put(8 + m, m);
  });
  tovr->put(7777, 42);  // driver-side overflow write
  rt.round("phase2", kMachines, [&](MachineContext& ctx) {
    const auto m = static_cast<std::uint64_t>(ctx.machine_id());
    const auto v = tsum->get(0);
    tsum->put(4, v % 97);
    tmin->put(2, 50 + m);
    dense->put(m % 4, 2);
  });

  const auto contents = [](const auto& t) {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < t->size(); ++i) out.push_back(t->raw(i));
    return out;
  };
  Outcome out;
  out.min_t = contents(tmin);
  out.max_t = contents(tmax);
  out.sum_t = contents(tsum);
  out.ovr_t = contents(tovr);
  out.dense = contents(dense);
  const Metrics& m = rt.metrics();
  out.rounds = m.rounds;
  out.reads = m.dht_reads;
  out.writes = m.dht_writes;
  out.max_traffic = m.max_machine_traffic;
  out.peak_words = m.peak_table_words;
  out.violations = m.budget_violations.load();
  return out;
}

// Direct construction: the pre-pool way tables came to exist. unique_ptr so
// the tuple is movable and -> works like the lease.
auto make_fresh(Runtime& rt) {
  using T = DenseTable<std::uint64_t>;
  return std::tuple(std::make_unique<T>(rt, "min", 8, ~0ull, Merge::kMin),
                    std::make_unique<T>(rt, "max", 8, 0, Merge::kMax),
                    std::make_unique<T>(rt, "sum", 8, 0, Merge::kSum),
                    std::make_unique<T>(rt, "ovr", 7778, 0, Merge::kOverwrite),
                    std::make_unique<T>(rt, "dense", 64, 5, Merge::kSum));
}

auto make_leased(Runtime& rt) {
  return std::tuple(
      rt.lease_dense<std::uint64_t>("min", 8, ~0ull, Merge::kMin),
      rt.lease_dense<std::uint64_t>("max", 8, 0, Merge::kMax),
      rt.lease_dense<std::uint64_t>("sum", 8, 0, Merge::kSum),
      rt.lease_dense<std::uint64_t>("ovr", 7778, 0, Merge::kOverwrite),
      rt.lease_dense<std::uint64_t>("dense", 64, 5, Merge::kSum));
}

TEST(TablePool, PooledAndFreshRunsBitIdenticalAcrossThreadCounts) {
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    Runtime fresh_rt(Config::for_problem(1 << 12, 0.5), &pool);
    const Outcome fresh = run_workload(fresh_rt, make_fresh);

    Runtime lease_rt(Config::for_problem(1 << 12, 0.5), &pool);
    const Outcome first = run_workload(lease_rt, make_leased);
    EXPECT_EQ(fresh, first) << "threads=" << threads;

    // Second run on the same runtime: every lease is now a pool REUSE, and
    // nothing — contents, metrics, traffic — may differ.
    lease_rt.reset_for_subproblem(Config::for_problem(1 << 12, 0.5));
    const Outcome reused = run_workload(lease_rt, make_leased);
    EXPECT_GE(lease_rt.pool_stats().reuses, 5u);
    EXPECT_EQ(fresh, reused) << "threads=" << threads;
  }
}

TEST(TablePool, ResetForSubproblemRestoresConstructionState) {
  Runtime rt(Config::for_problem(1 << 12, 0.5));
  {
    auto t = rt.lease_dense<std::uint64_t>("t", 32, 0);
    rt.round("r", 4, [&](MachineContext& ctx) {
      t->put(ctx.machine_id(), 1);
      (void)t->get(0);
    });
    EXPECT_GT(rt.metrics().rounds, 0u);
    EXPECT_GT(rt.metrics().dht_reads, 0u);
  }
  const Config next = Config::for_problem(1 << 6, 0.5);
  rt.reset_for_subproblem(next);
  EXPECT_EQ(rt.config().machine_memory_words, next.machine_memory_words);
  EXPECT_EQ(rt.metrics().rounds, 0u);
  EXPECT_EQ(rt.metrics().dht_reads, 0u);
  EXPECT_EQ(rt.metrics().dht_writes, 0u);
  EXPECT_EQ(rt.metrics().peak_table_words, 0u);
  EXPECT_TRUE(rt.metrics().rounds_by_label.empty());
}

TEST(TablePool, ResetForSubproblemRejectsLiveTables) {
  Runtime rt(Config::for_problem(1 << 10, 0.5));
  auto t = rt.lease_dense<std::uint64_t>("live", 8);
  EXPECT_THROW(rt.reset_for_subproblem(Config::for_problem(1 << 10, 0.5)),
               std::logic_error);
}

TEST(TablePool, ArenaHandsOutDistinctRuntimesConcurrently) {
  RuntimeArena arena;
  ThreadPool pool(4);
  std::vector<std::uint64_t> sums(8, 0);
  pool.parallel_for(8, [&](std::size_t i) {
    auto rt = arena.acquire(Config::for_problem(1 << 8, 0.5));
    auto t = rt->lease_dense<std::uint64_t>("slot", 16, 0);
    rt->round("w", 4, [&](MachineContext& ctx) {
      t->put(ctx.machine_id(), i * 10 + ctx.machine_id());
    });
    std::uint64_t s = 0;
    for (std::uint64_t j = 0; j < 4; ++j) s += t->raw(j);
    sums[i] = s;
  });
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sums[i], i * 40 + 6) << i;
  }
}

// End-to-end: the full singleton tracker re-run on a reused runtime (every
// table a pool hit) must reproduce its fresh-runtime result AND metrics —
// the pooling analogue of the determinism contract.
TEST(TablePool, PoolStatsCountLiveAndPooledBytes) {
  ThreadPool pool(2);
  RuntimeArena arena(&pool);
  Runtime::PoolStats each[2];
  {
    RuntimeArena::Lease a = arena.acquire(Config::for_problem(1 << 10, 0.5));
    RuntimeArena::Lease b = arena.acquire(Config::for_problem(1 << 10, 0.5));
    int i = 0;
    for (Runtime* rt : {&*a, &*b}) {
      auto d = rt->lease_dense<std::uint64_t>("d", 1000, 0);
      auto t = rt->lease_dense<std::uint64_t>("t", 8);
      rt->round("w", 8, [&](MachineContext& ctx) {
        d->put(ctx.machine_id(), 1);
        t->put(ctx.machine_id(), 1);
      });
      const Runtime::PoolStats live = rt->pool_stats();
      EXPECT_GE(live.storage_bytes, 1000 * sizeof(std::uint64_t));
      EXPECT_GT(live.staging_bytes, 0u);
      d.release();
      t.release();
      // Released tables keep their storage in the pool, and still count.
      const Runtime::PoolStats pooled = rt->pool_stats();
      EXPECT_EQ(pooled.storage_bytes, live.storage_bytes);
      EXPECT_EQ(pooled.staging_bytes, live.staging_bytes);
      EXPECT_EQ(pooled.leases, 2u);
      each[i++] = pooled;
    }
  }
  const Runtime::PoolStats total = arena.pool_stats();
  EXPECT_EQ(total.leases, 4u);
  EXPECT_EQ(total.reuses, 0u);
  EXPECT_EQ(total.staging_bytes, each[0].staging_bytes + each[1].staging_bytes);
  EXPECT_EQ(total.storage_bytes, each[0].storage_bytes + each[1].storage_bytes);
}

TEST(TablePool, SingletonTrackerBitIdenticalOnReusedRuntime) {
  const WGraph g = gen_random_connected(96, 320, 11);
  const ContractionOrder order = make_contraction_order(g, 3);
  const Config cfg = Config::for_problem(g.n + g.m(), 0.5);

  const auto run = [&](Runtime& rt) {
    const SingletonCutResult r = ampc_min_singleton_cut(rt, g, order);
    const Metrics& m = rt.metrics();
    return std::tuple(r.weight, r.rep, r.time, m.rounds, m.charged_rounds,
                      m.dht_reads, m.dht_writes, m.max_machine_traffic,
                      m.peak_table_words);
  };
  Runtime fresh(cfg);
  const auto a = run(fresh);

  Runtime reused(cfg);
  const auto b1 = run(reused);
  reused.reset_for_subproblem(cfg);
  const auto b2 = run(reused);  // all-pool-hit run
  EXPECT_GT(reused.pool_stats().reuses, 0u);
  EXPECT_EQ(a, b1);
  EXPECT_EQ(a, b2);
}

}  // namespace
}  // namespace ampccut::ampc
