// The staged write path's concurrency contract (DESIGN.md "Runtime
// concurrency & staging"): committed table contents and every metric the
// benches report must be identical whether the virtual machines ran on one
// thread or many, for all four Merge policies — including kOverwrite, whose
// same-key races resolve deterministically by machine id.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "ampc/runtime.h"

namespace ampccut::ampc {
namespace {

// Everything observable about one workload run, for cross-pool comparison.
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

std::vector<std::uint64_t> contents(const DenseTable<std::uint64_t>& t) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < t.size(); ++i) out.push_back(t.raw(i));
  return out;
}

// Two rounds over 256 machines — sixteen of the pool's 16-machine chunks,
// enough to spread over every thread — hammering shared and private keys
// through all four merge policies plus a dense kSum table; also a
// driver-side put (overflow log) between the rounds.
Outcome run_workload(ThreadPool& pool) {
  Config cfg = Config::for_problem(1 << 12, 0.5);
  Runtime rt(cfg, &pool);
  DenseTable<std::uint64_t> tmin(rt, "min", 8, ~0ull, Merge::kMin);
  DenseTable<std::uint64_t> tmax(rt, "max", 8, 0, Merge::kMax);
  DenseTable<std::uint64_t> tsum(rt, "sum", 8, 0, Merge::kSum);
  DenseTable<std::uint64_t> tovr(rt, "ovr", 7778, 0, Merge::kOverwrite);
  constexpr std::size_t kMachines = 256;
  DenseTable<std::uint64_t> dense(rt, "dense", 8 + kMachines, 5, Merge::kSum);

  rt.round("phase1", kMachines, [&](MachineContext& ctx) {
    const auto m = static_cast<std::uint64_t>(ctx.machine_id());
    for (std::uint64_t k = 0; k < 4; ++k) {
      tmin.put(k, 100 + ((m * 7 + k) % 13));
      tmax.put(k, 100 + ((m * 5 + k) % 11));
      tsum.put(k, m + k);
      tovr.put(k, m);  // same-key overwrite race across all machines
    }
    tovr.put(1000 + m, m);  // private key, no race
    dense.put(m % 8, 1);
    dense.put(8 + m, m);
  });

  // Driver-side write outside any machine: staged in the overflow log,
  // visible after the next barrier.
  tovr.put(7777, 42);

  rt.round("phase2", kMachines, [&](MachineContext& ctx) {
    const auto m = static_cast<std::uint64_t>(ctx.machine_id());
    // Adaptive reads of phase-1 commits, then more merging writes.
    const auto v = tsum.get(0);
    tsum.put(4, v % 97);
    tmin.put(2, 50 + m);
    dense.put(m % 4, 2);
  });

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

TEST(RuntimeConcurrency, OneThreadAndManyThreadsAgreeExactly) {
  ThreadPool one(1);
  const Outcome want = run_workload(one);
  for (const std::size_t width : {2u, 3u, 4u, 8u}) {
    ThreadPool many(width);
    EXPECT_EQ(run_workload(many), want) << "width " << width;
    // Repeatability on the same pool.
    EXPECT_EQ(run_workload(many), want) << "width " << width;
  }
  // Rounds driven from a worker of a second pool, as the recursion's
  // dedicated pool does: the driver is none of `many`'s workers, so it
  // stages in the extra slot, although its index in `driver` equals that of
  // one of `many`'s workers. The main thread waits without helping, so the
  // task cannot run on it.
  ThreadPool many(4);
  ThreadPool driver(2);
  Outcome from_worker;
  bool on_worker = false;
  std::atomic<bool> done{false};
  ThreadPool::TaskGroup group(driver);
  group.run([&] {
    on_worker = driver.worker_index() < driver.num_threads();
    from_worker = run_workload(many);
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  group.wait();
  EXPECT_TRUE(on_worker);
  EXPECT_EQ(from_worker, want);
}

TEST(RuntimeConcurrency, StagingFollowsWritesNotMachines) {
  // 20 tables and a 20,000-machine round in which one machine writes one
  // entry: staging holds that entry, not a slot per (table, machine).
  ThreadPool many(4);
  Runtime rt(Config::for_problem(1 << 12, 0.5), &many);
  std::vector<std::unique_ptr<DenseTable<std::uint64_t>>> tables;
  for (int i = 0; i < 20; ++i) {
    tables.push_back(
        std::make_unique<DenseTable<std::uint64_t>>(rt, "d", 64, 0));
  }
  rt.round("sparse", 20000, [&](MachineContext& ctx) {
    if (ctx.machine_id() == 12345) tables[7]->put(3, 1);
  });
  EXPECT_EQ(tables[7]->raw(3), 1u);
  EXPECT_LT(rt.pool_stats().staging_bytes, 4096u);
  EXPECT_EQ(rt.pool_stats().storage_bytes, 20u * 64 * sizeof(std::uint64_t));
}

TEST(RuntimeConcurrency, RetainedStagingFollowsTheLastRound) {
  ThreadPool many(4);
  Runtime rt(Config::for_problem(1 << 20, 0.5), &many);
  DenseTable<std::uint64_t> big(rt, "big", 100000, 0);
  DenseTable<std::uint64_t> small(rt, "small", 16, 0);
  // The bytes one staged entry retains.
  rt.round("one", 1, [&](MachineContext&) { small.put(0, 1); });
  const std::uint64_t entry_bytes = rt.pool_stats().staging_bytes;
  ASSERT_GT(entry_bytes, 0u);
  rt.round_over_items("bulk", 100000, [&](MachineContext&, std::uint64_t i) {
    big.put(i, i);
  });
  EXPECT_GE(rt.pool_stats().staging_bytes, 100000 * entry_bytes);
  rt.round("tail", 10, [&](MachineContext& ctx) {
    small.put(ctx.machine_id(), 2);
  });
  EXPECT_LE(rt.pool_stats().staging_bytes, 2 * 10 * entry_bytes);
  EXPECT_EQ(big.raw(99999), 99999u);
  EXPECT_EQ(small.raw(9), 2u);
}

TEST(RuntimeConcurrency, OverwriteResolvesToHighestMachineId) {
  ThreadPool many(4);
  Runtime rt(Config::for_problem(1 << 12, 0.5), &many);
  DenseTable<std::uint64_t> t(rt, "ovr", 16);
  rt.round("race", 32, [&](MachineContext& ctx) {
    t.put(9, static_cast<std::uint64_t>(ctx.machine_id()));
  });
  // Buffers commit in machine-id order, so the last writer wins
  // deterministically — machine 31 here, regardless of thread schedule.
  EXPECT_EQ(t.raw(9), 31u);
}

TEST(RuntimeConcurrency, MergePoliciesThroughStagedPath) {
  ThreadPool many(4);
  Runtime rt(Config::for_problem(1 << 12, 0.5), &many);
  DenseTable<std::uint64_t> tmin(rt, "min", 4, ~0ull, Merge::kMin);
  DenseTable<std::uint64_t> tmax(rt, "max", 4, 0, Merge::kMax);
  DenseTable<std::uint64_t> tsum(rt, "sum", 4, 0, Merge::kSum);
  DenseTable<std::uint64_t> tovr(rt, "ovr", 4, 0, Merge::kOverwrite);
  rt.round("w", 8, [&](MachineContext& ctx) {
    const auto m = static_cast<std::uint64_t>(ctx.machine_id());
    tmin.put(1, 100 + m);
    tmax.put(1, 100 + m);
    tsum.put(1, 1);
    tovr.put(1, m);
  });
  EXPECT_EQ(tmin.raw(1), 100u);
  EXPECT_EQ(tmax.raw(1), 107u);
  EXPECT_EQ(tsum.raw(1), 8u);
  EXPECT_EQ(tovr.raw(1), 7u);
}

TEST(RuntimeConcurrency, LargeRoundTakesParallelCommitPath) {
  // Above the inline-commit threshold (4096 staged entries) the two-phase
  // commit fans out over the pool; contents must match the 1-thread run.
  constexpr std::uint64_t kItems = 1 << 14;
  const auto run = [&](ThreadPool& pool) {
    Config cfg = Config::for_problem(kItems, 0.5);
    Runtime rt(cfg, &pool);
    DenseTable<std::uint64_t> d(rt, "d", kItems, 0, Merge::kSum);
    DenseTable<std::uint64_t> t(rt, "t", 1024, ~0ull, Merge::kMin);
    rt.round_over_items("bulk", kItems, [&](MachineContext&, std::uint64_t i) {
      d.put(i, i * 3 + 1);
      t.put(i % 1024, i);
    });
    std::vector<std::uint64_t> out;
    for (std::uint64_t i = 0; i < kItems; ++i) out.push_back(d.raw(i));
    for (std::uint64_t k = 0; k < 1024; ++k) out.push_back(t.raw(k));
    out.push_back(rt.metrics().dht_writes);
    out.push_back(rt.metrics().peak_table_words);
    return out;
  };
  ThreadPool one(1);
  ThreadPool many(4);
  EXPECT_EQ(run(one), run(many));
}

// Shared-key contents after one round in which 16 machines each write every
// shared key twice, under kOverwrite, kMin and kSum, into one DenseTable
// each. `pad` disjoint-key writes per table ride along: with pad 0 the
// round stages under the runtime's 4096-entry parallel-commit threshold (the
// serial walk), with pad 8192 over it (the two-phase shard commit).
std::vector<std::uint64_t> shared_key_commits(ThreadPool& pool,
                                              std::uint64_t pad) {
  constexpr std::uint64_t kShared = 8;
  constexpr std::size_t kMachines = 16;
  Runtime rt(Config::for_problem(1 << 14, 0.5), &pool);
  std::vector<std::unique_ptr<DenseTable<std::uint64_t>>> dense;
  for (const Merge p : {Merge::kOverwrite, Merge::kMin, Merge::kSum}) {
    const std::uint64_t init = p == Merge::kMin ? ~0ull : 0;
    dense.push_back(std::make_unique<DenseTable<std::uint64_t>>(
        rt, "d", kShared + pad, init, p));
  }
  const std::uint64_t pad_per = ceil_div(pad, kMachines);
  rt.round("commit", kMachines, [&](MachineContext& ctx) {
    const auto m = static_cast<std::uint64_t>(ctx.machine_id());
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      for (std::uint64_t k = 0; k < kShared; ++k) {
        const std::uint64_t v = (m * 7 + k * 3 + rep * 5) % 23 + 1;
        for (auto& t : dense) t->put(k, v);
      }
    }
    for (std::uint64_t j = m * pad_per; j < std::min(pad, (m + 1) * pad_per);
         ++j) {
      for (auto& t : dense) t->put(kShared + j, j);
    }
  });
  std::vector<std::uint64_t> out;
  for (std::size_t p = 0; p < dense.size(); ++p) {
    for (std::uint64_t k = 0; k < kShared; ++k) {
      out.push_back(dense[p]->raw(k));
    }
  }
  return out;
}

TEST(RuntimeConcurrency, SerialAndTwoPhaseCommitAgree) {
  constexpr std::uint64_t kShared = 8;
  // The values the round writes, merged by hand in machine-id then program
  // order: kOverwrite keeps machine 15's second write.
  std::vector<std::uint64_t> want;
  for (int p = 0; p < 3; ++p) {
    for (std::uint64_t k = 0; k < kShared; ++k) {
      std::uint64_t last = 0, lo = ~0ull, sum = 0;
      for (std::uint64_t m = 0; m < 16; ++m) {
        for (std::uint64_t rep = 0; rep < 2; ++rep) {
          last = (m * 7 + k * 3 + rep * 5) % 23 + 1;
          lo = std::min(lo, last);
          sum += last;
        }
      }
      want.push_back(p == 0 ? last : (p == 1 ? lo : sum));
    }
  }
  ThreadPool one(1);
  ThreadPool many(4);
  for (const std::uint64_t pad : {0ull, 8192ull}) {
    EXPECT_EQ(shared_key_commits(one, pad), want) << "pad " << pad;
    EXPECT_EQ(shared_key_commits(many, pad), want) << "pad " << pad;
  }
}

TEST(RuntimeConcurrency, BudgetViolationCountingUnchanged) {
  const auto violations = [](ThreadPool& pool) {
    Config cfg = Config::for_problem(1 << 12, 0.5);
    cfg.machine_memory_words = 4;
    Runtime rt(cfg, &pool);
    DenseTable<std::uint64_t> t(rt, "d", 64, 1);
    rt.round("r", 6, [&](MachineContext& ctx) {
      // Machines 0/2/4 read 10 words (over the 4-word budget); odd machines
      // stay under it.
      const int reads = ctx.machine_id() % 2 == 0 ? 10 : 2;
      for (int i = 0; i < reads; ++i) (void)t.get(static_cast<std::uint64_t>(i));
    });
    return rt.metrics().budget_violations.load();
  };
  ThreadPool one(1);
  ThreadPool many(4);
  EXPECT_EQ(violations(one), 3u);
  EXPECT_EQ(violations(many), 3u);
}

TEST(RuntimeConcurrency, DriverWritesCommitLastEvenWhenRoundsGrow) {
  // A driver-side put staged between rounds must commit AFTER every machine
  // entry of the next round — including machines that did not exist in the
  // previous round: the overflow log merges after every participant's log,
  // whatever the round's machine count.
  ThreadPool many(4);
  Runtime rt(Config::for_problem(1 << 12, 0.5), &many);
  DenseTable<std::uint64_t> t(rt, "ovr", 128);
  rt.round("small", 4, [&](MachineContext& ctx) {
    t.put(100 + ctx.machine_id(), 1);
  });
  t.put(5, 999);  // driver-side, staged for the next barrier
  rt.round("grown", 8, [&](MachineContext& ctx) {
    t.put(5, static_cast<std::uint64_t>(ctx.machine_id()));
  });
  EXPECT_EQ(t.raw(5), 999u);  // driver write wins: overflow commits last
}

TEST(RuntimeConcurrency, TableRegisteredMidRoundStagesCorrectly) {
  // A table constructed inside a round body (machine 0 only) must still
  // stage that machine's write: its logs exist from construction on.
  ThreadPool many(4);
  Runtime rt(Config::for_problem(1 << 12, 0.5), &many);
  std::optional<DenseTable<std::uint64_t>> late;
  rt.round("create", 1, [&](MachineContext&) {
    late.emplace(rt, "late", 8, 0);
    late->put(3, 30);
  });
  EXPECT_EQ(late->raw(3), 30u);
}

}  // namespace
}  // namespace ampccut::ampc
