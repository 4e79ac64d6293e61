// Deterministic fault injection & round-level recovery (DESIGN.md "Fault
// injection & round-level recovery").
//
// The contract under test: with any FaultPlan whose retries succeed, every
// backend returns bit-identical results AND model metrics (excluding the
// fault counters themselves) to the fault-free run, at every thread count —
// because a failed round's staged writes are discarded while committed
// tables are untouched, replay reproduces the unfailed execution exactly.
// Runs under the tsan and asan-ubsan presets (suite name FaultInjection is
// in both CI filters); AMPC_CHAOS_RATE drives the chaos job's rate sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "ampc/fault.h"
#include "ampc/runtime.h"
#include "ampc_algo/kcut_ampc.h"
#include "ampc_algo/mincut_ampc.h"
#include "ampc_algo/singleton_ampc.h"
#include "exact/stoer_wagner.h"
#include "graph/generators.h"
#include "mincut/contraction.h"
#include "support/errors.h"
#include "support/threadpool.h"

namespace ampccut::ampc {
namespace {

// ---------------------------------------------------------------------------
// Direct-runtime harness: two rounds over dense + sparse tables, with a
// driver-side (overflow-buffer) write staged before the first round. Every
// value is written through Merge::kSum, so a replay that double-commits (or
// a discard that loses the overflow write) shows up as a wrong sum, not just
// a wrong presence bit. Returns the run's metrics after asserting contents.
struct WorkloadMetrics {
  std::uint64_t rounds = 0;
  std::uint64_t dht_reads = 0;
  std::uint64_t dht_writes = 0;
  std::uint64_t max_machine_traffic = 0;
  std::uint64_t rounds_retried = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t machine_failures = 0;
};

constexpr std::uint64_t kMachines = 8;
constexpr std::uint64_t kPerMachine = 32;
constexpr std::uint64_t kKeys = kMachines * kPerMachine;

WorkloadMetrics run_workload(const FaultPlan& plan, const RetryPolicy& retry,
                             ThreadPool& pool) {
  Config cfg = Config::for_problem(4096, 0.5);  // 64-word machines
  cfg.fault = plan;
  cfg.retry = retry;
  Runtime rt(cfg, &pool);
  auto dense =
      rt.lease_dense<std::uint64_t>("fi.dense", kKeys + 1, 0, Merge::kSum);
  auto sparse =
      rt.lease_table<std::uint64_t, std::uint64_t>("fi.sparse", Merge::kSum);
  // Driver-side write outside any machine: lands in the overflow buffer and
  // must survive a failed first round's discard, committing exactly once.
  dense->put(kKeys, 1000);
  rt.round("fi.write", kMachines, [&](MachineContext& ctx) {
    const std::uint64_t m = ctx.machine_id();
    for (std::uint64_t i = 0; i < kPerMachine; ++i) {
      const std::uint64_t k = m * kPerMachine + i;
      dense->put(k, 3 * k + 1);
      sparse->put(k, k ^ 0x5aa5ull);
      (void)dense->get((k + 7) % kKeys);
    }
  });
  rt.round("fi.derive", kMachines, [&](MachineContext& ctx) {
    const std::uint64_t m = ctx.machine_id();
    for (std::uint64_t i = 0; i < kPerMachine; ++i) {
      const std::uint64_t k = m * kPerMachine + i;
      sparse->put(kKeys + k, dense->get(k) + sparse->at(k));
    }
  });
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(dense->raw(k), 3 * k + 1);
    EXPECT_EQ(sparse->at(k), k ^ 0x5aa5ull);
    EXPECT_EQ(sparse->at(kKeys + k), (3 * k + 1) + (k ^ 0x5aa5ull));
  }
  EXPECT_EQ(dense->raw(kKeys), 1000u);
  const Metrics& m = rt.metrics();
  return {m.rounds,
          m.dht_reads,
          m.dht_writes,
          m.max_machine_traffic,
          m.rounds_retried,
          m.faults_injected.load(),
          m.machine_failures.load()};
}

void expect_same_model_metrics(const WorkloadMetrics& a,
                               const WorkloadMetrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.dht_reads, b.dht_reads);
  EXPECT_EQ(a.dht_writes, b.dht_writes);
  EXPECT_EQ(a.max_machine_traffic, b.max_machine_traffic);
}

// Report comparison for the end-to-end paths: everything except the fault
// counters must be bit-identical between fault-on and fault-off runs.
void expect_reports_equal(const AmpcMinCutReport& a,
                          const AmpcMinCutReport& b) {
  EXPECT_EQ(a.weight, b.weight);
  EXPECT_EQ(a.side, b.side);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.measured_rounds, b.measured_rounds);
  EXPECT_EQ(a.charged_rounds, b.charged_rounds);
  EXPECT_EQ(a.levels_used, b.levels_used);
  EXPECT_EQ(a.dht_reads, b.dht_reads);
  EXPECT_EQ(a.dht_writes, b.dht_writes);
  EXPECT_EQ(a.max_machine_traffic, b.max_machine_traffic);
  EXPECT_EQ(a.peak_table_words, b.peak_table_words);
  EXPECT_EQ(a.budget_violations, b.budget_violations);
}

// Tracker harness: one ampc_min_singleton_cut run on a fixed weighted graph,
// keeping the result and every metric above Metrics' robustness line.
struct TrackerRun {
  SingletonCutResult result;
  std::uint64_t rounds = 0;
  std::uint64_t charged_rounds = 0;
  std::uint64_t dht_reads = 0;
  std::uint64_t dht_writes = 0;
  std::uint64_t max_machine_traffic = 0;
  std::uint64_t peak_table_words = 0;
  std::uint64_t budget_violations = 0;
  std::uint64_t rounds_retried = 0;
  std::uint64_t machine_failures = 0;
  std::uint64_t intervals_round = 0;  // round index of singleton.intervals
};

TrackerRun run_tracker(const FaultPlan& plan, ThreadPool& pool) {
  WGraph g = gen_random_connected(48, 192, 31);
  randomize_weights(g, 9, 32);
  Config cfg = Config::for_problem(g.n + g.m(), 0.5);
  cfg.fault = plan;
  Runtime rt(cfg, &pool);
  TrackerRun run;
  run.result = ampc_min_singleton_cut(rt, g, make_contraction_order(g, 5));
  const Metrics& m = rt.metrics();
  run.rounds = m.rounds;
  run.charged_rounds = m.charged_rounds;
  run.dht_reads = m.dht_reads;
  run.dht_writes = m.dht_writes;
  run.max_machine_traffic = m.max_machine_traffic;
  run.peak_table_words = m.peak_table_words;
  run.budget_violations = m.budget_violations.load();
  run.rounds_retried = m.rounds_retried;
  run.machine_failures = m.machine_failures.load();
  // The interval round runs once, and only the segmented min-prefix rounds
  // follow it, so its index counts back from the last round.
  EXPECT_EQ(m.rounds_by_label.at("singleton.intervals"), 1u);
  std::uint64_t after = 0;
  for (const char* label :
       {"segmented_min_prefix.leaf", "segmented_min_prefix.combine"}) {
    const auto it = m.rounds_by_label.find(label);
    if (it != m.rounds_by_label.end()) after += it->second;
  }
  run.intervals_round = m.rounds - 1 - after;
  return run;
}

void expect_same_tracker_run(const TrackerRun& a, const TrackerRun& b) {
  EXPECT_EQ(a.result.weight, b.result.weight);
  EXPECT_EQ(a.result.rep, b.result.rep);
  EXPECT_EQ(a.result.time, b.result.time);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.charged_rounds, b.charged_rounds);
  EXPECT_EQ(a.dht_reads, b.dht_reads);
  EXPECT_EQ(a.dht_writes, b.dht_writes);
  EXPECT_EQ(a.max_machine_traffic, b.max_machine_traffic);
  EXPECT_EQ(a.peak_table_words, b.peak_table_words);
  EXPECT_EQ(a.budget_violations, b.budget_violations);
}

FaultPlan small_chaos_plan(std::uint64_t seed) {
  FaultPlan p;
  p.seed = seed;
  p.crash_rate = 0.01;
  p.read_fail_rate = 0.002;
  p.write_loss_rate = 0.002;
  p.delay_rate = 0.01;
  p.delay_spin = 32;
  return p;
}

RetryPolicy patient_retry() {
  RetryPolicy r;
  r.max_attempts = 12;
  r.backoff_spin = 16;
  return r;
}

// ---------------------------------------------------------------------------

TEST(FaultInjection, InjectorDecisionsArePureAndAttemptIndexed) {
  FaultPlan p;
  p.seed = 42;
  p.crash_rate = 0.3;
  p.scheduled = {{5, 2, FaultKind::kTableReadFail}};
  const FaultInjector inj(p);
  // Pure in the coordinates: re-asking never changes the answer.
  std::uint64_t fired = 0;
  for (std::uint64_t round = 0; round < 16; ++round) {
    for (std::uint64_t machine = 0; machine < 16; ++machine) {
      for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
        const bool a =
            inj.fires(FaultKind::kMachineCrash, round, machine, attempt);
        EXPECT_EQ(a,
                  inj.fires(FaultKind::kMachineCrash, round, machine, attempt));
        fired += a ? 1 : 0;
      }
    }
  }
  // 768 draws at rate 0.3: the schedule is neither empty nor saturated.
  EXPECT_GT(fired, 100u);
  EXPECT_LT(fired, 500u);
  // Scheduled faults fire on attempt 0 only, so their retry always succeeds.
  EXPECT_TRUE(inj.fires(FaultKind::kTableReadFail, 5, 2, 0));
  EXPECT_FALSE(inj.fires(FaultKind::kTableReadFail, 5, 2, 1));
  EXPECT_FALSE(inj.fires(FaultKind::kTableReadFail, 5, 3, 0));
  EXPECT_FALSE(inj.fires(FaultKind::kTableReadFail, 4, 2, 0));
}

TEST(FaultInjection, EachFailureKindRecoversBitIdentically) {
  ThreadPool pool(4);
  const WorkloadMetrics base = run_workload(FaultPlan{}, RetryPolicy{}, pool);
  EXPECT_EQ(base.rounds, 2u);
  EXPECT_EQ(base.rounds_retried, 0u);
  EXPECT_EQ(base.faults_injected, 0u);
  for (const FaultKind kind :
       {FaultKind::kMachineCrash, FaultKind::kTableReadFail,
        FaultKind::kStagedWriteLoss}) {
    FaultPlan p;
    p.scheduled = {{0, 3, kind}, {1, 5, kind}};
    RetryPolicy r;
    r.max_attempts = 3;
    r.backoff_spin = 16;
    const WorkloadMetrics w = run_workload(p, r, pool);
    expect_same_model_metrics(base, w);
    EXPECT_EQ(w.rounds_retried, 2u);
    EXPECT_EQ(w.machine_failures, 2u);
    EXPECT_EQ(w.faults_injected, 2u);
    // Same plan at one thread: identical recovery, identical counters.
    ThreadPool solo(1);
    const WorkloadMetrics w1 = run_workload(p, r, solo);
    expect_same_model_metrics(base, w1);
    EXPECT_EQ(w1.rounds_retried, w.rounds_retried);
    EXPECT_EQ(w1.machine_failures, w.machine_failures);
    EXPECT_EQ(w1.faults_injected, w.faults_injected);
  }
  // Two crashes in one round: every machine still runs at every pool width,
  // so both failures are counted at one thread as at four.
  FaultPlan twice;
  twice.scheduled = {{0, 3, FaultKind::kMachineCrash},
                     {0, 6, FaultKind::kMachineCrash}};
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(width);
    ThreadPool threads(width);
    const WorkloadMetrics w = run_workload(twice, RetryPolicy{}, threads);
    expect_same_model_metrics(base, w);
    EXPECT_EQ(w.rounds_retried, 1u);
    EXPECT_EQ(w.machine_failures, 2u);
    EXPECT_EQ(w.faults_injected, 2u);
  }
  // A crash in the tracker's interval round, whose machines each assign
  // their output to a per-machine slot: the replay must overwrite those
  // slots, not add to them, at either thread count. Machine 7 crashes after
  // machines 0-6 filled their slots even when one thread runs them in order.
  const TrackerRun clean = run_tracker(FaultPlan{}, pool);
  FaultPlan crash;
  crash.scheduled = {{clean.intervals_round, 7, FaultKind::kMachineCrash}};
  ThreadPool solo(1);
  for (ThreadPool* threads : {&solo, &pool}) {
    SCOPED_TRACE(threads->num_threads());
    const TrackerRun t = run_tracker(crash, *threads);
    expect_same_tracker_run(clean, t);
    EXPECT_EQ(t.rounds_retried, 1u);
    EXPECT_EQ(t.machine_failures, 1u);
  }
}

TEST(FaultInjection, SlowMachineDelaysNeverChangeResults) {
  ThreadPool pool(4);
  const WorkloadMetrics base = run_workload(FaultPlan{}, RetryPolicy{}, pool);
  FaultPlan p;
  p.delay_rate = 1.0;
  p.delay_spin = 128;
  const WorkloadMetrics w = run_workload(p, RetryPolicy{}, pool);
  expect_same_model_metrics(base, w);
  EXPECT_EQ(w.rounds_retried, 0u);
  EXPECT_EQ(w.machine_failures, 0u);
  EXPECT_EQ(w.faults_injected, 2 * kMachines);  // every machine, both rounds
}

TEST(FaultInjection, RetriesExhaustedSurfacesAndRuntimeStaysUsable) {
  ThreadPool pool(4);
  Config cfg = Config::for_problem(4096, 0.5);
  cfg.fault.scheduled = {{0, 0, FaultKind::kMachineCrash}};
  cfg.retry.max_attempts = 1;  // no recovery budget at all
  Runtime rt(cfg, &pool);
  auto dense = rt.lease_dense<std::uint64_t>("fi.d", 64, 0, Merge::kSum);
  EXPECT_THROW(rt.round("fi.fail", 4,
                        [&](MachineContext& ctx) {
                          dense->put(ctx.machine_id(), 1);
                        }),
               RetriesExhaustedError);
  EXPECT_EQ(rt.metrics().machine_failures.load(), 1u);
  EXPECT_EQ(rt.metrics().rounds_retried, 0u);
  // The failed round's staging was discarded, not committed.
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(dense->raw(i), 0u);
  // The next logical round has no scheduled fault: the runtime recovered.
  rt.round("fi.ok", 4, [&](MachineContext& ctx) {
    dense->put(ctx.machine_id(), 7);
  });
  for (std::uint64_t m = 0; m < 4; ++m) EXPECT_EQ(dense->raw(m), 7u);
  // Leases stay releasable and reset_for_subproblem stays legal.
  dense.release();
  rt.reset_for_subproblem(Config::for_problem(1024, 0.5));
  EXPECT_EQ(rt.metrics().rounds, 0u);
}

TEST(FaultInjection, BodyThrownFailuresRetryAndOtherExceptionsStaySafe) {
  ThreadPool pool(4);
  Config cfg = Config::for_problem(4096, 0.5);
  cfg.retry.max_attempts = 3;  // no fault plan: real failures only
  Runtime rt(cfg, &pool);
  auto dense = rt.lease_dense<std::uint64_t>("fi.d", 64, 0, Merge::kSum);
  // A real transient failure thrown by the body is retried like an injected
  // one; kSum values prove the replayed round committed exactly once.
  std::atomic<int> boom{1};
  rt.round("fi.transient", 4, [&](MachineContext& ctx) {
    if (ctx.machine_id() == 2 && boom.exchange(0) == 1) {
      throw MachineFailedError(0, 2, "transient body failure");
    }
    dense->put(ctx.machine_id(), ctx.machine_id() + 1);
  });
  EXPECT_EQ(rt.metrics().rounds_retried, 1u);
  EXPECT_EQ(rt.metrics().machine_failures.load(), 1u);
  EXPECT_EQ(rt.metrics().faults_injected.load(), 0u);
  for (std::uint64_t m = 0; m < 4; ++m) EXPECT_EQ(dense->raw(m), m + 1);
  // Any other exception is not retried, but must leave the runtime reusable:
  // staging cleared, committed values untouched, later rounds fine.
  EXPECT_THROW(rt.round("fi.bug", 4,
                        [&](MachineContext& ctx) {
                          dense->put(ctx.machine_id(), 100);
                          if (ctx.machine_id() == 1) {
                            throw std::logic_error("actual bug");
                          }
                        }),
               std::logic_error);
  EXPECT_EQ(rt.metrics().rounds_retried, 1u);
  for (std::uint64_t m = 0; m < 4; ++m) EXPECT_EQ(dense->raw(m), m + 1);
  rt.round("fi.after", 4, [&](MachineContext& ctx) {
    dense->put(32 + ctx.machine_id(), 5);
  });
  for (std::uint64_t m = 0; m < 4; ++m) EXPECT_EQ(dense->raw(32 + m), 5u);
}

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
  // Deterministic => never retried; the runtime stays usable.
  EXPECT_EQ(strict.metrics().rounds_retried, 0u);
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

TEST(FaultInjection, MinCutFaultOnOffBitIdentityAcrossThreadsAndKernel) {
  const WGraph g = gen_random_connected(48, 110, 11);
  const MinCutResult exact = stoer_wagner_min_cut(g);
  const FaultPlan chaos = small_chaos_plan(99);
  const RetryPolicy retry = patient_retry();
  AmpcMinCutReport faulted_t1;
  AmpcMinCutReport faulted_t4;
  for (const std::uint32_t threads : {1u, 4u}) {
    for (const bool kernel_on : {false, true}) {
      AmpcMinCutOptions off;
      off.recursion.threads = threads;
      off.recursion.seed = 5;
      off.recursion.kernel.enabled = kernel_on;
      AmpcMinCutOptions on = off;
      on.fault = chaos;
      on.retry = retry;
      const AmpcMinCutReport a = ampc_approx_min_cut(g, off);
      const AmpcMinCutReport b = ampc_approx_min_cut(g, on);
      expect_reports_equal(a, b);
      EXPECT_GE(a.weight, exact.weight);  // sanity against the exact backend
      if (!kernel_on) {
        // The kernel path may shrink the instance below the tracker's reach
        // (few rounds => the fixed-seed schedule can be empty); the unkerneled
        // runs must actually have seen and recovered from faults.
        EXPECT_GT(b.faults_injected, 0u);
        (threads == 1 ? faulted_t1 : faulted_t4) = b;
      }
    }
  }
  // Fault schedules are pure functions of (round, machine, attempt): the
  // counters themselves are thread-count invariant, not just the results.
  EXPECT_EQ(faulted_t1.faults_injected, faulted_t4.faults_injected);
  EXPECT_EQ(faulted_t1.machine_failures, faulted_t4.machine_failures);
  EXPECT_EQ(faulted_t1.rounds_retried, faulted_t4.rounds_retried);
  expect_reports_equal(faulted_t1, faulted_t4);
}

TEST(FaultInjection, KCutFaultOnOffBitIdentityAcrossThreads) {
  const WGraph g = gen_random_connected(40, 100, 13);
  const FaultPlan chaos = small_chaos_plan(7);
  const RetryPolicy retry = patient_retry();
  for (const std::uint32_t threads : {1u, 4u}) {
    AmpcMinCutOptions off;
    off.recursion.threads = threads;
    off.recursion.seed = 7;
    AmpcMinCutOptions on = off;
    on.fault = chaos;
    on.retry = retry;
    const AmpcKCutReport a = ampc_apx_split_k_cut(g, 3, off);
    const AmpcKCutReport b = ampc_apx_split_k_cut(g, 3, on);
    EXPECT_EQ(a.result.weight, b.result.weight);
    EXPECT_EQ(a.result.part, b.result.part);
    EXPECT_EQ(a.result.num_parts, b.result.num_parts);
    EXPECT_EQ(a.result.iterations, b.result.iterations);
    EXPECT_EQ(a.measured_rounds, b.measured_rounds);
    EXPECT_EQ(a.charged_rounds, b.charged_rounds);
    EXPECT_EQ(a.faults_injected, 0u);
    EXPECT_GT(b.faults_injected, 0u);
  }
}

// The CI chaos job sets AMPC_CHAOS_RATE and runs this under TSan: a rate
// sweep over the full e1 pipeline. Extreme rates may legitimately exhaust
// the retry budget — surfacing the typed error (instead of corrupting
// state) is part of the contract, so that outcome passes too.
TEST(FaultInjection, ChaosRateFromEnvironment) {
  double rate = 0.02;
  if (const char* env = std::getenv("AMPC_CHAOS_RATE")) {
    rate = std::strtod(env, nullptr);
  }
  if (rate <= 0.0) GTEST_SKIP() << "chaos disabled (AMPC_CHAOS_RATE <= 0)";
  FaultPlan p;
  p.seed = 2026;
  p.crash_rate = rate;
  p.read_fail_rate = rate / 4;
  p.write_loss_rate = rate / 4;
  p.delay_rate = rate;
  p.delay_spin = 64;
  const WGraph g = gen_random_connected(36, 80, 29);
  AmpcMinCutOptions off;
  off.recursion.threads = 4;
  off.recursion.seed = 17;
  const AmpcMinCutReport base = ampc_approx_min_cut(g, off);
  AmpcMinCutOptions on = off;
  on.fault = p;
  on.retry.max_attempts = 16;
  on.retry.backoff_spin = 32;
  try {
    const AmpcMinCutReport r = ampc_approx_min_cut(g, on);
    expect_reports_equal(base, r);
  } catch (const RetriesExhaustedError& e) {
    SUCCEED() << "retry budget exhausted (acceptable at high rates): "
              << e.what();
  }
}

}  // namespace
}  // namespace ampccut::ampc
