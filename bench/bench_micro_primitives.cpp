// E11 — wall-clock microbenches of the primitive layer, on the repo's own
// timing harness (bench_util.h) so the suite always builds and always feeds
// the BENCH_*.json trajectory (the old google-benchmark dependency made the
// suite optional and its JSON schema foreign).
//
// Two groups, routed into separate trajectory files by tools/run_benches:
//  * "ampc"  — simulator hot paths. The table_put_commit / dense_put_commit
//    pair is THE write-path benchmark: one round staging n puts across the
//    machines of Config::for_problem(n, 0.5) plus the barrier commit, in
//    steady state (keys overwrite, no map growth after warmup).
//  * "exact" — the sequential engines a downstream user runs first.
#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "ampc_algo/list_ranking.h"
#include "ampc_algo/prefix_min.h"
#include "bench_util.h"
#include "exact/stoer_wagner.h"
#include "graph/generators.h"
#include "kernel/kernel.h"
#include "mincut/singleton.h"
#include "support/psort.h"
#include "support/rng.h"
#include "support/threadpool.h"
#include "tree/hld.h"

using namespace ampccut;
using namespace ampccut::bench;

namespace {

struct Harness {
  TimingOptions topt;
  BenchReporter reporter{"micro_primitives"};
  TablePrinter table{{"bench", "group", "n", "ns/op", "Mop/s", "model_rounds",
                      "dht_write_words"}};

  void record(BenchResult r, std::uint64_t n) {
    r.params["n"] = static_cast<std::int64_t>(n);
    table.add_row({r.name, r.group, fmt_u(n), fmt(r.ns_per_op, 1),
                   fmt(1e3 / std::max(1e-9, r.ns_per_op)), fmt_u(r.model_rounds),
                   fmt_u(r.dht_write_words)});
    reporter.add(std::move(r));
  }
};

// One round of n staged puts (distinct keys, machine-partitioned) plus the
// barrier commit. Steady state: every timed round overwrites the same keys.
void bench_table_put_commit(Harness& h, std::uint64_t n) {
  ampc::Runtime rt(ampc::Config::for_problem(n, 0.5));
  ampc::Table<std::uint64_t, std::uint64_t> t(rt, "bench.table");
  std::uint64_t salt = 0;
  const auto body = [&] {
    ++salt;
    rt.round_over_items("bench.put", n,
                        [&](ampc::MachineContext&, std::uint64_t i) {
                          t.put(i, i + salt);
                        });
  };
  BenchResult r;
  r.name = "table_put_commit";
  const Timed timed = run_timed(n, h.topt, body);
  r.ns_per_op = timed.ns_per_op;
  r.iterations = timed.iterations;
  // Model costs of one round, from a fresh instrumented runtime.
  ampc::Runtime mrt(ampc::Config::for_problem(n, 0.5));
  ampc::Table<std::uint64_t, std::uint64_t> mt(mrt, "bench.table");
  mrt.round_over_items("bench.put", n,
                       [&](ampc::MachineContext&, std::uint64_t i) {
                         mt.put(i, i);
                       });
  fill_model_metrics(r, mrt.metrics());
  h.record(std::move(r), n);
}

void bench_dense_put_commit(Harness& h, std::uint64_t n) {
  ampc::Runtime rt(ampc::Config::for_problem(n, 0.5));
  ampc::DenseTable<std::uint64_t> t(rt, "bench.dense", n);
  std::uint64_t salt = 0;
  const auto body = [&] {
    ++salt;
    rt.round_over_items("bench.put", n,
                        [&](ampc::MachineContext&, std::uint64_t i) {
                          t.put(i, i + salt);
                        });
  };
  BenchResult r;
  r.name = "dense_put_commit";
  const Timed timed = run_timed(n, h.topt, body);
  r.ns_per_op = timed.ns_per_op;
  r.iterations = timed.iterations;
  ampc::Runtime mrt(ampc::Config::for_problem(n, 0.5));
  ampc::DenseTable<std::uint64_t> mt(mrt, "bench.dense", n);
  mrt.round_over_items("bench.put", n,
                       [&](ampc::MachineContext&, std::uint64_t i) {
                         mt.put(i, i);
                       });
  fill_model_metrics(r, mrt.metrics());
  h.record(std::move(r), n);
}

// Adaptive reads of committed keys (the frozen-read fast path). The lookup
// cannot be elided — get() counts words into the machine context — and the
// miss check consumes the value without a shared accumulator (machines run
// concurrently; a shared sink would race).
void bench_table_get(Harness& h, std::uint64_t n) {
  ampc::Runtime rt(ampc::Config::for_problem(n, 0.5));
  ampc::Table<std::uint64_t, std::uint64_t> t(rt, "bench.table");
  for (std::uint64_t i = 0; i < n; ++i) t.seed(i, i * 3);
  const auto body = [&] {
    rt.round_over_items("bench.get", n,
                        [&](ampc::MachineContext&, std::uint64_t i) {
                          if (!t.get((i * 0x9e3779b9ull) % n)) std::abort();
                        });
  };
  BenchResult r;
  r.name = "table_get";
  const Timed timed = run_timed(n, h.topt, body);
  r.ns_per_op = timed.ns_per_op;
  r.iterations = timed.iterations;
  ampc::Runtime mrt(ampc::Config::for_problem(n, 0.5));
  ampc::Table<std::uint64_t, std::uint64_t> mt(mrt, "bench.table");
  for (std::uint64_t i = 0; i < n; ++i) mt.seed(i, i * 3);
  mrt.round_over_items("bench.get", n,
                       [&](ampc::MachineContext&, std::uint64_t i) {
                         if (!mt.get(i % n)) std::abort();
                       });
  fill_model_metrics(r, mrt.metrics());
  h.record(std::move(r), n);
}

// The fixed-cost path the table pool exists for (ISSUE: per-round simulator
// fixed costs on small components): one op is a full table lifecycle —
// construct/lease, seed one entry, stage one put, commit, destroy/release.
// ns_per_op is the POOLED lease-reset cycle; extra carries the fresh
// construct/destroy cycle and the resulting speedup, so the trajectory
// catches regressions in either path.
void bench_table_lease_reuse(Harness& h, std::uint64_t n) {
  constexpr std::uint64_t kCycles = 64;
  ampc::Runtime rt(ampc::Config::for_problem(n, 0.5));
  const auto cycle_dense = [&](auto&& make) {
    for (std::uint64_t c = 0; c < kCycles; ++c) {
      auto&& t = make();
      t->seed(0, 7);
      rt.round("lease.bench", 1, [&](ampc::MachineContext&) { t->put(1, 9); });
    }
  };
  const Timed fresh = run_timed(kCycles, h.topt, [&] {
    cycle_dense([&] {
      // Owning wrapper so fresh and pooled cycles share the loop body.
      struct Fresh {
        ampc::DenseTable<std::uint64_t> t;
        ampc::DenseTable<std::uint64_t>* operator->() { return &t; }
      };
      return Fresh{{rt, "bench.fresh", n, 0}};
    });
  });
  const Timed pooled = run_timed(kCycles, h.topt, [&] {
    cycle_dense([&] { return rt.lease_dense<std::uint64_t>("bench.lease", n, 0); });
  });
  BenchResult r;
  r.name = "table_lease_reuse";
  r.ns_per_op = pooled.ns_per_op;
  r.iterations = pooled.iterations;
  r.extra["fresh_ns_per_op"] = fresh.ns_per_op;
  r.extra["reuse_speedup"] = fresh.ns_per_op / std::max(1e-9, pooled.ns_per_op);
  h.record(std::move(r), n);
}

// Recovery-overhead pricing (DESIGN.md "Fault injection & round-level
// recovery"): one op is a full round staging n/8 puts per machine across 8
// machines plus the barrier commit, normalized per put. ns_per_op is the
// 5%-crash-rate run (discard + replay on every injected failure, fixed
// seed); extra carries the fault-free ns/op and retry_overhead_ratio =
// faulted/clean, the trajectory's headline number for what recovery costs
// when the failure path actually executes. 8 machines at 5% gives ~34% of
// rounds at least one crash (expected attempts ~1.5), so the ratio prices
// real replays, not an idle injector.
void bench_fault_recovery(Harness& h, std::uint64_t n) {
  constexpr std::uint64_t kMachines = 8;
  const std::uint64_t per = n / kMachines;
  const auto round_body = [per](ampc::Runtime& rt,
                                ampc::DenseTable<std::uint64_t>& t,
                                std::uint64_t salt) {
    rt.round("bench.fault", kMachines, [&](ampc::MachineContext& ctx) {
      const std::uint64_t base = ctx.machine_id() * per;
      for (std::uint64_t i = 0; i < per; ++i) t.put(base + i, base + i + salt);
    });
  };
  ampc::Runtime clean_rt(ampc::Config::for_problem(n, 0.5));
  ampc::DenseTable<std::uint64_t> clean_t(clean_rt, "bench.fault", n);
  std::uint64_t salt = 0;
  const Timed clean = run_timed(n, h.topt, [&] {
    round_body(clean_rt, clean_t, ++salt);
  });

  ampc::Config fcfg = ampc::Config::for_problem(n, 0.5);
  fcfg.fault.seed = 31;
  fcfg.fault.crash_rate = 0.05;
  fcfg.retry.max_attempts = 20;  // 0.34^20: exhaustion never trips the timer
  ampc::Runtime fault_rt(fcfg);
  ampc::DenseTable<std::uint64_t> fault_t(fault_rt, "bench.fault", n);
  salt = 0;
  const Timed faulted = run_timed(n, h.topt, [&] {
    round_body(fault_rt, fault_t, ++salt);
  });

  BenchResult r;
  r.name = "fault_recovery";
  r.ns_per_op = faulted.ns_per_op;
  r.iterations = faulted.iterations;
  r.extra["clean_ns_per_op"] = clean.ns_per_op;
  r.extra["retry_overhead_ratio"] =
      faulted.ns_per_op / std::max(1e-9, clean.ns_per_op);
  // Model costs of one fault-free round (the contract: recovery never
  // changes them), from a fresh instrumented runtime.
  ampc::Runtime mrt(ampc::Config::for_problem(n, 0.5));
  ampc::DenseTable<std::uint64_t> mt(mrt, "bench.fault", n);
  round_body(mrt, mt, 1);
  fill_model_metrics(r, mrt.metrics());
  h.record(std::move(r), n);
}

void bench_list_rank(Harness& h, std::uint64_t n) {
  std::vector<std::uint64_t> next(n, ampc::kNoNext);
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(1);
  std::shuffle(order.begin(), order.end(), rng);
  for (std::uint64_t k = 0; k + 1 < n; ++k) next[order[k]] = order[k + 1];
  const std::vector<std::int64_t> ones(n, 1);
  BenchResult r;
  r.name = "list_rank";
  const Timed timed = run_timed(n, h.topt, [&] {
    ampc::Runtime rt(ampc::Config::for_problem(n, 0.5));
    (void)ampc::list_rank(rt, next, ones);
  });
  r.ns_per_op = timed.ns_per_op;
  r.iterations = timed.iterations;
  ampc::Runtime mrt(ampc::Config::for_problem(n, 0.5));
  (void)ampc::list_rank(mrt, next, ones);
  fill_model_metrics(r, mrt.metrics());
  h.record(std::move(r), n);
}

void bench_segmented_min_prefix(Harness& h, std::uint64_t n) {
  Rng rng(2);
  std::vector<std::int64_t> vals(n);
  for (auto& v : vals) v = static_cast<std::int64_t>(rng.next_below(9)) - 4;
  std::vector<std::uint64_t> offsets{0};
  for (std::uint64_t i = 64; i < n; i += 64) offsets.push_back(i);
  offsets.push_back(n);
  BenchResult r;
  r.name = "segmented_min_prefix";
  const Timed timed = run_timed(n, h.topt, [&] {
    ampc::Runtime rt(ampc::Config::for_problem(n, 0.5));
    (void)ampc::segmented_min_prefix_sum(rt, vals, offsets);
  });
  r.ns_per_op = timed.ns_per_op;
  r.iterations = timed.iterations;
  ampc::Runtime mrt(ampc::Config::for_problem(n, 0.5));
  (void)ampc::segmented_min_prefix_sum(mrt, vals, offsets);
  fill_model_metrics(r, mrt.metrics());
  h.record(std::move(r), n);
}

void bench_path_max_query(Harness& h, std::uint64_t n) {
  const WGraph g = gen_random_tree(static_cast<VertexId>(n), 3);
  std::vector<TimeStep> times(g.edges.size());
  for (std::size_t i = 0; i < times.size(); ++i)
    times[i] = static_cast<TimeStep>(i + 1);
  const RootedTree rt = build_rooted_tree(static_cast<VertexId>(n), g.edges,
                                          times, 0);
  const HeavyLight hl = build_heavy_light(rt);
  const PathMax pm(rt, hl);
  constexpr std::uint64_t kQueries = 1 << 12;
  std::uint64_t sink = 0;
  BenchResult r;
  r.name = "path_max_query";
  r.group = "exact";
  const Timed timed = run_timed(kQueries, h.topt, [&] {
    Rng rng(7);
    for (std::uint64_t q = 0; q < kQueries; ++q) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      const auto v = static_cast<VertexId>(rng.next_below(n));
      sink += pm.query(u, v);
    }
  });
  r.ns_per_op = timed.ns_per_op;
  r.iterations = timed.iterations;
  r.extra["sink"] = static_cast<double>(sink % 1024);
  h.record(std::move(r), n);
}

// Deterministic parallel sort/partition primitives (support/psort.h), the
// host-side layer under the clock ranking / CSR grouping / interval sweeps.
// ns_per_op is the shared-pool (hardware-thread) run; extra carries the
// 1-thread sequential-fallback ns/op and the resulting speedup, so the
// trajectory quotes 1-vs-N for every primitive. The sort needs a fresh
// unsorted input every rep; that copy-in is measured separately and
// subtracted from both paths, so the ratio prices the primitive alone
// rather than being diluted toward 1 by a fixed sequential memcpy.
// Sized pointer copy of equal-length vectors. GCC 12's -Warray-bounds sees
// an impossible offset through the inlined vector copy-assignment in the
// timed lambdas below (PR105705-class false positive); copying through raw
// pointers keeps the measured memcpy while compiling clean under -Werror.
template <class T>
void copy_in(const std::vector<T>& from, std::vector<T>& to) {
  std::copy_n(from.data(), from.size(), to.data());
}

void bench_psort_stable_sort(Harness& h, std::uint64_t n) {
  Rng rng(11);
  std::vector<std::uint64_t> base(n);
  for (auto& v : base) v = rng.next_u64();
  std::vector<std::uint64_t> work(n);
  ThreadPool seq(1);
  const auto less = [](std::uint64_t a, std::uint64_t b) { return a < b; };
  const Timed copy = run_timed(n, h.topt, [&] { copy_in(base, work); });
  const Timed par = run_timed(n, h.topt, [&] {
    copy_in(base, work);
    psort::stable_sort_keys(&ThreadPool::shared(), work, less);
  });
  const Timed one = run_timed(n, h.topt, [&] {
    copy_in(base, work);
    psort::stable_sort_keys(&seq, work, less);
  });
  const double par_ns = std::max(1e-9, par.ns_per_op - copy.ns_per_op);
  const double one_ns = std::max(1e-9, one.ns_per_op - copy.ns_per_op);
  BenchResult r;
  r.name = "psort_stable_sort";
  r.group = "exact";
  r.ns_per_op = par_ns;
  r.iterations = par.iterations;
  r.extra["t1_ns_per_op"] = one_ns;
  r.extra["speedup_vs_t1"] = one_ns / par_ns;
  h.record(std::move(r), n);
}

void bench_psort_radix_rank(Harness& h, std::uint64_t n) {
  Rng rng(12);
  const std::uint64_t num_keys = std::max<std::uint64_t>(1, n / 16);
  std::vector<std::uint32_t> base(n);
  for (auto& v : base) v = static_cast<std::uint32_t>(rng.next_below(num_keys));
  std::vector<std::uint32_t> out(n);
  ThreadPool seq(1);
  const auto key_of = [](std::uint32_t v) {
    return static_cast<std::size_t>(v);
  };
  const Timed par = run_timed(n, h.topt, [&] {
    psort::radix_rank(&ThreadPool::shared(), base.data(), out.data(), n,
                      num_keys, key_of);
  });
  const Timed one = run_timed(n, h.topt, [&] {
    psort::radix_rank(&seq, base.data(), out.data(), n, num_keys, key_of);
  });
  BenchResult r;
  r.name = "psort_radix_rank";
  r.group = "exact";
  r.ns_per_op = par.ns_per_op;
  r.iterations = par.iterations;
  r.extra["t1_ns_per_op"] = one.ns_per_op;
  r.extra["speedup_vs_t1"] = one.ns_per_op / std::max(1e-9, par.ns_per_op);
  h.record(std::move(r), n);
}

// The scan mutates in place, but its cost is value-independent (unsigned
// adds), so timed reps just re-scan the evolving buffer — no copy-in to
// pollute the per-op estimate.
void bench_psort_exclusive_scan(Harness& h, std::uint64_t n) {
  Rng rng(13);
  std::vector<std::uint64_t> work(n);
  for (auto& v : work) v = rng.next_below(1 << 10);
  ThreadPool seq(1);
  const Timed par = run_timed(n, h.topt, [&] {
    (void)psort::exclusive_scan(&ThreadPool::shared(), work);
  });
  const Timed one = run_timed(n, h.topt, [&] {
    (void)psort::exclusive_scan(&seq, work);
  });
  BenchResult r;
  r.name = "psort_exclusive_scan";
  r.group = "exact";
  r.ns_per_op = par.ns_per_op;
  r.iterations = par.iterations;
  r.extra["t1_ns_per_op"] = one.ns_per_op;
  r.extra["speedup_vs_t1"] = one.ns_per_op / std::max(1e-9, par.ns_per_op);
  h.record(std::move(r), n);
}

// Kernelization pass (src/kernel): one op is a full kernelize() of a sparse
// connected graph (avg degree 3, the regime where the peel cascades bite),
// normalized per vertex. extras record the kernel size and reduction ratios
// so the trajectory tracks reduction STRENGTH alongside speed — a rule
// regression that leaves the kernel big shows up here even if it gets faster.
void bench_kernelize(Harness& h, std::uint64_t n) {
  WGraph g = gen_random_connected(static_cast<VertexId>(n), (3 * n) / 2, 21);
  randomize_weights(g, 7, 22);
  const kernel::KernelOptions opt = kernel::enabled_defaults();
  BenchResult r;
  r.name = "kernelize_sparse";
  r.group = "exact";
  const Timed timed = run_timed(n, h.topt, [&] { (void)kernel::kernelize(g, opt); });
  r.ns_per_op = timed.ns_per_op;
  r.iterations = timed.iterations;
  const kernel::KernelResult kr = kernel::kernelize(g, opt);
  r.extra["kernel_n"] = static_cast<double>(kr.stats.kernel_n);
  r.extra["kernel_m"] = static_cast<double>(kr.stats.kernel_m);
  r.extra["n_reduction_ratio"] =
      static_cast<double>(kr.stats.kernel_n) / static_cast<double>(g.n);
  r.extra["m_reduction_ratio"] =
      static_cast<double>(kr.stats.kernel_m) / static_cast<double>(g.m());
  r.extra["passes"] = static_cast<double>(kr.stats.passes);
  h.record(std::move(r), n);
}

template <class F>
void bench_exact(Harness& h, const char* name, std::uint64_t n, F&& run) {
  BenchResult r;
  r.name = name;
  r.group = "exact";
  const Timed timed = run_timed(1, h.topt, run);
  r.ns_per_op = timed.ns_per_op;
  r.iterations = timed.iterations;
  h.record(std::move(r), n);
}

}  // namespace

int main(int argc, char** argv) {
  const Mode mode = mode_of(argc, argv);
  Harness h;
  h.topt = timing_for(mode);
  std::printf("E11 — primitive-layer microbenches (mode: %s)\n\n",
              mode == Mode::kSmoke ? "smoke"
                                   : (mode == Mode::kFull ? "full" : "default"));

  const std::vector<std::uint64_t> put_sizes =
      mode == Mode::kSmoke ? std::vector<std::uint64_t>{1 << 14}
      : mode == Mode::kFull
          ? std::vector<std::uint64_t>{1 << 14, 1 << 16, 1 << 18}
          : std::vector<std::uint64_t>{1 << 14, 1 << 16};
  for (const std::uint64_t n : put_sizes) {
    bench_table_put_commit(h, n);
    bench_dense_put_commit(h, n);
    bench_table_get(h, n);
  }
  // Recovery overhead at a nonzero injected crash rate (BENCHMARKS.md
  // "fault recovery").
  for (const std::uint64_t n : mode == Mode::kSmoke
                                   ? std::vector<std::uint64_t>{1 << 14}
                                   : std::vector<std::uint64_t>{1 << 14,
                                                                1 << 16}) {
    bench_fault_recovery(h, n);
  }
  // Table-lifecycle fixed costs (the pool's target regime is small tables:
  // k-cut components, list-ranking levels).
  for (const std::uint64_t n : mode == Mode::kSmoke
                                   ? std::vector<std::uint64_t>{1 << 8}
                                   : std::vector<std::uint64_t>{1 << 8,
                                                                1 << 12}) {
    bench_table_lease_reuse(h, n);
  }

  // Parallel sort/partition primitives, 1-vs-N-thread (the hot host-side
  // layer after the psort migration — BENCHMARKS.md "psort microbenches").
  for (const std::uint64_t n : mode == Mode::kSmoke
                                   ? std::vector<std::uint64_t>{1 << 16}
                                   : std::vector<std::uint64_t>{1 << 16,
                                                                1 << 19}) {
    bench_psort_stable_sort(h, n);
    bench_psort_radix_rank(h, n);
    bench_psort_exclusive_scan(h, n);
  }

  const bool smoke = mode == Mode::kSmoke;
  for (const std::uint64_t n : smoke ? std::vector<std::uint64_t>{1 << 10}
                                     : std::vector<std::uint64_t>{1 << 10,
                                                                  1 << 14}) {
    bench_list_rank(h, n);
  }
  for (const std::uint64_t n : smoke ? std::vector<std::uint64_t>{1 << 12}
                                     : std::vector<std::uint64_t>{1 << 12,
                                                                  1 << 16}) {
    bench_segmented_min_prefix(h, n);
  }
  for (const std::uint64_t n : smoke ? std::vector<std::uint64_t>{1 << 12}
                                     : std::vector<std::uint64_t>{1 << 12,
                                                                  1 << 16}) {
    bench_path_max_query(h, n);
  }
  for (const std::uint64_t n : smoke ? std::vector<std::uint64_t>{1 << 10}
                                     : std::vector<std::uint64_t>{1 << 10,
                                                                  1 << 13}) {
    const WGraph g = gen_random_connected(static_cast<VertexId>(n), 4 * n, 5);
    const ContractionOrder o = make_contraction_order(g, 1);
    bench_exact(h, "singleton_oracle", n,
                [&] { (void)min_singleton_cut_oracle(g, o); });
    bench_exact(h, "singleton_interval", n,
                [&] { (void)min_singleton_cut_interval(g, o); });
  }
  // Kernelization pass on sparse graphs (BENCHMARKS.md "kernelization").
  for (const std::uint64_t n : smoke ? std::vector<std::uint64_t>{1 << 12}
                                     : std::vector<std::uint64_t>{1 << 12,
                                                                  1 << 15}) {
    bench_kernelize(h, n);
  }
  // n = 1024 costs about a second per rep; full sweeps only.
  for (const std::uint64_t n : mode == Mode::kFull
                                   ? std::vector<std::uint64_t>{1 << 8, 1 << 10}
                                   : std::vector<std::uint64_t>{1 << 8}) {
    const WGraph g = gen_random_connected(static_cast<VertexId>(n), 4 * n, 5);
    bench_exact(h, "stoer_wagner", n, [&] { (void)stoer_wagner_min_cut(g); });
  }

  h.table.print();
  std::printf("\nShape check: put/commit and get stay O(1) ns/op across n "
              "(hash-map constants, no round-count growth); the exact "
              "engines grow super-linearly as their complexity predicts.\n");
  return finish(argc, argv, h.reporter);
}
