// mincut-ring and kcut-ring: repeated AMPC solves on certified rings.
//
// The untraced pass calls the public entry points (ampc_approx_min_cut,
// ampc_apx_split_k_cut) and times each call. The traced pass rebuilds the
// same pipelines from public pieces — approx_min_cut_with_backend with a
// backend that leases runtimes and runs ampc_min_singleton_cut /
// stoer_wagner_min_cut under spans, and apx_split_k_cut with a traced
// splitter — and must reproduce the public result bit for bit.
#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ampc_algo/kcut_ampc.h"
#include "ampc_algo/mincut_ampc.h"
#include "ampc_algo/singleton_ampc.h"
#include "exact/brute_force.h"
#include "exact/stoer_wagner.h"
#include "ring.h"
#include "support/rng.h"
#include "support/threadpool.h"
#include "workloads.h"

namespace cutbench {

namespace {

using ampccut::ApproxKCutResult;
using ampccut::ContractionOrder;
using ampccut::MinCutBackend;
using ampccut::MinCutResult;
using ampccut::SingletonCutResult;
using ampccut::splitmix64;
using ampccut::ampc::AmpcKCutReport;
using ampccut::ampc::AmpcMinCutOptions;
using ampccut::ampc::AmpcMinCutReport;
using ampccut::ampc::RuntimeArena;

// Layer counters of the traced pass, summed over every tracker run.
struct LayerCounters {
  std::mutex mu;
  std::uint64_t tracker_runs = 0;
  std::uint64_t rounds = 0;
  std::uint64_t charged_rounds = 0;
  std::uint64_t dht_reads = 0;
  std::uint64_t dht_writes = 0;
  std::uint64_t peak_table_words = 0;     // max
  std::uint64_t max_machine_traffic = 0;  // max
  std::uint64_t budget_violations = 0;
  std::map<std::string, std::uint64_t> family_rounds;
  std::uint64_t table_leases = 0;
  std::uint64_t table_reuses = 0;
  std::uint64_t local_solves = 0;
  std::uint64_t instances = 0;
  std::uint64_t tracker_calls = 0;
  std::uint64_t depth = 0;
  std::uint64_t kcut_passes = 0;
  std::uint64_t split_calls = 0;
};

// Round label "list_rank.walk" -> family "list_rank".
std::string family_of(const std::string& label) {
  return label.substr(0, label.find_first_of(".["));
}

// ampc_approx_min_cut rebuilt from public pieces under spans. Mirrors
// mincut_ampc.cpp for the non-strict budget path the benchmark runs: the
// per-level round maxima, the per-level contraction charge and the one
// round for leaf solves are computed exactly as there.
AmpcMinCutReport traced_min_cut(const WGraph& g, const AmpcMinCutOptions& opt,
                                Trace& tr, std::int32_t parent,
                                LayerCounters& lc) {
  AmpcMinCutReport report;
  std::mutex mu;
  std::map<std::uint32_t, std::uint64_t> level_measured;
  std::map<std::uint32_t, std::uint64_t> level_charged;
  bool any_local = false;

  RuntimeArena local_arena;
  RuntimeArena* arena = opt.arena != nullptr ? opt.arena : &local_arena;

  const ScopedSpan solve(tr, "mincut.solve", parent);
  const std::int32_t sid = solve.id();

  MinCutBackend backend;
  backend.track_singleton = [&](const WGraph& inst, const ContractionOrder& o,
                                std::uint32_t level) {
    ampccut::ampc::AmpcSingletonOptions sopt;
    sopt.use_boruvka_msf = opt.use_boruvka_msf;
    ampccut::ampc::Config cfg =
        ampccut::ampc::Config::for_problem(inst.n + inst.m(), opt.model_eps);
    cfg.strict_budget = opt.strict_budget;
    cfg.transport = opt.transport;
    cfg.num_processes = opt.num_processes;
    cfg.fault = opt.fault;
    cfg.retry = opt.retry;
    const std::int64_t lease_start = now_ns();
    RuntimeArena::Lease rt = arena->acquire(cfg);
    tr.add("ampc.lease", lease_start, now_ns(), sid);
    const auto pool_before = rt->pool_stats();
    SingletonCutResult r;
    {
      const ScopedSpan track(tr, "ampc_algo.tracker", sid);
      r = ampccut::ampc::ampc_min_singleton_cut(*rt, inst, o, sopt);
    }
    const auto pool_after = rt->pool_stats();
    const ampccut::ampc::Metrics& m = rt->metrics();
    {
      std::lock_guard<std::mutex> lock(mu);
      level_measured[level] = std::max(level_measured[level], m.rounds);
      level_charged[level] = std::max(level_charged[level], m.charged_rounds);
      report.dht_reads += m.dht_reads;
      report.dht_writes += m.dht_writes;
      report.max_machine_traffic =
          std::max(report.max_machine_traffic, m.max_machine_traffic);
      report.peak_table_words =
          std::max(report.peak_table_words, m.peak_table_words);
      report.budget_violations += m.budget_violations.load();
    }
    std::lock_guard<std::mutex> lock(lc.mu);
    ++lc.tracker_runs;
    lc.rounds += m.rounds;
    lc.charged_rounds += m.charged_rounds;
    lc.dht_reads += m.dht_reads;
    lc.dht_writes += m.dht_writes;
    lc.peak_table_words = std::max(lc.peak_table_words, m.peak_table_words);
    lc.max_machine_traffic = std::max(lc.max_machine_traffic, m.max_machine_traffic);
    lc.budget_violations += m.budget_violations.load();
    for (const auto& [label, n] : m.rounds_by_label) {
      lc.family_rounds[family_of(label)] += n;
    }
    lc.table_leases += pool_after.leases - pool_before.leases;
    lc.table_reuses += pool_after.reuses - pool_before.reuses;
    return r;
  };
  backend.solve_local = [&](const WGraph& inst, std::uint32_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      any_local = true;
    }
    MinCutResult r;
    {
      const ScopedSpan local(tr, "exact.local", sid);
      r = ampccut::stoer_wagner_min_cut(inst);
    }
    std::lock_guard<std::mutex> lock(lc.mu);
    ++lc.local_solves;
    return r;
  };
  backend.on_level = [](std::uint32_t, std::uint64_t) {};

  const ampccut::ApproxMinCutResult r =
      ampccut::approx_min_cut_with_backend(g, opt.recursion, backend);
  report.weight = r.weight;
  report.side = r.side;
  report.stats = r.stats;
  const auto per_level_overhead = static_cast<std::uint64_t>(
      std::ceil(1.0 / std::max(0.1, opt.model_eps)));
  for (const auto& [level, rounds] : level_measured) {
    report.measured_rounds += rounds;
    report.charged_rounds += level_charged[level] + per_level_overhead;
    ++report.levels_used;
  }
  if (any_local) report.measured_rounds += 1;

  std::lock_guard<std::mutex> lock(lc.mu);
  lc.instances += r.stats.instances;
  lc.tracker_calls += r.stats.tracker_calls;
  lc.depth += r.stats.depth;
  return report;
}

// ampc_apx_split_k_cut rebuilt from apx_split_k_cut with a traced splitter:
// the per-call seed rule, the shared arena and the per-iteration round
// maxima (plus one charged component-count round) follow kcut_ampc.cpp.
AmpcKCutReport traced_k_cut(const WGraph& g, std::uint32_t k,
                            const AmpcMinCutOptions& opt, Trace& tr,
                            LayerCounters& lc) {
  AmpcKCutReport report;
  std::mutex mu;
  std::uint64_t iter_measured = 0;
  std::uint64_t iter_charged = 0;
  std::uint32_t calls_this_iter = 0;
  auto flush_iteration_locked = [&]() {
    report.measured_rounds += iter_measured;
    report.charged_rounds += iter_charged + 1;
    iter_measured = 0;
    iter_charged = 0;
    calls_this_iter = 0;
  };

  std::unique_ptr<ampccut::ThreadPool> owned;
  ampccut::ThreadPool* pool =
      ampccut::resolve_recursion_pool(opt.recursion.threads, owned);
  AmpcMinCutOptions base = opt;
  if (owned != nullptr) base.recursion.threads = 1;
  RuntimeArena arena;
  if (base.arena == nullptr) base.arena = &arena;

  const ScopedSpan kcut(tr, "mincut.kcut", -1);
  const std::int32_t kid = kcut.id();
  const ApproxKCutResult r = ampccut::apx_split_k_cut(
      g, k,
      [&, base](const WGraph& component, std::uint64_t call_seq) {
        const ScopedSpan split(tr, "mincut.split", kid);
        AmpcMinCutOptions o = base;
        o.recursion.seed = splitmix64(base.recursion.seed ^ call_seq);
        const AmpcMinCutReport sub = traced_min_cut(component, o, tr, split.id(), lc);
        {
          std::lock_guard<std::mutex> lock(mu);
          iter_measured = std::max(iter_measured, sub.measured_rounds);
          iter_charged = std::max(iter_charged, sub.charged_rounds);
          ++calls_this_iter;
        }
        std::lock_guard<std::mutex> lock(lc.mu);
        ++lc.split_calls;
        return MinCutResult{sub.weight, sub.side};
      },
      [&](std::uint32_t) {
        std::lock_guard<std::mutex> lock(mu);
        flush_iteration_locked();
      },
      pool);
  {
    std::lock_guard<std::mutex> lock(mu);
    if (calls_this_iter > 0) flush_iteration_locked();
  }
  report.result = r;
  std::lock_guard<std::mutex> lock(lc.mu);
  lc.kcut_passes += r.iterations;
  return report;
}

bool same(const AmpcMinCutReport& a, const AmpcMinCutReport& b) {
  return a.weight == b.weight && a.side == b.side && a.stats == b.stats &&
         a.measured_rounds == b.measured_rounds &&
         a.charged_rounds == b.charged_rounds && a.levels_used == b.levels_used &&
         a.dht_reads == b.dht_reads && a.dht_writes == b.dht_writes &&
         a.max_machine_traffic == b.max_machine_traffic &&
         a.peak_table_words == b.peak_table_words &&
         a.budget_violations == b.budget_violations;
}

bool same(const AmpcKCutReport& a, const AmpcKCutReport& b) {
  return a.result.weight == b.result.weight && a.result.part == b.result.part &&
         a.result.num_parts == b.result.num_parts &&
         a.result.iterations == b.result.iterations &&
         a.measured_rounds == b.measured_rounds &&
         a.charged_rounds == b.charged_rounds;
}

// The workload shape shared by both solve workloads.
struct SolveSpec {
  const char* name;
  VertexId n;                           // every graph has n vertices, m ~ 4n
  std::vector<std::uint32_t> clusters;  // one graph per entry, rotated
  // The first `counted` ops, a fixed prefix, give the ratio and model-count
  // aggregates, so those repeat exactly for a seed.
  std::uint32_t counted;
};

std::vector<RingGraph> make_instances(const SolveSpec& spec, std::uint64_t seed) {
  std::vector<RingGraph> out;
  for (std::size_t j = 0; j < spec.clusters.size(); ++j) {
    const std::uint64_t s = splitmix64(seed * 0x9e3779b97f4a7c15ULL + j);
    RingParams p;
    p.n = spec.n;
    p.clusters = spec.clusters[j];
    p.cycles = 4;
    out.push_back(make_ring(p, s, splitmix64(s)));
  }
  return out;
}

// Ratio bound each op must meet: Theorem 1's 2 + eps for a min cut, and
// APX-SPLIT's (2 + eps)(2 - 2/k) for a k-cut.
double ratio_bound(const AmpcMinCutOptions& opt, std::uint32_t k) {
  const double mincut = 2.0 + opt.recursion.eps;
  return k < 2 ? mincut : mincut * (2.0 - 2.0 / k);
}

// Checks a min-cut answer: a proper side whose crossing weight is the
// reported weight, no lighter than the certified optimum, within the bound.
bool mincut_ok(const RingGraph& r, const AmpcMinCutReport& rep, double bound) {
  const WGraph& g = r.g;
  if (rep.side.size() != g.n) return false;
  const auto on = std::count(rep.side.begin(), rep.side.end(), 1);
  if (on == 0 || on == static_cast<std::ptrdiff_t>(g.n)) return false;
  if (ampccut::cut_weight(g, rep.side) != rep.weight) return false;
  const Weight opt = r.min_cut();
  return rep.weight >= opt &&
         static_cast<double>(rep.weight) <= bound * static_cast<double>(opt);
}

// Checks a k-cut answer: at least k non-empty parts, the reported weight,
// no lighter than the certified optimum, within the bound.
bool kcut_ok(const RingGraph& r, std::uint32_t k, const AmpcKCutReport& rep,
             double bound) {
  const auto& res = rep.result;
  if (res.part.size() != r.g.n || res.num_parts < k) return false;
  std::vector<std::uint8_t> seen(res.num_parts, 0);
  for (const std::uint32_t p : res.part) {
    if (p >= res.num_parts) return false;
    seen[p] = 1;
  }
  if (std::count(seen.begin(), seen.end(), 1) !=
      static_cast<std::ptrdiff_t>(res.num_parts)) {
    return false;
  }
  if (ampccut::k_cut_weight(r.g, res.part) != res.weight) return false;
  const Weight opt = r.optimal_k_cut(k);
  return res.weight >= opt &&
         static_cast<double>(res.weight) <= bound * static_cast<double>(opt);
}

// One op of either workload: which instance and which solve seed. Every op
// has its own solve seed, so op times are fresh draws rather than repeats of
// a few fixed costs, whose median would jump between them.
struct Op {
  std::size_t instance;
  std::uint64_t solve_seed;
};

Op op_at(const SolveSpec& spec, std::uint64_t seed, std::uint64_t j) {
  return {static_cast<std::size_t>(j % spec.clusters.size()),
          splitmix64(seed ^ (0x51ed5eedULL + j))};
}

void add_conditions(RunResult& out) {
  out.conditions.emplace_back(
      "shared_pool_threads",
      std::to_string(ampccut::ThreadPool::shared().num_threads()));
  out.conditions.emplace_back("driving_threads", "1");
}

// Per-op layer metrics from the finished trace and counters. `ops` are the
// root spans of the traced ops.
void layer_metrics(RunResult& out, const Trace& tr, const LayerCounters& lc,
                   const std::vector<std::int32_t>& ops, bool kcut,
                   double public_ns, double traced_ns, std::uint64_t equal) {
  MetricSet& m = out.metrics;
  const SpanTree t(tr.spans());
  const auto n = static_cast<double>(std::max<std::size_t>(1, ops.size()));
  double tracker_busy = 0;
  double tracker_sum = 0;
  double local_busy = 0;
  double self = 0;
  double split_busy = 0;
  double lease_sum = 0;
  double leases = 0;
  for (const std::int32_t op : ops) {
    tracker_busy += static_cast<double>(t.busy_ns(op, "ampc_algo.tracker"));
    tracker_sum += static_cast<double>(t.sum_ns(op, "ampc_algo.tracker"));
    local_busy += static_cast<double>(t.busy_ns(op, "exact.local"));
    split_busy += static_cast<double>(t.busy_ns(op, "mincut.split"));
    const auto lease_spans = t.descendants(op, "ampc.lease");
    leases += static_cast<double>(lease_spans.size());
    for (const std::int32_t l : lease_spans) lease_sum += static_cast<double>(t.duration(l));
    // The op's wall time with no tracker run, leaf solve or lease active
    // anywhere in it: contraction order, contraction, witness lifting and,
    // on k-cut, the greedy loop around the splits.
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    for (const char* name : {"ampc_algo.tracker", "exact.local", "ampc.lease"}) {
      for (const std::int32_t c : t.descendants(op, name)) {
        children.emplace_back(t.span(c).start, t.span(c).end);
      }
    }
    self += static_cast<double>(
        t.duration(op) - union_ns(std::move(children), t.span(op).start, t.span(op).end));
  }
  m.set("ampc_algo.tracker_ms", tracker_busy / n * 1e-6, "ms");
  m.set("ampc.rounds", static_cast<double>(lc.rounds) / n, "count");
  m.set("ampc.charged_rounds", static_cast<double>(lc.charged_rounds) / n, "count");
  m.set("ampc.dht_read_words", static_cast<double>(lc.dht_reads) / n, "words");
  m.set("ampc.dht_write_words", static_cast<double>(lc.dht_writes) / n, "words");
  m.set("ampc.peak_table_words", static_cast<double>(lc.peak_table_words), "words");
  m.set("ampc.max_machine_traffic", static_cast<double>(lc.max_machine_traffic), "words");
  m.set("ampc.budget_violations", static_cast<double>(lc.budget_violations) / n, "count");
  // Families of executed rounds; a label outside the declared families
  // (none today) would go unreported here but still counts in ampc.rounds.
  for (const auto& [family, rounds] : lc.family_rounds) {
    const std::string name = "ampc.rounds." + family;
    const bool declared = std::any_of(kPerLayer.begin(), kPerLayer.end(),
                                      [&](const MetricName& d) { return name == d.name; });
    if (declared) m.set(name, static_cast<double>(rounds) / n, "count");
  }
  m.set("ampc.us_per_round",
        lc.rounds == 0 ? 0.0 : tracker_sum / static_cast<double>(lc.rounds) * 1e-3, "us");
  m.set("ampc.lease_us", leases == 0 ? 0.0 : lease_sum / leases * 1e-3, "us");
  m.set("ampc.table_reuse_frac",
        lc.table_leases == 0
            ? 0.0
            : static_cast<double>(lc.table_reuses) / static_cast<double>(lc.table_leases),
        "frac");
  m.set("exact.local_ms", local_busy / n * 1e-6, "ms");
  m.set("exact.local_solves", static_cast<double>(lc.local_solves) / n, "count");
  m.set("mincut.self_ms", self / n * 1e-6, "ms");
  m.set("mincut.instances", static_cast<double>(lc.instances) / n, "count");
  m.set("mincut.tracker_calls", static_cast<double>(lc.tracker_calls) / n, "count");
  // Summed over every min-cut solve of an op (one solve per mincut op).
  m.set("mincut.depth", static_cast<double>(lc.depth) / n, "count");
  if (kcut) {
    m.set("mincut.kcut_passes", static_cast<double>(lc.kcut_passes) / n, "count");
    m.set("mincut.split_calls", static_cast<double>(lc.split_calls) / n, "count");
    m.set("mincut.split_ms", split_busy / n * 1e-6, "ms");
  }
  m.set("support.pool_threads",
        static_cast<double>(ampccut::ThreadPool::shared().num_threads()), "count");
  m.set("trace.overhead_frac", public_ns > 0 ? traced_ns / public_ns - 1.0 : 0.0, "frac");
  m.set("trace.spans", static_cast<double>(tr.spans().size()), "count");
  m.set("trace.equal_frac", static_cast<double>(equal) / n, "frac");
}

// Runs one solve workload. `kcut` selects ampc_apx_split_k_cut with k equal
// to the instance's cluster count and a RuntimeArena shared by every run;
// otherwise ampc_approx_min_cut with library defaults.
RunResult run_solves(const SolveSpec& spec, bool kcut, const RunArgs& args) {
  RunResult out;
  const std::uint32_t selfcheck_failures = ring_selfcheck(args.seed);
  out.attempted += 1;
  out.failed += selfcheck_failures > 0 ? 1 : 0;

  RuntimeArena shared_arena;
  AmpcMinCutOptions base;  // library defaults: trials 2, kernel off
  if (kcut) base.arena = &shared_arena;

  auto options = [&](const Op& op) {
    AmpcMinCutOptions o = base;
    o.recursion.seed = op.solve_seed;
    return o;
  };
  auto solve_public = [&](const RingGraph& r, const AmpcMinCutOptions& o,
                          AmpcMinCutReport* mc, AmpcKCutReport* kc) {
    if (kcut) {
      *kc = ampccut::ampc::ampc_apx_split_k_cut(
          r.g, static_cast<std::uint32_t>(r.bundles.size()), o);
    } else {
      *mc = ampccut::ampc::ampc_approx_min_cut(r.g, o);
    }
  };

  // Set-up: input generation plus one warm-up op, repeated.
  std::vector<RingGraph> graphs;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    graphs = make_instances(spec, args.seed);
    AmpcMinCutReport mc;
    AmpcKCutReport kc;
    solve_public(graphs[0], options(op_at(spec, args.seed, 0)), &mc, &kc);
    setup.push_back(ms_since(t0) * 1e-3);
  }

  Trace tr;
  LayerCounters lc;
  std::vector<std::int32_t> traced_ops;
  std::array<std::vector<double>, kSlices> slice_ms;  // op latencies by slice
  std::array<SliceSpan, kSlices> slice_span;
  double public_ns = 0;
  double traced_ns = 0;
  std::uint64_t equal = 0;
  double ratio_sum = 0;
  double ratio_max = 0;
  double model_rounds = 0;
  double dht_words = 0;
  std::uint64_t counted = 0;

  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  std::uint64_t j = 0;
  // At least the counted prefix runs, so its aggregates are complete.
  for (; now_ns() - start < budget || j < spec.counted; ++j) {
    const Op op = op_at(spec, args.seed, j);
    const AmpcMinCutOptions o = options(op);
    const RingGraph& r = graphs[op.instance];
    const auto k = static_cast<std::uint32_t>(r.bundles.size());
    const double bound = ratio_bound(base, kcut ? k : 0);
    ++out.attempted;
    try {
      AmpcMinCutReport mc;
      AmpcKCutReport kc;
      const bool traced_first = args.trace && (j % 2 == 1);
      AmpcMinCutReport tmc;
      AmpcKCutReport tkc;
      auto run_traced = [&] {
        const std::int64_t t0 = now_ns();
        const std::size_t before = tr.spans().size();
        if (kcut) {
          tkc = traced_k_cut(r.g, k, o, tr, lc);
        } else {
          tmc = traced_min_cut(r.g, o, tr, -1, lc);
        }
        traced_ns += static_cast<double>(now_ns() - t0);
        traced_ops.push_back(static_cast<std::int32_t>(before));
      };
      if (traced_first) run_traced();
      const std::int64_t t0 = now_ns();
      solve_public(r, o, &mc, &kc);
      const std::int64_t t1 = now_ns();
      if (args.trace && !traced_first) run_traced();
      public_ns += static_cast<double>(t1 - t0);
      const auto slice = static_cast<std::size_t>(slice_of(t0 - start, budget));
      slice_ms[slice].push_back(static_cast<double>(t1 - t0) * 1e-6);
      slice_span[slice].add(t0, t1);

      const bool ok = kcut ? kcut_ok(r, k, kc, bound) : mincut_ok(r, mc, bound);
      bool traced_equal = true;
      if (args.trace) {
        traced_equal = kcut ? same(kc, tkc) : same(mc, tmc);
        equal += traced_equal ? 1 : 0;
      }
      if (!ok || !traced_equal) ++out.failed;
      if (!traced_equal) out.correct = false;
      if (j < spec.counted) {
        const double w = static_cast<double>(kcut ? kc.result.weight : mc.weight);
        const double ratio = w / static_cast<double>(kcut ? r.optimal_k_cut(k) : r.min_cut());
        ratio_sum += ratio;
        ratio_max = std::max(ratio_max, ratio);
        model_rounds += static_cast<double>(kcut ? kc.model_rounds() : mc.model_rounds());
        dht_words += static_cast<double>(mc.dht_reads + mc.dht_writes);
        ++counted;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cutbench: %s op %llu failed: %s\n", spec.name,
                   static_cast<unsigned long long>(j), e.what());
      ++out.failed;
    }
  }
  add_conditions(out);

  const double per = static_cast<double>(std::max<std::uint64_t>(1, counted));
  MetricSet& d = out.details;
  std::size_t samples = 0;
  std::array<SliceTiming, kSlices> slices;
  for (int i = 0; i < kSlices; ++i) {
    std::vector<double>& v = slice_ms[static_cast<std::size_t>(i)];
    SliceTiming& s = slices[static_cast<std::size_t>(i)];
    samples += v.size();
    s.tail_q = tail_quantile(v.size());
    s.p50 = percentile(v, 0.5);
    s.tail = percentile(v, s.tail_q);
    s.per_s = slice_span[static_cast<std::size_t>(i)].per_s();
  }
  const SliceTiming timing = median_over_slices(slices);
  const double p50 = timing.p50;
  const double tail = timing.tail;
  const double tail_q = timing.tail_q;
  d.set("setup_s", median(setup), "s");
  d.set("failed_frac",
        static_cast<double>(out.failed) / static_cast<double>(out.attempted), "frac");
  d.set("peak_rss_mb", peak_rss_mb(), "MiB");
  d.set("solve_ms_p50", p50, "ms");
  d.set("solve_ms_tail", tail, "ms");
  d.set("solve_ms_tail_percentile", tail_q * 100.0, "pct");
  d.set("solve_samples", static_cast<double>(samples), "count");
  d.set("approx_ratio_mean", ratio_sum / per, "ratio");
  d.set("approx_ratio_max", ratio_max, "ratio");
  d.set("model_rounds", model_rounds / per, "count");
  // The k-cut report carries no DHT words; the traced pass has them
  // (ampc.dht_words).
  if (!kcut) d.set("dht_words", dht_words / per, "words");
  d.set("counted_ops", static_cast<double>(counted), "count");
  d.set("selfcheck_failures", static_cast<double>(selfcheck_failures), "count");

  if (args.trace) {
    zero_layers(out.metrics);
    layer_metrics(out, tr, lc, traced_ops, kcut, public_ns, traced_ns, equal);
    const double n = static_cast<double>(std::max<std::size_t>(1, traced_ops.size()));
    out.metrics.set("ampc.model_rounds", model_rounds / per, "count");
    out.metrics.set("ampc.dht_words",
                    static_cast<double>(lc.dht_reads + lc.dht_writes) / n, "words");
  } else {
    MetricSet& m = out.metrics;
    m.set("setup_s", median(setup), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    m.set("op_ms_p50", p50, "ms");
    m.set("op_ms_tail", tail, "ms");
    m.set("ops_per_s", timing.per_s, "1/s");
    m.set("approx_ratio_mean", ratio_sum / per, "ratio");
  }
  return out;
}

}  // namespace

// One size per workload: with several sizes in rotation the solve times form
// one mode per size and the median lands on a boundary between modes, where
// a one-sample change in the mix moves it by a whole size step.

RunResult run_mincut_ring(const RunArgs& args) {
  // n = 3072, m ~ 4n, 6..13 clusters.
  const SolveSpec spec{"mincut-ring", 3072, {6, 7, 8, 9, 10, 11, 12, 13}, 16};
  return run_solves(spec, false, args);
}

RunResult run_kcut_ring(const RunArgs& args) {
  // n = 1024 with k = 8 clusters, so the greedy loop runs seven passes.
  const SolveSpec spec{"kcut-ring", 1024, {8, 8, 8, 8, 8, 8, 8, 8}, 16};
  return run_solves(spec, true, args);
}

}  // namespace cutbench
