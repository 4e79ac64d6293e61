// serve-mixed: a CutServer over a certified ring under a closed-loop reader
// and a periodic writer.
//
// Traffic: one client thread sends a request, waits for it, then sends the
// next. A request is either one query_batch call or a run of single-shot
// query() calls timed as one request (a single query is too short to time
// alone). Pairs come from a skewed hot set. A writer thread calls
// update_graph with a reweighted graph every kRebuildPeriod. Every answer is
// checked against reference trees built in set-up for each graph the writer
// publishes, and a batch must be answered from one epoch.
//
// The traced pass times the serving layers from outside: the snapshot pin,
// the uncached tree walk on the pinned snapshot, and the batch call; and on
// the writer it rebuilds each snapshot from public pieces (merge-only
// kernelize, build_gomory_hu with a step hook, the Snapshot constructor),
// then checks that update_graph published the same tree.
#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "flow/gomory_hu.h"
#include "kernel/kernel.h"
#include "ring.h"
#include "serve/cut_server.h"
#include "serve/snapshot.h"
#include "support/rng.h"
#include "support/threadpool.h"
#include "workloads.h"

namespace cutbench {

namespace {

using ampccut::GomoryHuTree;
using ampccut::Rng;
using ampccut::splitmix64;
using ampccut::ThreadPool;
using ampccut::serve::CutServer;
using ampccut::serve::QueryPair;
using ampccut::serve::SnapshotPtr;

constexpr VertexId kN = 1024;
constexpr std::uint32_t kClusters = 8;
constexpr std::uint32_t kCycles = 4;       // h: Hamiltonian cycles per cluster
constexpr std::uint32_t kVariants = 4;     // graphs the writer cycles through
constexpr std::size_t kPairs = 16384;      // query pair pool (4x the cache)
constexpr std::size_t kBatch = 96;         // pairs per query_batch (two fan-out blocks)
constexpr std::size_t kRun = 32;           // single queries per timed run
constexpr std::int64_t kRebuildPeriod = 1'500'000'000;  // ns; rebuilds take ~0.3 s
constexpr std::size_t kWarmupRequests = 500;
constexpr std::uint64_t kProbeEvery = 8;  // traced probes follow every 8th request
// Latency samples kept per slice (256 KiB each, touched up front); more
// requests than this are subsampled uniformly, which is plenty for a p95.
// Kept small so that peak_rss_mb follows the server, not these buffers.
constexpr std::size_t kSampleCapacity = std::size_t{1} << 16;

// The graphs the writer cycles through and the query pair pool.
struct Inputs {
  std::vector<RingGraph> variants;
  std::vector<QueryPair> pairs;
};

// Reference answers for every (variant, pair).
struct References {
  std::vector<std::vector<Weight>> answers;  // [variant][pair]
  std::uint32_t certificate_failures = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  RingParams p;
  p.n = kN;
  p.clusters = kClusters;
  p.cycles = kCycles;
  const std::uint64_t topo = splitmix64(seed ^ 0x5e7e);
  for (std::uint32_t v = 0; v < kVariants; ++v) {
    in.variants.push_back(make_ring(p, topo, splitmix64(topo + v + 1)));
  }
  Rng rng(splitmix64(seed ^ 0xa11));
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto s = static_cast<VertexId>(rng.next_below(kN));
    auto t = static_cast<VertexId>(rng.next_below(kN - 1));
    if (t >= s) ++t;
    in.pairs.push_back({s, t});
  }
  return in;
}

// Reference answers from independently built Gomory–Hu trees, checked
// against the ring certificate: a cross-cluster pair's cut is known exactly,
// a same-cluster pair's is at least 2 h w_min. The inputs are a function of
// the seed, so set-up builds these once, outside its timing.
References make_references(const Inputs& in) {
  References ref;
  for (const RingGraph& r : in.variants) {
    const GomoryHuTree tree = ampccut::build_gomory_hu(r.g);
    std::vector<Weight> answers;
    answers.reserve(kPairs);
    for (const QueryPair& q : in.pairs) {
      const Weight w = tree.min_cut(q.s, q.t);
      const bool cross = r.cluster_of[q.s] != r.cluster_of[q.t];
      if (cross ? w != r.cross_cluster_cut(q.s, q.t) : w < 2 * Weight{kCycles} * r.w_min) {
        ++ref.certificate_failures;
      }
      answers.push_back(w);
    }
    ref.answers.push_back(std::move(answers));
  }
  return ref;
}

// Epoch e serves variant (e - 1) mod kVariants: epoch 1 is the initial
// graph, and the writer's u-th update publishes variant u mod kVariants.
std::uint32_t variant_of(std::uint64_t epoch) {
  return static_cast<std::uint32_t>((epoch - 1) % kVariants);
}

ampccut::serve::CutServerOptions server_options(ThreadPool* pool) {
  ampccut::serve::CutServerOptions o;  // answer cache on, default size
  o.kernel.enabled = true;              // merge-only pass on the rebuild path
  o.pool = pool;
  return o;
}

// Skewed pick from the pair pool: index = floor(P u^3) puts half the draws
// on the hottest eighth of the pool and 63% on the quarter the answer cache
// can hold.
std::size_t draw_pair(Rng& rng) {
  const double u = rng.next_double();
  return std::min(kPairs - 1, static_cast<std::size_t>(static_cast<double>(kPairs) * u * u * u));
}

// A client request: its pair indices and whether it is a batch.
struct Request {
  bool batch = false;
  std::vector<std::size_t> idx;
  std::vector<QueryPair> pairs;
};

void draw_request(Rng& rng, Request& req) {
  // One batch per two single-query runs keeps the median inside one mode
  // of the latency mix.
  req.batch = rng.next_below(3) == 0;
  const std::size_t len = req.batch ? kBatch : kRun;
  req.idx.resize(len);
  req.pairs.resize(len);
  for (std::size_t i = 0; i < len; ++i) req.idx[i] = draw_pair(rng);
}

// Accumulated over the measured phase.
struct ClientLog {
  explicit ClientLog(std::size_t capacity)
      : lat_us{LatencySample(capacity, 0x1a7), LatencySample(capacity, 0x1a8),
               LatencySample(capacity, 0x1a9)},
        lat_rebuild_us(capacity, 0x2b8) {}
  std::array<LatencySample, kSlices> lat_us;  // every request, by time slice
  std::array<SliceSpan, kSlices> spans;
  LatencySample lat_rebuild_us;  // requests overlapping an update_graph
  std::int64_t start_ns = 0;     // phase start and length, for slicing
  std::int64_t budget_ns = 1;
  std::uint64_t requests = 0;
  std::uint64_t queries = 0;
  std::uint64_t wrong = 0;
  double ratio_sum = 0;
  double latency_sum_us = 0;
};

// Writer-side results.
struct WriterLog {
  std::mutex mu;
  std::vector<double> rebuild_ms;
  std::uint64_t updates = 0;
  std::uint64_t failures = 0;
  std::uint64_t traced_equal = 0;
  // Traced rebuild layers.
  double merge_ms = 0;
  double gomory_hu_ms = 0;
  double index_ms = 0;
  double covered_ms = 0;  // merge + Gomory–Hu + index, per update
  double update_ms = 0;   // update_graph wall, per traced update
  std::uint64_t merged_parallel = 0;
  std::vector<double> step_us;
};

class Workload {
 public:
  Workload(Inputs in, const References& ref, ThreadPool& pool, std::uint64_t seed)
      : in_(std::move(in)),
        ref_(ref),
        pool_(pool),
        server_(std::make_unique<CutServer>(in_.variants[0].g, server_options(&pool))),
        rng_(splitmix64(seed ^ 0xc11e47)) {}

  // Answers request `req` was given, checked: every answer must match the
  // reference of one epoch in [e0, e1] — for a batch, one epoch for all.
  bool check(const Request& req, const std::vector<Weight>& ans, std::uint64_t e0,
             std::uint64_t e1, double* ratio_sum) const {
    bool ok = true;
    if (req.batch) {
      std::uint64_t match = 0;
      for (std::uint64_t e = e0; e <= e1 && match == 0; ++e) {
        const auto& ref = ref_.answers[variant_of(e)];
        bool all = true;
        for (std::size_t i = 0; i < ans.size() && all; ++i) all = ans[i] == ref[req.idx[i]];
        if (all) match = e;
      }
      ok = match != 0;
      const auto& ref = ref_.answers[variant_of(match != 0 ? match : e1)];
      for (std::size_t i = 0; i < ans.size(); ++i) {
        *ratio_sum += static_cast<double>(ans[i]) / static_cast<double>(ref[req.idx[i]]);
      }
      return ok;
    }
    for (std::size_t i = 0; i < ans.size(); ++i) {
      std::uint64_t match = 0;
      for (std::uint64_t e = e0; e <= e1 && match == 0; ++e) {
        if (ans[i] == ref_.answers[variant_of(e)][req.idx[i]]) match = e;
      }
      ok = ok && match != 0;
      const Weight ref = ref_.answers[variant_of(match != 0 ? match : e1)][req.idx[i]];
      *ratio_sum += static_cast<double>(ans[i]) / static_cast<double>(ref);
    }
    return ok;
  }

  // One closed-loop request, timed and checked.
  void request(Request& req, std::vector<Weight>& ans, ClientLog& log, Trace* tr) {
    draw_request(rng_, req);
    for (std::size_t i = 0; i < req.idx.size(); ++i) req.pairs[i] = in_.pairs[req.idx[i]];
    const std::uint64_t e0 = server_->snapshot()->epoch();
    const std::uint64_t s0 = rebuild_state_.load(std::memory_order_acquire);
    const std::int64_t t0 = now_ns();
    if (req.batch) {
      ans = server_->query_batch(req.pairs);
    } else {
      ans.resize(req.pairs.size());
      for (std::size_t i = 0; i < req.pairs.size(); ++i) {
        ans[i] = server_->query(req.pairs[i].s, req.pairs[i].t);
      }
    }
    const std::int64_t t1 = now_ns();
    const std::uint64_t s1 = rebuild_state_.load(std::memory_order_acquire);
    const std::uint64_t e1 = server_->snapshot()->epoch();
    const auto us = static_cast<float>(static_cast<double>(t1 - t0) * 1e-3);
    const auto slice = static_cast<std::size_t>(slice_of(t0 - log.start_ns, log.budget_ns));
    log.lat_us[slice].add(us);
    log.spans[slice].add(t0, t1);
    log.latency_sum_us += us;
    if ((s0 & 1U) != 0 || s1 != s0) log.lat_rebuild_us.add(us);
    ++log.requests;
    log.queries += req.pairs.size();
    if (!check(req, ans, e0, e1, &log.ratio_sum)) ++log.wrong;
    // Only batches get a span: serve.batch_us is the one request-level
    // layer metric, and millions of single-run spans would only cost memory.
    if (tr != nullptr && req.batch) tr->add("serve.batch", t0, t1, -1);
  }

  // Traced probes after a request, outside its timing: the pin and the
  // uncached tree walk, each over the request's pairs.
  void probe(const Request& req, Trace& tr) {
    const std::int64_t p0 = now_ns();
    SnapshotPtr snap;
    for (std::size_t i = 0; i < req.pairs.size(); ++i) snap = server_->snapshot();
    const std::int64_t p1 = now_ns();
    Weight sink = 0;
    for (const QueryPair& q : req.pairs) sink += snap->query(q.s, q.t);
    const std::int64_t p2 = now_ns();
    probe_sink_ += sink;
    tr.add("serve.pin", p0, p1, -1);
    tr.add("serve.walk", p1, p2, -1);
    probe_ops_ += req.pairs.size();
  }

  // The writer loop: an update every kRebuildPeriod until stop.
  void writer(std::int64_t start, bool traced, Trace* tr, WriterLog& log) {
    try {
      for (std::uint64_t u = 1;; ++u) {
        {
          std::unique_lock<std::mutex> lock(stop_mu_);
          const auto due = std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(start + static_cast<std::int64_t>(u) * kRebuildPeriod));
          if (stop_cv_.wait_until(lock, due, [&] { return stop_; })) return;
        }
        // Epochs continue across phases: the next update publishes epoch
        // published_ + 1, which serves variant_of(published_ + 1).
        const std::uint64_t epoch = published_ + 1;
        const RingGraph& next = in_.variants[variant_of(epoch)];
        GomoryHuTree rebuilt;
        if (traced) rebuilt = traced_rebuild(next.g, *tr, log);
        WGraph g = next.g;
        rebuild_state_.fetch_add(1, std::memory_order_acq_rel);
        const std::int64_t t0 = now_ns();
        server_->update_graph(std::move(g));
        const std::int64_t t1 = now_ns();
        rebuild_state_.fetch_add(1, std::memory_order_acq_rel);
        const SnapshotPtr snap = server_->snapshot();
        std::lock_guard<std::mutex> lock(log.mu);
        log.rebuild_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        ++log.updates;
        published_ = epoch;
        bool ok = snap->epoch() == epoch;
        if (traced) {
          tr->add("serve.update_graph", t0, t1, -1);
          log.update_ms += static_cast<double>(t1 - t0) * 1e-6;
          const bool equal = snap->tree().parent == rebuilt.parent &&
                             snap->tree().parent_cut_weight == rebuilt.parent_cut_weight;
          log.traced_equal += equal ? 1 : 0;
          ok = ok && equal;
        }
        if (!ok) ++log.failures;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cutbench: serve-mixed writer failed: %s\n", e.what());
      std::lock_guard<std::mutex> lock(log.mu);
      ++log.failures;
    }
  }

  void stop_writer() {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
    stop_cv_.notify_all();
  }
  void reset_writer() {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = false;
  }

  [[nodiscard]] CutServer& server() { return *server_; }
  [[nodiscard]] std::uint64_t probe_ops() const { return probe_ops_; }

 private:
  // CutServer::build_snapshot from public pieces, under spans.
  GomoryHuTree traced_rebuild(const WGraph& g, Trace& tr, WriterLog& log) {
    ampccut::kernel::KernelOptions ko;
    ko.enabled = true;
    ko.max_passes = 1;
    ko.merge_parallel_edges = true;
    ko.remove_low_degree = false;
    ko.contract_heavy_edges = false;
    const std::int64_t k0 = now_ns();
    ampccut::kernel::KernelResult kr = ampccut::kernel::kernelize(g, ko, &pool_);
    const std::int64_t k1 = now_ns();
    std::vector<std::int64_t> steps;
    steps.reserve(g.n);
    GomoryHuTree tree = ampccut::build_gomory_hu(
        kr.kernel, [&](VertexId) { steps.push_back(now_ns()); });
    const std::int64_t g1 = now_ns();
    // Build provenance does not reach the indexes; default stats suffice.
    WGraph graph_copy = g;
    GomoryHuTree tree_copy = tree;
    const std::int64_t i0 = now_ns();
    const ampccut::serve::Snapshot snap(std::move(graph_copy), std::move(tree_copy), 0,
                                        ampccut::serve::SnapshotStats{}, &pool_);
    const std::int64_t i1 = now_ns();
    tr.add("kernel.merge", k0, k1, -1);
    tr.add("flow.gomory_hu", k1, g1, -1);
    tr.add("serve.index", i0, i1, -1);
    std::lock_guard<std::mutex> lock(log.mu);
    log.merge_ms += static_cast<double>(k1 - k0) * 1e-6;
    log.gomory_hu_ms += static_cast<double>(g1 - k1) * 1e-6;
    log.index_ms += static_cast<double>(i1 - i0) * 1e-6;
    log.covered_ms += static_cast<double>((k1 - k0) + (g1 - k1) + (i1 - i0)) * 1e-6;
    log.merged_parallel += kr.stats.merged_parallel;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const std::int64_t end = i + 1 < steps.size() ? steps[i + 1] : g1;
      log.step_us.push_back(static_cast<double>(end - steps[i]) * 1e-3);
    }
    return tree;
  }

  Inputs in_;
  const References& ref_;
  ThreadPool& pool_;
  std::unique_ptr<CutServer> server_;
  Rng rng_;
  std::atomic<std::uint64_t> rebuild_state_{0};  // odd while update_graph runs
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;  // guarded by stop_mu_
  std::uint64_t published_ = 1;  // last epoch the writer published
  Weight probe_sink_ = 0;
  std::uint64_t probe_ops_ = 0;
};

// Runs the closed loop for `seconds` with the writer beside it.
void run_phase(Workload& w, double seconds, bool traced, Trace* tr, ClientLog& log,
               WriterLog& wlog) {
  w.reset_writer();
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  log.start_ns = start;
  log.budget_ns = budget;
  std::thread writer([&] { w.writer(start, traced, tr, wlog); });
  Request req;
  std::vector<Weight> ans;
  while (now_ns() - start < budget) {
    try {
      w.request(req, ans, log, traced ? tr : nullptr);
      if (traced && log.requests % kProbeEvery == 0) w.probe(req, *tr);
    } catch (const std::exception& e) {
      // A request that throws is a failed operation; the loop goes on.
      std::fprintf(stderr, "cutbench: serve-mixed request failed: %s\n", e.what());
      ++log.requests;
      ++log.wrong;
    }
  }
  w.stop_writer();
  writer.join();
}

}  // namespace

RunResult run_serve_mixed(const RunArgs& args) {
  RunResult out;
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  // Client + writer + the server's pool stay within nproc threads.
  ThreadPool pool(std::max(1U, nproc > 2 ? nproc - 2 : 1U));
  out.conditions.emplace_back("serve_pool_threads", std::to_string(pool.num_threads()));
  out.conditions.emplace_back("client_threads", "1");
  out.conditions.emplace_back("writer_threads", "1");
  out.conditions.emplace_back("shared_pool_threads", "0");

  const std::uint32_t selfcheck_failures = ring_selfcheck(args.seed);
  out.attempted += 1;
  out.failed += selfcheck_failures > 0 ? 1 : 0;

  // Set-up: ring generation, the initial server build and warm-up, timed
  // and repeated. The reference trees are built once, untimed.
  const References ref = make_references(make_inputs(args.seed));
  out.attempted += 1;
  out.failed += ref.certificate_failures > 0 ? 1 : 0;
  std::unique_ptr<Workload> w;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    const std::int64_t t0 = now_ns();
    w = std::make_unique<Workload>(make_inputs(args.seed), ref, pool, args.seed);
    ClientLog warm(kWarmupRequests);
    Request req;
    std::vector<Weight> ans;
    for (std::size_t i = 0; i < kWarmupRequests; ++i) w->request(req, ans, warm, nullptr);
    setup.push_back(ms_since(t0) * 1e-3);
    out.attempted += warm.requests;
    out.failed += warm.wrong;
  }

  ClientLog log(kSampleCapacity);
  WriterLog wlog;
  Trace tr;
  double untraced_mean_us = 0;
  if (args.trace) {
    // Untraced reference phase first (a third of the run), then the traced
    // phase; the mean-latency ratio is the tracing overhead.
    ClientLog untraced(kSampleCapacity);
    WriterLog untraced_w;
    run_phase(*w, args.seconds / 3.0, false, nullptr, untraced, untraced_w);
    untraced_mean_us =
        untraced.latency_sum_us / static_cast<double>(std::max<std::uint64_t>(1, untraced.requests));
    out.attempted += untraced.requests + untraced_w.updates;
    out.failed += untraced.wrong + untraced_w.failures;
  }
  const ampccut::serve::ServeStats before = w->server().stats();
  const double seconds = args.trace ? args.seconds * 2.0 / 3.0 : args.seconds;
  run_phase(*w, seconds, args.trace, &tr, log, wlog);
  const double elapsed_s = static_cast<double>(now_ns() - log.start_ns) * 1e-9;
  const ampccut::serve::ServeStats after = w->server().stats();
  out.attempted += log.requests + wlog.updates;
  out.failed += log.wrong + wlog.failures;

  std::uint64_t samples = 0;
  std::array<SliceTiming, kSlices> slices;
  for (int i = 0; i < kSlices; ++i) {
    LatencySample& v = log.lat_us[static_cast<std::size_t>(i)];
    SliceTiming& s = slices[static_cast<std::size_t>(i)];
    samples += v.count();
    s.tail_q = tail_quantile(v.count());
    s.p50 = v.percentile(0.5);
    s.tail = v.percentile(s.tail_q);
    s.per_s = log.spans[static_cast<std::size_t>(i)].per_s();
  }
  const SliceTiming timing = median_over_slices(slices);
  const double p50 = timing.p50;
  const double tail = timing.tail;
  const double tail_q = timing.tail_q;
  const std::uint64_t samples_rb = log.lat_rebuild_us.count();
  const double tail_rb_q = tail_quantile(samples_rb);
  const double tail_rb = log.lat_rebuild_us.percentile(tail_rb_q);
  std::vector<double> rebuilds = wlog.rebuild_ms;
  const double rebuild_ms = percentile(rebuilds, 0.5);
  const double ratio_mean = log.ratio_sum / static_cast<double>(std::max<std::uint64_t>(1, log.queries));

  MetricSet& d = out.details;
  d.set("setup_s", median(setup), "s");
  d.set("failed_frac", static_cast<double>(out.failed) / static_cast<double>(out.attempted),
        "frac");
  d.set("peak_rss_mb", peak_rss_mb(), "MiB");
  d.set("query_us_p50", p50, "us");
  d.set("query_us_tail", tail, "us");
  d.set("query_us_tail_percentile", tail_q * 100.0, "pct");
  d.set("query_samples", static_cast<double>(samples), "count");
  d.set("query_us_tail_rebuild", tail_rb, "us");
  d.set("query_us_tail_rebuild_percentile", tail_rb_q * 100.0, "pct");
  d.set("query_rebuild_samples", static_cast<double>(samples_rb), "count");
  d.set("queries_per_s", static_cast<double>(log.queries) / elapsed_s, "1/s");
  d.set("rebuild_ms", rebuild_ms, "ms");
  d.set("rebuilds", static_cast<double>(wlog.updates), "count");
  d.set("approx_ratio_mean", ratio_mean, "ratio");
  d.set("selfcheck_failures", static_cast<double>(selfcheck_failures), "count");
  d.set("certificate_failures", static_cast<double>(ref.certificate_failures), "count");

  if (!args.trace) {
    MetricSet& m = out.metrics;
    m.set("setup_s", median(setup), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    m.set("op_ms_p50", p50 * 1e-3, "ms");
    m.set("op_ms_tail", tail * 1e-3, "ms");
    m.set("ops_per_s", timing.per_s, "1/s");
    m.set("approx_ratio_mean", ratio_mean, "ratio");
    return out;
  }

  MetricSet& m = out.metrics;
  zero_layers(m);
  const SpanTree t(tr.spans());
  double pin_ns = 0;
  double walk_ns = 0;
  double batch_ns = 0;
  double batches = 0;
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(tr.spans().size()); ++i) {
    const std::string name = t.span(i).name;
    if (name == "serve.pin") pin_ns += static_cast<double>(t.duration(i));
    if (name == "serve.walk") walk_ns += static_cast<double>(t.duration(i));
    if (name == "serve.batch") {
      batch_ns += static_cast<double>(t.duration(i));
      batches += 1;
    }
  }
  const double probes = static_cast<double>(std::max<std::uint64_t>(1, w->probe_ops()));
  const std::uint64_t hits = after.cache_hits - before.cache_hits;
  const std::uint64_t lookups = hits + (after.cache_misses - before.cache_misses);
  const double traced_updates = static_cast<double>(std::max<std::uint64_t>(1, wlog.updates));
  std::vector<double> steps = wlog.step_us;
  const double step_max = steps.empty() ? 0.0 : *std::max_element(steps.begin(), steps.end());
  m.set("serve.pin_ns", pin_ns / probes, "ns");
  m.set("serve.walk_ns", walk_ns / probes, "ns");
  m.set("serve.batch_us", batches == 0 ? 0.0 : batch_ns / batches * 1e-3, "us");
  m.set("serve.cache_hit_frac",
        lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups), "frac");
  m.set("serve.cache_evictions",
        static_cast<double>(after.cache_evictions - before.cache_evictions), "count");
  m.set("kernel.merge_ms", wlog.merge_ms / traced_updates, "ms");
  m.set("kernel.merged_parallel", static_cast<double>(wlog.merged_parallel) / traced_updates,
        "count");
  m.set("flow.gomory_hu_ms", wlog.gomory_hu_ms / traced_updates, "ms");
  m.set("flow.gusfield_step_us_p50", percentile(steps, 0.5), "us");
  m.set("flow.gusfield_step_us_max", step_max, "us");
  m.set("serve.index_ms", wlog.index_ms / traced_updates, "ms");
  m.set("serve.rebuild_coverage", wlog.update_ms > 0 ? wlog.covered_ms / wlog.update_ms : 0.0,
        "frac");
  m.set("support.pool_threads", static_cast<double>(pool.num_threads()), "count");
  const double traced_mean_us =
      log.latency_sum_us / static_cast<double>(std::max<std::uint64_t>(1, log.requests));
  m.set("trace.overhead_frac", untraced_mean_us > 0 ? traced_mean_us / untraced_mean_us - 1.0 : 0.0,
        "frac");
  m.set("trace.spans", static_cast<double>(tr.spans().size()), "count");
  m.set("trace.equal_frac", static_cast<double>(wlog.traced_equal) / traced_updates, "frac");
  if (wlog.traced_equal != wlog.updates) out.correct = false;
  return out;
}

}  // namespace cutbench
