#include "serve/cut_server.h"

#include <algorithm>
#include <utility>

#include "support/check.h"

namespace ampccut::serve {

CutServer::CutServer(WGraph g, CutServerOptions opt)
    : opt_(std::move(opt)),
      pool_(opt_.pool != nullptr ? opt_.pool : &ThreadPool::shared()),
      arena_(pool_) {
  REPRO_CHECK_MSG(g.n >= 1, "CutServer needs at least one vertex");
  g.validate();
  graph_ = std::move(g);
  epoch_ = 1;
  current_.store(build_snapshot(graph_, epoch_));
}

SnapshotPtr CutServer::snapshot() const {
  return current_.load();
}

Weight CutServer::query(VertexId s, VertexId t) {
  const SnapshotPtr snap = snapshot();
  const Weight w = snap->query(s, t);
  queries_.fetch_add(1, std::memory_order_relaxed);
  return w;
}

std::vector<Weight> CutServer::query_batch(const std::vector<QueryPair>& pairs) {
  // Pin ONE snapshot for the whole batch: every answer shares an epoch no
  // matter how many swaps land while the fan-out runs.
  return query_batch_on(snapshot(), pairs);
}

std::vector<Weight> CutServer::query_batch_on(
    const SnapshotPtr& snap, const std::vector<QueryPair>& pairs) {
  REPRO_CHECK(snap != nullptr);
  std::vector<Weight> out(pairs.size());
  // Block-partitioned fan-out: disjoint result slots, deterministic content.
  // A batch of at most 16 blocks runs inline on the caller (parallel_for's
  // one-chunk path). The grain comes from a batch-size sweep: BENCHMARKS.md
  // "Serving batch grain", DESIGN.md "Cut-query serving tier" decision 4.
  const std::size_t grain = 1024;
  const std::size_t blocks = (pairs.size() + grain - 1) / grain;
  pool_->parallel_for(blocks, [&](std::size_t b) {
    const std::size_t lo = b * grain;
    const std::size_t hi = std::min(lo + grain, pairs.size());
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = snap->query(pairs[i].s, pairs[i].t);
    }
  });
  batch_queries_.fetch_add(pairs.size(), std::memory_order_relaxed);
  return out;
}

void CutServer::update_graph(WGraph g) {
  REPRO_CHECK_MSG(g.n >= 1, "CutServer needs at least one vertex");
  g.validate();
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  // Build completely before touching any published state: a failed build
  // must leave the current snapshot exactly as it was.
  const SnapshotPtr next = build_snapshot(g, epoch_ + 1);
  graph_ = std::move(g);
  epoch_ += 1;
  current_.store(next);
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
}

SnapshotPtr CutServer::build_snapshot(const WGraph& g, std::uint64_t epoch) {
  SnapshotStats stats;
  stats.n = g.n;
  stats.m = g.m();
  stats.components = count_components(g);

  // Merge-only kernel pass (header comment on why nothing stronger is
  // admissible here). kernelize resolves disconnected inputs into an empty
  // kernel — useless for pairwise serving — so those build on the raw graph.
  const WGraph* flow_graph = &g;
  WGraph merged;
  if (opt_.kernel.enabled && g.n >= 2 && stats.components == 1) {
    kernel::KernelOptions ko;
    ko.enabled = true;
    ko.max_passes = 1;
    ko.merge_parallel_edges = true;
    ko.remove_low_degree = false;
    ko.contract_heavy_edges = false;
    kernel::KernelResult kr = kernel::kernelize(g, ko, pool_);
    // Merge-only passes never touch the vertex set.
    REPRO_CHECK(kr.kernel.n == g.n);
    merged = std::move(kr.kernel);
    flow_graph = &merged;
    stats.merged_parallel = kr.stats.merged_parallel;
    stats.kernelized = true;
  }
  stats.flow_edges = flow_graph->m();

  GomoryHuTree tree = build_gomory_hu(*flow_graph);
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
  // The snapshot keeps the ORIGINAL graph (scenario code lists crossing
  // edges of it); the merged copy only fed the flows.
  return std::make_shared<const Snapshot>(g, std::move(tree), epoch, stats,
                                          pool_);
}

ServeStats CutServer::stats() const {
  ServeStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.batch_queries = batch_queries_.load(std::memory_order_relaxed);
  s.rebuilds = rebuilds_.load(std::memory_order_relaxed);
  s.snapshots_published = snapshots_published_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ampccut::serve
