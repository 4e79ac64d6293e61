// CutServer: the concurrent, queryable front over a Gomory–Hu snapshot
// (DESIGN.md "Cut-query serving tier"; the ROADMAP's "cut-query serving
// layer" item).
//
// Construction pays the heavy work once — optionally an all-pairs-safe
// kernel pass (parallel-edge merging only; see build notes below), then
// Gusfield's n-1 max-flows — and publishes the result as an immutable
// Snapshot behind a SnapshotCell (serve/snapshot.h) — semantically a
// std::atomic<std::shared_ptr>, spelled out as an acquire/release spinlock
// because GCC 12's _Sp_atomic lacks the release edge on its reader path
// (see the cell's comment). Readers pin a snapshot with one brief
// spinlocked pointer copy and answer s-t queries in O(tree path);
// update_graph() rebuilds on the calling thread and swaps the new epoch in
// with one atomic store, so readers are never blocked and every answer is
// attributable to the epoch that produced it.
//
// Why the kernel front-end is merge-only: degree peeling and certified
// heavy-edge contraction preserve the GLOBAL min cut, but a Gomory–Hu tree
// answers ALL-PAIRS s-t cuts — contracting u into v erases every cut
// separating them, which is exactly what a served query may ask for.
// Parallel-edge merging is the one rule that rewrites the graph into an
// equivalent one on the same vertex set, so it is the only rule the serving
// tier lets through, however the caller configures KernelOptions.
//
// Rebuild robustness rides the runtime's fault machinery (ampc/fault.h):
// each Gusfield step consults the FaultInjector at (round = epoch,
// machine = step, attempt); an injected failure discards the partial tree
// and replays the whole build under RetryPolicy, and exhaustion surfaces as
// RetriesExhaustedError with the previous snapshot still serving — degraded
// freshness, never a wrong answer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ampc/fault.h"
#include "ampc/runtime.h"
#include "kernel/kernel.h"
#include "serve/snapshot.h"
#include "support/threadpool.h"

namespace ampccut::serve {

// One s-t query; answers are symmetric in (s, t).
struct QueryPair {
  VertexId s = 0;
  VertexId t = 0;
};

struct CutServerOptions {
  // Kernel front-end switch. When enabled, connected inputs pass through a
  // parallel-edge merge before the flows (header comment); the per-rule
  // toggles beyond `enabled` are ignored by design.
  kernel::KernelOptions kernel;
  // Pool for batch fan-out and build-time sorts (nullptr = the shared pool).
  // Never affects answers, only wall time.
  ThreadPool* pool = nullptr;
  // Rebuild-path fault injection + recovery budget (header comment).
  ampc::FaultPlan fault;
  ampc::RetryPolicy retry;
};

// Monotonic serving counters; queries/batch_queries count answers served.
struct ServeStats {
  std::uint64_t queries = 0;        // single-shot query() answers
  std::uint64_t batch_queries = 0;  // answers served through query_batch()
  // The server has no answer cache. These three fields stay only because
  // cutbench's serve-mixed still reads them (ROADMAP item 3a).
  std::uint64_t cache_hits = 0;       // inert, always 0
  std::uint64_t cache_misses = 0;     // inert, always 0
  std::uint64_t cache_evictions = 0;  // inert, always 0
  std::uint64_t rebuilds = 0;             // update_graph() successes
  std::uint64_t snapshots_published = 0;  // including the constructor's
  std::uint64_t build_retries = 0;        // fault-discarded build attempts
};

class CutServer {
 public:
  // Builds and publishes epoch 1. Requires g.n >= 1 (the graph may be
  // disconnected — cross-component answers are 0). Throws
  // RetriesExhaustedError if the configured fault plan defeats the build.
  explicit CutServer(WGraph g, CutServerOptions opt = {});

  CutServer(const CutServer&) = delete;
  CutServer& operator=(const CutServer&) = delete;

  // Pins the current snapshot: one atomic load, never blocks, never null.
  [[nodiscard]] SnapshotPtr snapshot() const;

  // s-t min cut against the current snapshot. Throws InvalidQueryError on a
  // bad pair.
  Weight query(VertexId s, VertexId t);

  // Batch variant: every answer is resolved against ONE pinned snapshot, so
  // a batch is internally consistent even while update_graph() swaps epochs
  // mid-flight. Pairs are served in blocks of a fixed grain over the pool's
  // parallel_for; a batch of one block runs inline on the caller. Order of
  // results matches `pairs`; answers are bit-identical to issuing the
  // queries sequentially.
  std::vector<Weight> query_batch(const std::vector<QueryPair>& pairs);

  // Same batch against a caller-pinned snapshot: scenario code that must
  // attribute its whole report to one epoch pins once and serves everything
  // — batch answers included — from that pin.
  std::vector<Weight> query_batch_on(const SnapshotPtr& snap,
                                     const std::vector<QueryPair>& pairs);

  // Rebuilds the tree for `g` on the calling thread and atomically swaps the
  // next epoch in. Readers keep answering on the old snapshot throughout; on
  // RetriesExhaustedError the old snapshot simply remains current.
  void update_graph(WGraph g);

  // Replaces the rebuild-path fault plan / retry budget for subsequent
  // builds (chaos tests flip injection on and off around update_graph).
  void set_fault(const ampc::FaultPlan& fault, const ampc::RetryPolicy& retry);

  [[nodiscard]] ServeStats stats() const;

  // Arena for AMPC runs driven off this server's snapshots (scenarios.h):
  // leased runtimes and their table pools stay warm across rebuilds.
  [[nodiscard]] ampc::RuntimeArena& arena() { return arena_; }

 private:
  // One full build attempt cycle under the retry policy; returns the
  // ready-to-publish snapshot for `epoch`.
  SnapshotPtr build_snapshot(const WGraph& g, std::uint64_t epoch);

  CutServerOptions opt_;
  ThreadPool* pool_;  // resolved: opt_.pool or the shared pool
  ampc::RuntimeArena arena_;

  SnapshotCell current_;
  std::mutex rebuild_mu_;  // serializes update_graph + set_fault
  WGraph graph_;           // latest accepted graph, guarded by rebuild_mu_
  std::uint64_t epoch_ = 0;  // last published epoch, guarded by rebuild_mu_

  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> batch_queries_{0};
  std::atomic<std::uint64_t> rebuilds_{0};
  std::atomic<std::uint64_t> snapshots_published_{0};
  std::atomic<std::uint64_t> build_retries_{0};
};

}  // namespace ampccut::serve
