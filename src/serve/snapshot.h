// Immutable cut snapshot: one Gomory–Hu tree plus the query-side indexes,
// published by CutServer behind a SnapshotCell — an atomic shared_ptr in
// spirit; see the cell's comment below (DESIGN.md "Cut-query serving
// tier").
//
// A Snapshot is frozen at construction — every member is const after the
// constructor returns, so any number of reader threads may query one
// concurrently with no synchronization while the server builds and swaps in
// its successor. The epoch is the publication counter that makes answers
// attributable: a reader that pins a snapshot can state "answer X as of
// epoch E" even while newer epochs are being served.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "exact/stoer_wagner.h"
#include "flow/gomory_hu.h"
#include "graph/graph.h"

namespace ampccut {
class ThreadPool;
}

namespace ampccut::serve {

// Build provenance riding on every snapshot.
struct SnapshotStats {
  VertexId n = 0;
  std::uint64_t m = 0;                  // edges of the ORIGINAL graph
  std::uint64_t flow_edges = 0;         // edges the Gusfield flows ran on
  std::uint64_t merged_parallel = 0;    // kernel front-end parallel merges
  bool kernelized = false;              // the merge pass actually ran
  std::uint32_t components = 1;
};

class Snapshot {
 public:
  // `tree` must be a Gomory–Hu tree of `graph` (serve builds it; tests may
  // construct snapshots directly). `pool` (nullable, non-owning) feeds the
  // psort inside k_cut(); it never affects results.
  Snapshot(WGraph graph, GomoryHuTree tree, std::uint64_t epoch,
           SnapshotStats stats, ThreadPool* pool);

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] VertexId n() const { return graph_.n; }
  [[nodiscard]] const WGraph& graph() const { return graph_; }
  [[nodiscard]] const GomoryHuTree& tree() const { return tree_; }
  [[nodiscard]] const SnapshotStats& stats() const { return stats_; }

  // s-t min cut in O(tree path) with zero allocation: both endpoints climb
  // toward the root by stored depth, folding the path minimum. Throws
  // InvalidQueryError on out-of-range endpoints or s == t.
  [[nodiscard]] Weight query(VertexId s, VertexId t) const;

  // The global min cut off the tree: its lightest edge (ties broken by the
  // smaller child id, so the result is deterministic), one side being that
  // child's subtree. n < 2 yields {kInfiniteWeight, {}} like stoer_wagner.
  [[nodiscard]] MinCutResult global_min_cut() const;

  // (2 - 2/k)-approximate k-cut from the published tree — no flows at query
  // time (flow/gomory_hu.h, gomory_hu_k_cut_from_tree).
  [[nodiscard]] GHKCut k_cut(std::uint32_t k) const;

 private:
  WGraph graph_;
  GomoryHuTree tree_;
  std::uint64_t epoch_;
  SnapshotStats stats_;
  ThreadPool* pool_;

  std::vector<VertexId> depth_;  // root has depth 0
  // Lightest tree edge as its child endpoint (ties -> smallest id);
  // kInvalidVertex when the tree has no edges (n < 2).
  VertexId min_cut_child_ = kInvalidVertex;
  // Children CSR of the tree, for subtree extraction in global_min_cut().
  std::vector<std::uint32_t> child_offset_;
  std::vector<VertexId> child_;
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

// Publication cell for the current snapshot — semantically a
// std::atomic<std::shared_ptr<const Snapshot>>, which libstdc++ itself
// implements as a spinlocked pointer. We spell out the spinlock because
// GCC 12's _Sp_atomic unlocks its load() path with a relaxed fetch_sub,
// leaving no release edge from a reader's pointer read to the next
// writer's lock; ThreadSanitizer flags the plain _M_ptr access pair
// (rightly, per the letter of the memory model), and this repo's TSan CI
// runs with halt_on_error=1. The critical section here is two pointer
// copies plus a refcount bump; the retired snapshot is released outside
// the lock so tree destruction never stalls readers.
class SnapshotCell {
 public:
  SnapshotCell() = default;
  SnapshotCell(const SnapshotCell&) = delete;
  SnapshotCell& operator=(const SnapshotCell&) = delete;

  [[nodiscard]] SnapshotPtr load() const {
    lock();
    SnapshotPtr out = ptr_;
    unlock();
    return out;
  }

  void store(SnapshotPtr next) {
    lock();
    ptr_.swap(next);
    unlock();
    // `next` now holds the retired snapshot; it drops out of scope (and
    // possibly destroys the old tree) after the lock is released.
  }

 private:
  void lock() const {
    while (locked_.test_and_set(std::memory_order_acquire)) {
      while (locked_.test(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() const { locked_.clear(std::memory_order_release); }

  mutable std::atomic_flag locked_;  // C++20: default-initialized clear
  SnapshotPtr ptr_;
};

}  // namespace ampccut::serve
