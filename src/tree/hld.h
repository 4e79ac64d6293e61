// Rooted trees and heavy-light decomposition (Sleator–Tarjan heavy edges,
// Definition 2 of the paper), plus a path-maximum structure over edge times.
//
// The paper's Section 4 queries, for arbitrary tree pairs (u, v), the maximum
// contraction time on the tree path between them (its `mw`, see DESIGN.md
// deviation #3): a vertex x joins the bag of v exactly when the *last* edge
// on the v..x path contracts. HLD + per-position sparse table answers that in
// O(log n) segment maxima, which is the sequential mirror of the paper's
// Theorem 4 (HLD + RMQ on heavy paths in AMPC).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ampccut {

// A rooted tree over vertices 0..n-1 built from an explicit edge list with
// per-edge weights ("times"). Iterative construction, no recursion limits.
struct RootedTree {
  VertexId n = 0;
  VertexId root = 0;
  std::vector<VertexId> parent;       // parent[root] == kInvalidVertex
  std::vector<TimeStep> parent_time;  // time of edge to parent (0 for root)
  std::vector<std::uint32_t> depth;   // root has depth 0
  std::vector<std::uint32_t> subtree; // subtree sizes (incl. self)
  std::vector<VertexId> heavy;        // heavy child (kInvalidVertex at leaves)
  std::vector<VertexId> order;        // BFS order from the root

  [[nodiscard]] bool is_root(VertexId v) const { return v == root; }
};

// Builds a rooted tree from `edges` (must form a spanning tree of the n
// vertices — connected, n-1 edges). Ties in subtree size break toward the
// smaller vertex id so the decomposition is deterministic.
RootedTree build_rooted_tree(VertexId n,
                             const std::vector<WEdge>& edges,
                             const std::vector<TimeStep>& times,
                             VertexId root);

// Heavy-light decomposition: every vertex lies on exactly one heavy path
// (Observation 2). Paths are stored top-down (head first).
struct HeavyLight {
  std::vector<std::uint32_t> path_id;      // heavy path containing v
  std::vector<std::uint32_t> pos_in_path;  // 0 == head (topmost vertex)
  std::vector<std::vector<VertexId>> paths;  // path_id -> ordered vertices

  [[nodiscard]] std::uint32_t num_paths() const {
    return static_cast<std::uint32_t>(paths.size());
  }
  [[nodiscard]] std::uint32_t path_len(VertexId v) const {
    return static_cast<std::uint32_t>(paths[path_id[v]].size());
  }
  [[nodiscard]] VertexId head(VertexId v) const {
    return paths[path_id[v]].front();
  }
};

HeavyLight build_heavy_light(const RootedTree& t);

// Max contraction time on tree paths, O(log n) per query after O(n log n)
// preprocessing. pathmax(u, u) == 0 by convention (empty path).
//
// The structure is flattened for query speed: per-vertex
// head/depth/parent-hop arrays replace the pointer-chasing
// through RootedTree/HeavyLight, and the sparse table is one contiguous
// buffer indexed by per-level offsets.
class PathMax {
 public:
  PathMax() = default;
  PathMax(const RootedTree& t, const HeavyLight& hl);

  [[nodiscard]] TimeStep query(VertexId u, VertexId v) const;

 private:
  [[nodiscard]] TimeStep range_max(std::uint32_t lo, std::uint32_t hi) const;

  // Global position of v = path_offset[path_id[v]] + pos_in_path[v]; the base
  // array (sparse level 0) holds parent-edge times so a path segment is a
  // contiguous range.
  std::vector<std::uint32_t> gpos_;
  std::vector<VertexId> head_;          // head vertex of v's heavy path
  std::vector<std::uint32_t> depth_;    // tree depth of v
  std::vector<std::uint32_t> head_depth_;   // depth of head_[v]
  std::vector<VertexId> head_parent_;   // parent of head_[v] (next hop)
  std::vector<TimeStep> head_ptime_;    // parent-edge time of head_[v]
  std::vector<TimeStep> sparse_;        // level k at [level_off_[k], ...)
  std::vector<std::uint32_t> level_off_;
};

}  // namespace ampccut
