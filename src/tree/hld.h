// Rooted trees and heavy-light decomposition (Sleator–Tarjan heavy edges,
// Definition 2 of the paper). The low-depth decomposition (tree/low_depth.h)
// is built on the heavy paths.
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

}  // namespace ampccut
