// Weighted undirected multigraph and its CSR adjacency view.
//
// WGraph is the canonical interchange format: a vertex count plus an edge
// list. Parallel edges and isolated vertices are allowed (contractions create
// both); self-loops are not stored (contraction drops them). Adjacency is a
// separately built CSR snapshot so the edge list stays the source of truth.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/types.h"
#include "support/check.h"

namespace ampccut {

struct WEdge {
  VertexId u = 0;
  VertexId v = 0;
  Weight w = 1;

  friend bool operator==(const WEdge&, const WEdge&) = default;
};

struct WGraph {
  VertexId n = 0;
  std::vector<WEdge> edges;

  [[nodiscard]] std::size_t m() const { return edges.size(); }

  void add_edge(VertexId u, VertexId v, Weight w = 1) {
    REPRO_CHECK_MSG(u < n && v < n, "edge endpoint out of range");
    REPRO_CHECK_MSG(u != v, "self-loops are not representable");
    edges.push_back({u, v, w});
  }

  // Sum of weights of edges incident to each vertex (the t=0 singleton cuts).
  [[nodiscard]] std::vector<Weight> weighted_degrees() const;

  // Structural validation (ranges, no loops). Throws on violation.
  void validate() const;
};

// Half-edge CSR adjacency: for vertex v, neighbors(v) yields {to, w, edge id}.
class Adjacency {
 public:
  struct Arc {
    VertexId to;
    Weight w;
    EdgeId edge;
  };

  Adjacency() = default;
  explicit Adjacency(const WGraph& g);

  [[nodiscard]] std::span<const Arc> neighbors(VertexId v) const {
    REPRO_DCHECK(v + 1 < offsets_.size());
    return {arcs_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  [[nodiscard]] VertexId n() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }

  [[nodiscard]] std::size_t degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<Arc> arcs_;
};

// Number of connected components (sequential reference).
VertexId count_components(const WGraph& g);

// Component label per vertex (labels are the smallest vertex id in the
// component, so they are stable and comparable across calls).
std::vector<VertexId> component_labels(const WGraph& g);

bool is_connected(const WGraph& g);

// The weight of the cut induced by `side` (side[v] in {0,1}). Both sides must
// be non-empty to be a valid cut; this only sums crossing weights.
Weight cut_weight(const WGraph& g, const std::vector<std::uint8_t>& side);

}  // namespace ampccut
