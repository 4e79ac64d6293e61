#include "graph/graph.h"

#include <numeric>

#include "graph/union_find.h"

namespace ampccut {

std::vector<Weight> WGraph::weighted_degrees() const {
  std::vector<Weight> deg(n, 0);
  for (const auto& e : edges) {
    deg[e.u] = sat_add(deg[e.u], e.w);
    deg[e.v] = sat_add(deg[e.v], e.w);
  }
  return deg;
}

void WGraph::validate() const {
  for (const auto& e : edges) {
    REPRO_CHECK_MSG(e.u < n && e.v < n, "edge endpoint out of range");
    REPRO_CHECK_MSG(e.u != e.v, "self-loop present");
  }
}

Adjacency::Adjacency(const WGraph& g) {
  offsets_.assign(static_cast<std::size_t>(g.n) + 1, 0);
  for (const auto& e : g.edges) {
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  arcs_.resize(2 * g.edges.size());
  std::vector<std::size_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId i = 0; i < g.edges.size(); ++i) {
    const auto& e = g.edges[i];
    arcs_[fill[e.u]++] = {e.v, e.w, i};
    arcs_[fill[e.v]++] = {e.u, e.w, i};
  }
}

std::vector<VertexId> component_labels(const WGraph& g) {
  UnionFind uf(g.n);
  for (const auto& e : g.edges) uf.unite(e.u, e.v);
  // Relabel roots to the minimum vertex id in each component.
  std::vector<VertexId> label(g.n, kInvalidVertex);
  for (VertexId v = 0; v < g.n; ++v) {
    const VertexId r = uf.find(v);
    if (label[r] == kInvalidVertex) label[r] = v;  // v ascending => min id
  }
  std::vector<VertexId> out(g.n);
  for (VertexId v = 0; v < g.n; ++v) out[v] = label[uf.find(v)];
  return out;
}

VertexId count_components(const WGraph& g) {
  UnionFind uf(g.n);
  for (const auto& e : g.edges) uf.unite(e.u, e.v);
  return static_cast<VertexId>(uf.num_components());
}

bool is_connected(const WGraph& g) {
  if (g.n == 0) return true;
  return count_components(g) == 1;
}

Weight cut_weight(const WGraph& g, const std::vector<std::uint8_t>& side) {
  REPRO_CHECK(side.size() == g.n);
  // Saturating: cuts through kInfiniteWeight edges clamp at the ceiling
  // instead of wrapping (graph/types.h), matching Dinic's flow accounting.
  Weight total = 0;
  for (const auto& e : g.edges) {
    if (side[e.u] != side[e.v]) total = sat_add(total, e.w);
  }
  return total;
}

}  // namespace ampccut
