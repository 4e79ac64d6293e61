#include "exact/stoer_wagner.h"

#include <algorithm>
#include <numeric>

#include "support/check.h"

namespace ampccut {

MinCutResult stoer_wagner_min_cut(const WGraph& g) {
  REPRO_CHECK_MSG(g.n >= 2, "min cut needs at least two vertices");
  const std::size_t n = g.n;
  // Flat, symmetric weight matrix; parallel edges merge by (saturating)
  // summation. Self-loops never cross a cut and are dropped.
  std::vector<Weight> w(n * n, 0);
  for (const auto& e : g.edges) {
    // With the flat layout a bad endpoint would write into another row.
    REPRO_CHECK_MSG(e.u < n && e.v < n, "edge endpoint out of range");
    if (e.u == e.v) continue;
    Weight& uv = w[e.u * n + e.v];
    uv = sat_add(uv, e.w);
    w[e.v * n + e.u] = uv;
  }

  // Active supervertices in ascending id order. A supervertex keeps the id
  // of the vertex the merges folded into; its original vertices form a
  // linked list from that id through next_member, ending at tail[id].
  std::vector<VertexId> active(n);
  std::iota(active.begin(), active.end(), VertexId{0});
  std::vector<VertexId> next_member(n, kInvalidVertex);
  std::vector<VertexId> tail(n);
  std::iota(tail.begin(), tail.end(), VertexId{0});

  MinCutResult best;
  best.side.assign(n, 0);

  // Candidates of a phase (active, not yet in A), in ascending id order, and
  // their connectivity to A. A pick leaves the list, so every pick and every
  // connectivity update scans only the vertices that remain.
  std::vector<VertexId> cand(n);
  std::vector<Weight> conn(n);

  while (active.size() > 1) {
    // Maximum-adjacency search from the lowest active id.
    std::size_t left = active.size() - 1;
    std::copy(active.begin() + 1, active.end(), cand.begin());
    std::fill_n(conn.begin(), left, Weight{0});
    VertexId prev = kInvalidVertex;
    VertexId last = active.front();
    Weight last_conn = 0;
    while (left > 0) {
      // Fold the newest member of A into the candidates, then pick the
      // maximum connectivity (the first, i.e. lowest id, on ties).
      const Weight* row = w.data() + last * n;
      std::size_t pick = 0;
      for (std::size_t i = 0; i < left; ++i) {
        conn[i] = sat_add(conn[i], row[cand[i]]);
        if (conn[i] > conn[pick]) pick = i;
      }
      prev = last;
      last = cand[pick];
      last_conn = conn[pick];
      std::copy(cand.begin() + pick + 1, cand.begin() + left,
                cand.begin() + pick);
      std::copy(conn.begin() + pick + 1, conn.begin() + left,
                conn.begin() + pick);
      --left;
    }
    // Cut-of-the-phase: the last added supervertex vs the rest.
    if (last_conn < best.weight) {
      best.weight = last_conn;
      std::fill(best.side.begin(), best.side.end(), 0);
      for (VertexId v = last; v != kInvalidVertex; v = next_member[v]) {
        best.side[v] = 1;
      }
    }
    // Merge `last` into `prev`.
    active.erase(std::lower_bound(active.begin(), active.end(), last));
    Weight* prev_row = w.data() + prev * n;
    const Weight* last_row = w.data() + last * n;
    for (const VertexId v : active) {
      if (v == prev) continue;
      prev_row[v] = sat_add(prev_row[v], last_row[v]);
      w[v * n + prev] = prev_row[v];
    }
    next_member[tail[prev]] = last;
    tail[prev] = tail[last];
  }
  return best;
}

}  // namespace ampccut
