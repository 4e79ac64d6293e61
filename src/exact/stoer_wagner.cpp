#include "exact/stoer_wagner.h"

#include <algorithm>

#include "support/check.h"

namespace ampccut {

MinCutResult stoer_wagner_min_cut(const WGraph& g) {
  REPRO_CHECK_MSG(g.n >= 2, "min cut needs at least two vertices");
  const std::size_t n = g.n;
  // Dense weight matrix; parallel edges merge by (saturating) summation.
  std::vector<std::vector<Weight>> w(n, std::vector<Weight>(n, 0));
  for (const auto& e : g.edges) {
    w[e.u][e.v] = sat_add(w[e.u][e.v], e.w);
    w[e.v][e.u] = sat_add(w[e.v][e.u], e.w);
  }

  // merged[v] = original vertices currently fused into supervertex v.
  std::vector<std::vector<VertexId>> merged(n);
  for (std::size_t v = 0; v < n; ++v) merged[v] = {static_cast<VertexId>(v)};

  std::vector<std::uint8_t> active(n, 1);
  std::size_t active_count = n;

  MinCutResult best;
  best.side.assign(n, 0);

  std::vector<Weight> conn(n);     // connectivity to the growing set A
  std::vector<std::uint8_t> in_a(n);

  while (active_count > 1) {
    // Maximum-adjacency search from an arbitrary active start vertex.
    std::fill(conn.begin(), conn.end(), 0);
    std::fill(in_a.begin(), in_a.end(), 0);
    VertexId prev = kInvalidVertex;
    VertexId last = kInvalidVertex;
    Weight last_conn = 0;
    for (std::size_t step = 0; step < active_count; ++step) {
      VertexId pick = kInvalidVertex;
      Weight pick_conn = 0;
      for (std::size_t v = 0; v < n; ++v) {
        if (!active[v] || in_a[v]) continue;
        if (pick == kInvalidVertex || conn[v] > pick_conn) {
          pick = static_cast<VertexId>(v);
          pick_conn = conn[v];
        }
      }
      in_a[pick] = 1;
      prev = last;
      last = pick;
      last_conn = pick_conn;
      for (std::size_t v = 0; v < n; ++v) {
        if (active[v] && !in_a[v]) conn[v] = sat_add(conn[v], w[pick][v]);
      }
    }
    // Cut-of-the-phase: the last added supervertex vs the rest.
    if (last_conn < best.weight) {
      best.weight = last_conn;
      std::fill(best.side.begin(), best.side.end(), 0);
      for (VertexId orig : merged[last]) best.side[orig] = 1;
    }
    // Merge `last` into `prev`.
    REPRO_CHECK(prev != kInvalidVertex);
    active[last] = 0;
    --active_count;
    for (std::size_t v = 0; v < n; ++v) {
      if (!active[v] || v == prev) continue;
      w[prev][v] = sat_add(w[prev][v], w[last][v]);
      w[v][prev] = w[prev][v];
    }
    merged[prev].insert(merged[prev].end(), merged[last].begin(),
                        merged[last].end());
  }
  return best;
}

}  // namespace ampccut
