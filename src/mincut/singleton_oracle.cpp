#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "graph/union_find.h"
#include "mincut/singleton.h"
#include "support/check.h"
#include "support/psort.h"

namespace ampccut {

std::vector<std::uint8_t> reconstruct_bag(const WGraph& g,
                                          const ContractionOrder& order,
                                          VertexId rep, TimeStep t) {
  REPRO_CHECK(rep < g.n);
  UnionFind uf(g.n);
  const auto tree = msf_edges_by_time(g, order);
  for (const EdgeId e : tree) {
    if (order.time[e] <= t) uf.unite(g.edges[e].u, g.edges[e].v);
  }
  std::vector<std::uint8_t> bag(g.n, 0);
  const VertexId root = uf.find(rep);
  for (VertexId v = 0; v < g.n; ++v) bag[v] = (uf.find(v) == root) ? 1 : 0;
  return bag;
}

SingletonCutResult min_singleton_cut_oracle(const WGraph& g,
                                            const ContractionOrder& order) {
  REPRO_CHECK(g.n >= 1);
  REPRO_CHECK(order.time.size() == g.edges.size());

  // Final component size per vertex, to recognize complete bags.
  std::vector<VertexId> comp_size(g.n, 0);
  {
    UnionFind all(g.n);
    for (const auto& e : g.edges) all.unite(e.u, e.v);
    for (VertexId v = 0; v < g.n; ++v) {
      comp_size[v] = static_cast<VertexId>(
          all.component_size(all.find(v)));
    }
  }

  // Per-component boundary-edge id sets, merged smaller-into-larger (by set
  // size); cutw tracks the exact weighted boundary. With 32-bit edge ids a
  // boundary sum stays below 2^96, so it never wraps in 128 bits, even
  // through kInfiniteWeight edges, and the subtraction below is exact.
  std::vector<std::unordered_set<EdgeId>> boundary(g.n);
  std::vector<unsigned __int128> cutw(g.n, 0);
  for (EdgeId e = 0; e < g.edges.size(); ++e) {
    boundary[g.edges[e].u].insert(e);
    boundary[g.edges[e].v].insert(e);
    cutw[g.edges[e].u] += g.edges[e].w;
    cutw[g.edges[e].v] += g.edges[e].w;
  }

  SingletonCutResult best;
  UnionFind uf(g.n);
  std::vector<VertexId> size(g.n, 1);
  auto consider = [&](VertexId root, TimeStep t) {
    if (size[root] >= comp_size[root]) return;  // complete bag: not a cut
    const Weight w = cutw[root] >= kInfiniteWeight
                         ? kInfiniteWeight
                         : static_cast<Weight>(cutw[root]);
    if (w < best.weight) {
      best.weight = w;
      best.rep = root;
      best.time = t;
    }
  };
  for (VertexId v = 0; v < g.n; ++v) consider(v, 0);

  std::vector<EdgeId> idx;
  if (order.perm.size() != order.time.size()) {
    // Hand-built order without a permutation: sort once, as before. Stable
    // + ascending ids = deterministic (time, id) even when a hand-built
    // order reuses a time.
    idx.resize(g.edges.size());
    std::iota(idx.begin(), idx.end(), 0);
    psort::stable_sort_keys(&ThreadPool::shared(), idx,
                            // repro-lint: allow(comparator-tiebreak) stable
                            // sort + ascending idx give the (time, id) order
                            [&](EdgeId a, EdgeId b) {
                              return order.time[a] < order.time[b];
                            });
  }
  for (const EdgeId e : idx.empty() ? order.perm : idx) {
    VertexId a = uf.find(g.edges[e].u);
    VertexId b = uf.find(g.edges[e].v);
    if (a == b) continue;
    if (boundary[a].size() > boundary[b].size()) std::swap(a, b);
    // Move a's boundary into b: edges connecting a and b become internal.
    // repro-lint: allow(iteration-order) each edge id toggles its own
    // membership in boundary[b] exactly once; distinct ids commute
    for (const EdgeId be : boundary[a]) {
      auto it = boundary[b].find(be);
      if (it != boundary[b].end()) {
        boundary[b].erase(it);
        cutw[b] -= g.edges[be].w;
      } else {
        boundary[b].insert(be);
        cutw[b] += g.edges[be].w;
      }
    }
    boundary[a].clear();
    const VertexId merged_size = size[a] + size[b];
    uf.unite(a, b);
    const VertexId root = uf.find(a);
    // Re-home the merged state onto the union-find root.
    if (root != b) {
      boundary[root] = std::move(boundary[b]);
      cutw[root] = cutw[b];
    }
    size[root] = merged_size;
    consider(root, order.time[e]);
  }
  return best;
}

}  // namespace ampccut
