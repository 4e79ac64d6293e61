#include "tree/hld.h"

#include <numeric>

#include "support/check.h"

namespace ampccut {

RootedTree build_rooted_tree(VertexId n, const std::vector<WEdge>& edges,
                             const std::vector<TimeStep>& times,
                             VertexId root) {
  REPRO_CHECK(n >= 1 && root < n);
  REPRO_CHECK_MSG(edges.size() + 1 == n, "tree must have exactly n-1 edges");
  REPRO_CHECK(times.size() == edges.size());

  // CSR adjacency of the tree.
  std::vector<std::uint32_t> off(n + 1, 0);
  for (const auto& e : edges) {
    ++off[e.u + 1];
    ++off[e.v + 1];
  }
  std::partial_sum(off.begin(), off.end(), off.begin());
  std::vector<std::pair<VertexId, TimeStep>> adj(2 * edges.size());
  {
    std::vector<std::uint32_t> fill(off.begin(), off.end() - 1);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      adj[fill[edges[i].u]++] = {edges[i].v, times[i]};
      adj[fill[edges[i].v]++] = {edges[i].u, times[i]};
    }
  }

  RootedTree t;
  t.n = n;
  t.root = root;
  t.parent.assign(n, kInvalidVertex);
  t.parent_time.assign(n, 0);
  t.depth.assign(n, 0);
  t.subtree.assign(n, 1);
  t.heavy.assign(n, kInvalidVertex);
  t.order.clear();
  t.order.reserve(n);

  // BFS to assign parents/depths.
  std::vector<std::uint8_t> seen(n, 0);
  t.order.push_back(root);
  seen[root] = 1;
  for (std::size_t i = 0; i < t.order.size(); ++i) {
    const VertexId v = t.order[i];
    for (std::uint32_t a = off[v]; a < off[v + 1]; ++a) {
      const auto [to, tm] = adj[a];
      if (seen[to]) continue;
      seen[to] = 1;
      t.parent[to] = v;
      t.parent_time[to] = tm;
      t.depth[to] = t.depth[v] + 1;
      t.order.push_back(to);
    }
  }
  REPRO_CHECK_MSG(t.order.size() == n, "edge list does not span the tree");

  // Subtree sizes bottom-up, then heavy children (largest subtree; ties go to
  // the smaller vertex id for determinism).
  for (std::size_t i = n; i-- > 1;) {
    const VertexId v = t.order[i];
    t.subtree[t.parent[v]] += t.subtree[v];
  }
  for (std::size_t i = n; i-- > 1;) {
    const VertexId v = t.order[i];
    const VertexId p = t.parent[v];
    const VertexId h = t.heavy[p];
    if (h == kInvalidVertex || t.subtree[v] > t.subtree[h] ||
        (t.subtree[v] == t.subtree[h] && v < h)) {
      t.heavy[p] = v;
    }
  }
  return t;
}

HeavyLight build_heavy_light(const RootedTree& t) {
  HeavyLight hl;
  hl.path_id.assign(t.n, 0);
  hl.pos_in_path.assign(t.n, 0);
  // A vertex heads a heavy path iff it is the root or a light child.
  for (const VertexId v : t.order) {
    const bool is_head =
        t.is_root(v) || t.heavy[t.parent[v]] != v;
    if (!is_head) continue;
    const auto id = static_cast<std::uint32_t>(hl.paths.size());
    hl.paths.emplace_back();
    VertexId cur = v;
    while (cur != kInvalidVertex) {
      hl.path_id[cur] = id;
      hl.pos_in_path[cur] = static_cast<std::uint32_t>(hl.paths[id].size());
      hl.paths[id].push_back(cur);
      cur = t.heavy[cur];
    }
  }
  return hl;
}

}  // namespace ampccut
