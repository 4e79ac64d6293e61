#include "mincut/contraction.h"

#include <algorithm>
#include <numeric>

#include "support/check.h"
#include "support/psort.h"
#include "support/rng.h"

namespace ampccut {

ContractionOrder make_contraction_order(const WGraph& g, std::uint64_t seed,
                                        ThreadPool* pool) {
  Rng rng(seed);
  const std::size_t m = g.edges.size();
  std::vector<double> clock(m);
  for (std::size_t i = 0; i < m; ++i) {
    clock[i] = rng.next_exponential(static_cast<double>(g.edges[i].w));
  }
  std::vector<EdgeId> idx(m);
  std::iota(idx.begin(), idx.end(), 0);
  // Rank by (clock, id): clocks are continuous so ties are measure-zero, but
  // the id tie-break is guaranteed anyway — the sort is stable and idx starts
  // ascending, so equal clocks keep id order at every thread count.
  // repro-lint: allow(comparator-tiebreak) stable sort over the ascending
  // idx vector supplies the (clock, id) tie-break
  psort::stable_sort_keys(pool, idx.data(), m, [&](EdgeId a, EdgeId b) {
    return clock[a] < clock[b];
  });
  ContractionOrder order;
  order.time.assign(m, 0);
  for (std::size_t r = 0; r < m; ++r) {
    order.time[idx[r]] = static_cast<TimeStep>(r + 1);
  }
  order.perm = std::move(idx);  // the sort's output IS the time order
  return order;
}

namespace {

// Minimal union-find over caller-provided arrays (union by size, path
// halving — identical policy to graph/union_find.h so partitions, and hence
// contracted graphs, match the historical output exactly).
struct FlatUnionFind {
  VertexId* parent;
  VertexId* size;

  VertexId find(VertexId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }

  bool unite(VertexId a, VertexId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size[a] < size[b]) std::swap(a, b);
    parent[b] = a;
    size[a] += size[b];
    return true;
  }
};

}  // namespace

std::vector<EdgeId> msf_edges_by_time(const WGraph& g,
                                      const ContractionOrder& order) {
  REPRO_CHECK(order.time.size() == g.edges.size());
  const EdgeId* scan;
  std::vector<EdgeId> idx;
  if (order.perm.size() == order.time.size()) {
    scan = order.perm.data();  // already time-sorted: no second sort
  } else {
    idx.resize(g.edges.size());
    std::iota(idx.begin(), idx.end(), 0);
    // Stable + ascending ids = deterministic (time, id) even when a
    // hand-built order reuses a time.
    psort::stable_sort_keys(&ThreadPool::shared(), idx,
                            // repro-lint: allow(comparator-tiebreak) stable
                            // sort + ascending idx give the (time, id) order
                            [&](EdgeId a, EdgeId b) {
                              return order.time[a] < order.time[b];
                            });
    scan = idx.data();
  }
  std::vector<VertexId> parent(g.n), size(g.n, 1);
  std::iota(parent.begin(), parent.end(), 0);
  FlatUnionFind uf{parent.data(), size.data()};
  std::vector<EdgeId> tree;
  tree.reserve(g.n > 0 ? g.n - 1 : 0);
  for (std::size_t r = 0; r < g.edges.size(); ++r) {
    const EdgeId e = scan[r];
    if (uf.unite(g.edges[e].u, g.edges[e].v)) tree.push_back(e);
  }
  return tree;
}

ContractedGraph contract_to_size(const WGraph& g, const ContractionOrder& order,
                                 VertexId target, ContractionScratch* scratch) {
  REPRO_CHECK(target >= 1);
  REPRO_CHECK(order.time.size() == g.edges.size());
  ContractionScratch local;
  ContractionScratch& s = scratch != nullptr ? *scratch : local;

  s.uf_parent.resize(g.n);
  s.uf_size.assign(g.n, 1);
  std::iota(s.uf_parent.begin(), s.uf_parent.end(), 0);
  FlatUnionFind uf{s.uf_parent.data(), s.uf_size.data()};

  if (g.n > target) {
    // Run the process directly: the successful unions in time order are
    // exactly the MSF edges, so stopping after n - target of them yields the
    // same partition as materializing the forest first.
    VertexId remaining = g.n;
    if (order.perm.size() == order.time.size()) {
      for (const EdgeId e : order.perm) {
        if (uf.unite(g.edges[e].u, g.edges[e].v) && --remaining == target) {
          break;
        }
      }
    } else {
      for (const EdgeId e : msf_edges_by_time(g, order)) {
        if (uf.unite(g.edges[e].u, g.edges[e].v) && --remaining == target) {
          break;
        }
      }
    }
  }

  ContractedGraph out;
  out.origin.assign(g.n, kInvalidVertex);
  VertexId next = 0;
  for (VertexId v = 0; v < g.n; ++v) {
    const VertexId r = uf.find(v);
    if (out.origin[r] == kInvalidVertex) out.origin[r] = next++;
  }
  for (VertexId v = 0; v < g.n; ++v) out.origin[v] = out.origin[uf.find(v)];
  out.g.n = next;

  // Merge parallel edges by canonical endpoint pair. Two stable counting
  // passes (by v, then by u) leave the survivors in ascending (u, v) order —
  // the same order the old comparison sort produced — and the duplicate-run
  // summation is order-independent, so the output graph is bit-identical.
  s.edges_a.clear();
  for (const auto& e : g.edges) {
    VertexId a = out.origin[e.u];
    VertexId b = out.origin[e.v];
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    s.edges_a.push_back({a, b, e.w});
  }
  const std::size_t m = s.edges_a.size();
  s.edges_b.resize(m);
  for (const bool by_u : {false, true}) {
    s.counts.assign(next + 1, 0);
    for (const auto& e : s.edges_a) ++s.counts[(by_u ? e.u : e.v) + 1];
    for (VertexId k = 0; k < next; ++k) s.counts[k + 1] += s.counts[k];
    for (const auto& e : s.edges_a) {
      s.edges_b[s.counts[by_u ? e.u : e.v]++] = e;
    }
    s.edges_a.swap(s.edges_b);
  }
  out.g.edges.reserve(m);
  for (const auto& e : s.edges_a) {
    if (!out.g.edges.empty() && out.g.edges.back().u == e.u &&
        out.g.edges.back().v == e.v) {
      out.g.edges.back().w = sat_add(out.g.edges.back().w, e.w);
    } else {
      out.g.edges.push_back(e);
    }
  }
  return out;
}

}  // namespace ampccut
