#include "ampc_algo/msf.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ampc_algo/list_ranking.h"
#include "support/check.h"
#include "support/psort.h"

namespace ampccut::ampc {

std::vector<EdgeId> ampc_msf_boruvka(Runtime& rt, const WGraph& g,
                                     const ContractionOrder& order) {
  REPRO_CHECK(order.time.size() == g.edges.size());
  const VertexId n = g.n;
  std::vector<VertexId> comp(n);
  std::iota(comp.begin(), comp.end(), 0);
  std::vector<std::uint8_t> in_forest(g.edges.size(), 0);
  const Adjacency adj(g);

  VertexId num_comps = n;
  for (;;) {
    // Phase round 1: every vertex proposes its component's cheapest incident
    // edge leaving the component (min by contraction time). Tables are
    // leased so each Boruvka phase reuses the previous phase's storage.
    auto t_comp = rt.lease_dense<std::uint64_t>("msf.comp", n);
    for (VertexId v = 0; v < n; ++v) t_comp->seed(v, comp[v]);
    auto t_min_edge =
        rt.lease_dense<std::uint64_t>("msf.minedge", n, kNoNext, Merge::kMin);
    rt.round_over_items("msf.propose", n,
                        [&](MachineContext& ctx, std::uint64_t v) {
      const std::uint64_t cv = t_comp->get(ctx, v);
      ctx.count_read(adj.degree(static_cast<VertexId>(v)));
      std::uint64_t best = kNoNext;
      for (const auto& arc : adj.neighbors(static_cast<VertexId>(v))) {
        if (t_comp->get(ctx, arc.to) == cv) continue;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(order.time[arc.edge]) << 32) | arc.edge;
        best = std::min(best, key);
      }
      if (best != kNoNext) t_min_edge->put(cv, best);
    });

    // Phase round 2: contract along the hook pointers. With unique times the
    // hook graph is a functional pseudoforest whose only cycles are 2-cycles
    // sharing one edge; each walk follows hooks (times strictly decrease
    // along a chain) and roots itself at the smaller label of its 2-cycle.
    // Walks may exceed the per-machine budget on adversarial chains — the
    // runtime records the violation; [4]'s full algorithm avoids it.
    auto t_hook = rt.lease_dense<std::uint64_t>("msf.hook", n, kNoNext);
    bool hooked = false;
    for (VertexId c = 0; c < n; ++c) {
      const std::uint64_t key = t_min_edge->raw(c);
      if (key == kNoNext) continue;  // no proposal for component c
      hooked = true;
      const EdgeId e = static_cast<EdgeId>(key & 0xffffffffull);
      if (!in_forest[e]) in_forest[e] = 1;
      const VertexId cu = comp[g.edges[e].u];
      const VertexId cv2 = comp[g.edges[e].v];
      const VertexId other = (cu == c) ? cv2 : cu;
      t_hook->seed(c, other);
    }
    if (!hooked) break;  // spanning forest complete
    auto t_new = rt.lease_dense<std::uint64_t>("msf.newlabel", n);
    rt.round_over_items("msf.contract", n,
                        [&](MachineContext& ctx, std::uint64_t v) {
      std::uint64_t cur = t_comp->get(ctx, v);
      for (std::uint64_t hops = 0; hops <= n; ++hops) {
        const std::uint64_t h = t_hook->get(ctx, cur);
        if (h == kNoNext) break;  // root: component proposed nothing
        const std::uint64_t hh = t_hook->get(ctx, h);
        if (hh == cur) {  // 2-cycle: smaller label wins
          cur = std::min(cur, h);
          break;
        }
        cur = h;
      }
      t_new->put(v, cur);
    });
    VertexId fresh_comps = 0;
    {
      std::vector<std::uint8_t> seen(n, 0);
      for (VertexId v = 0; v < n; ++v) {
        comp[v] = static_cast<VertexId>(t_new->raw(v));
        if (!seen[comp[v]]) {
          seen[comp[v]] = 1;
          ++fresh_comps;
        }
      }
    }
    REPRO_CHECK_MSG(fresh_comps < num_comps, "Boruvka phase made no progress");
    num_comps = fresh_comps;
    if (num_comps == 1) break;
  }

  std::vector<EdgeId> forest;
  for (EdgeId e = 0; e < g.edges.size(); ++e) {
    if (in_forest[e]) forest.push_back(e);
  }
  // (time, id): generated orders have unique times, but hand-built orders
  // may tie — the id tie-break keeps the forest order deterministic either
  // way (same contract as contraction.cpp).
  psort::stable_sort_keys(&ThreadPool::shared(), forest,
                          [&](EdgeId a, EdgeId b) {
                            return order.time[a] != order.time[b]
                                       ? order.time[a] < order.time[b]
                                       : a < b;
                          });
  return forest;
}

std::vector<EdgeId> ampc_msf_cited(Runtime& rt, const WGraph& g,
                                   const ContractionOrder& order) {
  const auto cited = static_cast<std::uint64_t>(
      std::ceil(1.0 / std::max(0.1, rt.config().eps)));
  rt.charge_rounds("msf[cited Behnezhad et al. 2020]", cited);
  return msf_edges_by_time(g, order);
}

}  // namespace ampccut::ampc
