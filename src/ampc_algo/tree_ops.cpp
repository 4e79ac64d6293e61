#include "ampc_algo/tree_ops.h"

#include <algorithm>
#include <numeric>

#include "ampc_algo/list_ranking.h"
#include "support/check.h"
#include "support/psort.h"

namespace ampccut::ampc {

AmpcRootedTree ampc_root_tree(Runtime& rt, VertexId n,
                              const std::vector<WEdge>& edges,
                              const std::vector<TimeStep>& times,
                              VertexId root) {
  REPRO_CHECK(n >= 1 && root < n);
  REPRO_CHECK(edges.size() + 1 == n);
  REPRO_CHECK(times.size() == edges.size());
  AmpcRootedTree out;
  out.n = n;
  out.root = root;
  out.parent.assign(n, kInvalidVertex);
  out.parent_time.assign(n, 0);
  out.depth.assign(n, 0);
  out.subtree.assign(n, 1);
  out.preorder.assign(n, 0);
  if (n == 1) return out;

  const std::uint64_t num_arcs = 2 * edges.size();
  // Arc 2e = (u->v), arc 2e+1 = (v->u). CSR of arcs grouped by tail. The
  // grouping is a sort by tail — a standard O(1/eps) AMPC sample sort, run
  // driver-side and charged (DESIGN.md round-accounting policy).
  rt.charge_rounds("euler.sort[cited]", 2);
  auto tail_of = [&](std::uint64_t a) {
    const WEdge& e = edges[a / 2];
    return (a % 2 == 0) ? e.u : e.v;
  };
  auto head_of = [&](std::uint64_t a) {
    const WEdge& e = edges[a / 2];
    return (a % 2 == 0) ? e.v : e.u;
  };
  // A stable counting sort of the ascending arc ids by tail gives the
  // (tail, arc) order, and its group offsets are the CSR offsets.
  std::vector<std::uint64_t> arc_ids(num_arcs);
  std::iota(arc_ids.begin(), arc_ids.end(), 0);
  std::vector<std::uint64_t> csr_arc(num_arcs);  // CSR slot -> arc
  std::vector<std::size_t> first_slot;           // tail -> first CSR slot
  psort::radix_rank(&ThreadPool::shared(), arc_ids.data(), csr_arc.data(),
                    num_arcs, n, tail_of, &first_slot);

  auto t_arc_pos = rt.lease_dense<std::uint64_t>("euler.arc_pos", num_arcs);
  auto t_csr = rt.lease_dense<std::uint64_t>("euler.csr", num_arcs);
  auto t_first = rt.lease_dense<std::uint64_t>("euler.first", n + 1);
  for (std::uint64_t s = 0; s < num_arcs; ++s) {
    t_arc_pos->seed(csr_arc[s], s);
    t_csr->seed(s, csr_arc[s]);
  }
  for (std::uint64_t v = 0; v <= n; ++v) t_first->seed(v, first_slot[v]);

  // One round: each arc computes its Euler successor locally. succ((u,v)) is
  // the arc after (v,u) in v's circular out-list; the tour is cut at the
  // root's first outgoing arc to turn the cycle into a list.
  auto t_next = rt.lease_dense<std::uint64_t>("euler.next", num_arcs, kNoNext);
  const std::uint64_t root_first_arc = csr_arc[first_slot[root]];
  rt.round_over_items("euler.successors", num_arcs,
                      [&](MachineContext& ctx, std::uint64_t a) {
    const VertexId v = head_of(a);
    const std::uint64_t rev = a ^ 1ull;  // (v -> u)
    const std::uint64_t rev_slot = t_arc_pos->get(ctx, rev);
    const std::uint64_t lo = t_first->get(ctx, v);
    const std::uint64_t hi = t_first->get(ctx, v + 1);
    std::uint64_t succ_slot = rev_slot + 1;
    if (succ_slot == hi) succ_slot = lo;  // wrap the circular order
    const std::uint64_t succ = t_csr->get(ctx, succ_slot);
    if (succ != root_first_arc) t_next->put(a, succ);
  });
  std::vector<std::uint64_t> next(num_arcs);
  for (std::uint64_t a = 0; a < num_arcs; ++a) next[a] = t_next->raw(a);

  // Rank 1: tour positions (suffix counts). pos = num_arcs - rank.
  const std::vector<std::int64_t> ones(num_arcs, 1);
  const auto rank1 = list_rank(rt, next, ones);
  std::vector<std::uint64_t> pos(num_arcs);
  for (std::uint64_t a = 0; a < num_arcs; ++a) {
    pos[a] = num_arcs - static_cast<std::uint64_t>(rank1[a]);
  }

  // One round: orientation. The earlier-positioned arc of each edge is the
  // downward (parent->child) arc.
  auto t_pos = rt.lease_dense<std::uint64_t>("euler.pos", num_arcs);
  for (std::uint64_t a = 0; a < num_arcs; ++a) t_pos->seed(a, pos[a]);
  auto t_parent = rt.lease_dense<std::uint64_t>("euler.parent", n, kNoNext);
  auto t_ptime = rt.lease_dense<std::uint64_t>("euler.ptime", n, 0);
  rt.round_over_items("euler.orient", edges.size(),
                      [&](MachineContext& ctx, std::uint64_t e) {
    const std::uint64_t down =
        t_pos->get(ctx, 2 * e) < t_pos->get(ctx, 2 * e + 1) ? 2 * e
                                                             : 2 * e + 1;
    const VertexId child = head_of(down);
    const VertexId par = tail_of(down);
    t_parent->put(child, par);
    t_ptime->put(child, times[e]);
  });
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t p = t_parent->raw(v);
    if (p != kNoNext) {
      out.parent[v] = static_cast<VertexId>(p);
      out.parent_time[v] = static_cast<TimeStep>(t_ptime->raw(v));
    }
  }
  REPRO_CHECK(out.parent[root] == kInvalidVertex);

  // Helper: down-arc of each non-root vertex (the arc entering it first).
  std::vector<std::uint64_t> down_arc(n, kNoNext);
  std::vector<std::uint64_t> up_arc(n, kNoNext);
  for (std::uint64_t e = 0; e < edges.size(); ++e) {
    const std::uint64_t d = pos[2 * e] < pos[2 * e + 1] ? 2 * e : 2 * e + 1;
    down_arc[head_of(d)] = d;
    up_arc[head_of(d)] = d ^ 1ull;
  }

  // Rank 2 (two columns in the same rounds): depth via signed deltas (+1
  // down, -1 up) and preorder via down-arc flags. The prefix sum at a
  // down-arc equals the depth of the vertex it enters; with total sum 0,
  // prefix(a) = delta(a) - suffix(a).
  std::vector<std::int64_t> deltas(num_arcs);
  std::vector<std::int64_t> down_flags(num_arcs, 0);
  for (std::uint64_t e = 0; e < edges.size(); ++e) {
    const std::uint64_t d = pos[2 * e] < pos[2 * e + 1] ? 2 * e : 2 * e + 1;
    deltas[d] = 1;
    deltas[d ^ 1ull] = -1;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (v != root) down_flags[down_arc[v]] = 1;
  }
  const auto ranks2 = list_rank_multi(rt, next, {deltas, down_flags});
  const auto& rank_depth = ranks2[0];
  const auto& rank_down = ranks2[1];
  for (VertexId v = 0; v < n; ++v) {
    if (v == root) continue;
    const std::uint64_t d = down_arc[v];
    out.depth[v] = static_cast<std::uint32_t>(deltas[d] - rank_depth[d]);
  }
  out.subtree[root] = n;
  out.preorder[root] = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (v == root) continue;
    out.subtree[v] = static_cast<std::uint32_t>(
        (pos[up_arc[v]] - pos[down_arc[v]] + 1) / 2);
    // Number of down-arcs at or before v's down arc = preorder index.
    out.preorder[v] = static_cast<std::uint32_t>(
        (n - 1) - rank_down[down_arc[v]] + down_flags[down_arc[v]]);
  }
  return out;
}

std::vector<VertexId> ampc_components(Runtime& rt, const WGraph& g) {
  const VertexId n = g.n;
  std::vector<VertexId> label(n);
  std::iota(label.begin(), label.end(), 0);
  if (n == 0) return label;
  const Adjacency adj(g);
  const std::uint64_t budget =
      std::max<std::uint64_t>(8, rt.config().machine_memory_words);

  // Phase loop: every vertex walks its current-label pointer graph
  // adaptively (up to `budget` hops) toward smaller labels, then adopts the
  // smallest label seen among neighbors' leaders. Labels only shrink;
  // when a pass changes nothing, components are exact.
  for (;;) {
    auto t_label = rt.lease_dense<std::uint64_t>("cc.label", n);
    for (VertexId v = 0; v < n; ++v) t_label->seed(v, label[v]);
    auto t_next = rt.lease_dense<std::uint64_t>("cc.next", n);
    bool changed = false;

    rt.round_over_items("components.hook", n,
                        [&](MachineContext& ctx, std::uint64_t v) {
      // Smallest label among self and neighbors. The CSR adjacency lives in
      // the DHT; charge one read per scanned arc.
      std::uint64_t best = t_label->get(ctx, v);
      ctx.count_read(adj.degree(static_cast<VertexId>(v)));
      for (const auto& arc : adj.neighbors(static_cast<VertexId>(v))) {
        best = std::min(best, t_label->get(ctx, arc.to));
      }
      t_next->put(v, best);
    });
    rt.round_over_items("components.jump", n,
                        [&](MachineContext& ctx, std::uint64_t v) {
      // Adaptive pointer chase: follow label links until a fixpoint or the
      // per-machine budget is exhausted.
      std::uint64_t cur = t_next->get(ctx, v);
      for (std::uint64_t hops = 0; hops < budget; ++hops) {
        const std::uint64_t nxt = t_next->get(ctx, cur);
        if (nxt == cur) break;
        cur = nxt;
      }
      t_label->put(v, cur);
    });
    for (VertexId v = 0; v < n; ++v) {
      const auto fresh = static_cast<VertexId>(t_label->raw(v));
      if (fresh != label[v]) {
        label[v] = fresh;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return label;
}

}  // namespace ampccut::ampc
