#include "ampc_algo/low_depth_ampc.h"

#include <algorithm>

#include "ampc_algo/list_ranking.h"
#include "support/check.h"
#include "tree/binarized_path.h"

namespace ampccut::ampc {

AmpcDecomposition ampc_low_depth_decomposition(Runtime& rt,
                                               const AmpcRootedTree& tree) {
  const VertexId n = tree.n;
  AmpcDecomposition d;
  d.label.assign(n, 0);
  d.head.assign(n, kInvalidVertex);
  d.pos.assign(n, 0);
  d.len.assign(n, 0);
  d.base_depth.assign(n, 0);
  d.leaf_depth.assign(n, 0);

  // --- Heavy children (Definition 2): one merge-reduction round. ----------
  // Encoded proposal (subtree << 32) | (~child) under kMax picks the largest
  // subtree, breaking ties toward the smaller child id (matches seq). 0 means
  // "no heavy child": subtree >= 1 puts every proposal at 2^32 or above.
  auto t_subtree = rt.lease_dense<std::uint64_t>("ldd.subtree", n);
  for (VertexId v = 0; v < n; ++v) t_subtree->seed(v, tree.subtree[v]);
  auto t_heavy_prop =
      rt.lease_dense<std::uint64_t>("ldd.heavyprop", n, 0, Merge::kMax);
  rt.round_over_items("low_depth.heavy", n,
                      [&](MachineContext& ctx, std::uint64_t v) {
    const VertexId p = tree.parent[v];
    if (p == kInvalidVertex) return;
    const std::uint64_t enc =
        (t_subtree->get(ctx, v) << 32) | (0xffffffffull - v);
    t_heavy_prop->put(p, enc);
  });
  std::vector<VertexId> heavy(n, kInvalidVertex);
  for (VertexId p = 0; p < n; ++p) {
    const std::uint64_t enc = t_heavy_prop->raw(p);
    if (enc == 0) continue;
    heavy[p] = static_cast<VertexId>(0xffffffffull - (enc & 0xffffffffull));
  }

  // --- Heavy-path geometry via three chain rankings. ----------------------
  // Chains run bottom-up through next_up = parent-if-heavy (heads are chain
  // tails), so suffix sums aggregate toward the head.
  std::vector<std::uint64_t> next_up(n, kNoNext);
  std::vector<std::uint64_t> next_down(n, kNoNext);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId p = tree.parent[v];
    if (p != kInvalidVertex && heavy[p] == v) next_up[v] = p;
    if (heavy[v] != kInvalidVertex) next_down[v] = heavy[v];
  }
  const std::vector<std::int64_t> ones(n, 1);
  std::vector<std::int64_t> head_val(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (next_up[v] == kNoNext) head_val[v] = v;  // only heads contribute
  }
  // Position and head id ride the same upward ranking; the downward ranking
  // (chain length below) runs over the reversed pointers.
  const auto up_ranks = list_rank_multi(rt, next_up, {ones, head_val});
  const auto& rank_up = up_ranks[0];    // pos + 1
  const auto& rank_head = up_ranks[1];  // head vertex id
  const auto rank_down = list_rank(rt, next_down, ones);  // len - pos
  for (VertexId v = 0; v < n; ++v) {
    d.pos[v] = static_cast<std::uint32_t>(rank_up[v] - 1);
    d.len[v] = static_cast<std::uint32_t>(rank_up[v] - 1 + rank_down[v]);
    d.head[v] = static_cast<VertexId>(rank_head[v]);
  }

  // --- Base depths: adaptive walk up the meta tree (one round). -----------
  // Each head reads the (pos, len) geometry of its chain of attachment
  // vertices up to the root path — O(log n) hops (Observation 1) — and
  // resolves the expanded depths locally (Observation 6 bounds them).
  auto t_pos = rt.lease_dense<std::uint64_t>("ldd.pos", n);
  auto t_len = rt.lease_dense<std::uint64_t>("ldd.len", n);
  auto t_head = rt.lease_dense<std::uint64_t>("ldd.head", n);
  for (VertexId v = 0; v < n; ++v) {
    t_pos->seed(v, d.pos[v]);
    t_len->seed(v, d.len[v]);
    t_head->seed(v, d.head[v]);
  }
  auto t_base = rt.lease_dense<std::uint64_t>("ldd.base", n, 0);  // per head
  rt.round_over_items("low_depth.base_depth", n,
                      [&](MachineContext& ctx, std::uint64_t v) {
    if (d.head[v] != v) return;  // one machine task per head
    // Collect attachment vertices bottom-up.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> geom;  // (pos, len)
    VertexId cur = static_cast<VertexId>(v);
    for (;;) {
      const VertexId attach = tree.parent[cur];
      if (attach == kInvalidVertex) break;
      geom.emplace_back(t_pos->get(ctx, attach), t_len->get(ctx, attach));
      cur = static_cast<VertexId>(t_head->get(ctx, attach));
    }
    // Resolve top-down: base(root path) = 1; each hop adds the attachment
    // leaf's depth within its binarized path.
    std::uint64_t base = 1;
    for (std::size_t k = geom.size(); k-- > 0;) {
      const auto [pp, ll] = geom[k];
      const std::uint64_t leaf_d =
          base + binpath::depth(binpath::leaf_index(ll, pp)) - 1;
      base = leaf_d + 1;
    }
    t_base->put(v, base);
  });

  // --- Labels: pure local arithmetic per vertex (one round). --------------
  auto t_label = rt.lease_dense<std::uint64_t>("ldd.label", n, 0);
  auto t_leafd = rt.lease_dense<std::uint64_t>("ldd.leafd", n, 0);
  rt.round_over_items("low_depth.label", n,
                      [&](MachineContext& ctx, std::uint64_t v) {
    const std::uint64_t h = t_head->get(ctx, v);
    const std::uint64_t base = t_base->get(ctx, h);
    const std::uint64_t L = t_len->get(ctx, v);
    const std::uint64_t j = t_pos->get(ctx, v);
    const auto leaf = binpath::leaf_index(L, j);
    t_label->put(v, base + binpath::leaf_label(L, leaf) - 1);
    t_leafd->put(v, base + binpath::depth(leaf) - 1);
  });
  for (VertexId v = 0; v < n; ++v) {
    d.base_depth[v] = static_cast<std::uint32_t>(t_base->raw(d.head[v]));
    d.label[v] = static_cast<std::uint32_t>(t_label->raw(v));
    d.leaf_depth[v] = static_cast<std::uint32_t>(t_leafd->raw(v));
    REPRO_CHECK(d.label[v] >= 1);
    d.height = std::max(d.height, d.label[v]);
  }
  return d;
}

}  // namespace ampccut::ampc
