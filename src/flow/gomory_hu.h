// Gomory–Hu tree (Definition 8) via Gusfield's simplification.
//
// The tree encodes all-pairs s-t min cuts: the minimum edge weight on the
// tree path between s and t equals their min cut in G. Section 5 of the paper
// uses it both in the APX-SPLIT analysis and (Observation 10 / Theorem 6) as
// the (2 - 2/k)-approximate k-cut construction we baseline against; the
// serving tier (src/serve/) publishes one per snapshot and answers every
// query off it.
#pragma once

#include <functional>
#include <vector>

#include "graph/graph.h"

namespace ampccut {

class ThreadPool;

struct GomoryHuTree {
  // parent[v] and parent_cut_weight[v] define the tree edge v -> parent[v]
  // for v != root (vertex 0). parent[0] == kInvalidVertex. On a disconnected
  // graph the construction still yields one tree rooted at 0: a pair in
  // different components has max flow 0, so the tree edge linking their
  // components carries weight 0 and path minima stay exact.
  std::vector<VertexId> parent;
  std::vector<Weight> parent_cut_weight;

  // Min s-t cut value per the tree (minimum weight on the s..t path).
  // Throws InvalidQueryError (support/errors.h) on an out-of-range endpoint
  // or s == t — query pairs come from outside the library, so a bad pair is
  // a runtime condition, not a REPRO_CHECK-able caller bug.
  [[nodiscard]] Weight min_cut(VertexId s, VertexId t) const;
};

// Requires n >= 1; the graph may be disconnected (see GomoryHuTree::parent).
GomoryHuTree build_gomory_hu(const WGraph& g);

// Hook variant: `step_hook(i)` runs before Gusfield step i (the max-flow for
// vertex i, i in 1..n-1); cutbench's serve-mixed times the steps through it.
// A throwing hook aborts the build. An empty function is equivalent to the
// overload above.
using GomoryHuStepHook = std::function<void(VertexId)>;
GomoryHuTree build_gomory_hu(const WGraph& g, const GomoryHuStepHook& step_hook);

// The Saran–Vazirani / Observation 10 k-cut: take Gomory–Hu cuts in
// non-decreasing weight order until the graph splits into >= k components;
// returns the union of those cuts as a partition. (2 - 2/k)-approximate.
struct GHKCut {
  Weight weight = 0;
  std::vector<std::uint32_t> part;  // component id per vertex
};
GHKCut gomory_hu_k_cut(const WGraph& g, std::uint32_t k);

// Same partition from an already-built tree of `g` — the serving tier reuses
// the published snapshot's tree instead of paying n-1 max-flows per request.
// `pool` feeds the psort tie-broken edge ordering (nullptr = sequential);
// the partition is bit-identical at every pool width.
GHKCut gomory_hu_k_cut_from_tree(const GomoryHuTree& tree, const WGraph& g,
                                 std::uint32_t k, ThreadPool* pool = nullptr);

}  // namespace ampccut
