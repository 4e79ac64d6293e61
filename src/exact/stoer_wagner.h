// Exact global weighted Min Cut (Stoer–Wagner, 1997).
//
// Dense implementation over one flat n x n matrix. The n - 1 phases each run
// a maximum-adjacency search over a compacted candidate list, so the phase
// with k active supervertices costs ~k^2/2 connectivity updates: ~n^3/6
// saturating adds in all, on n^2 words of memory. It serves both as the
// leaf solver of the recursive algorithms (n <= local_threshold) and as the
// exact oracle for graphs up to a few thousand vertices. Returns the cut
// value and one side of an optimal cut.
//
// Tie-break rule (the witness side depends on it): each phase starts at the
// lowest active id, every pick takes the maximum connectivity to A with the
// lowest id on ties, and the last pick merges into the one before it. A
// different rule finds the same weight but may return another optimal side.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace ampccut {

struct MinCutResult {
  Weight weight = kInfiniteWeight;
  // side[v] == 1 for vertices on the (smaller, by convention of discovery)
  // side of the cut. Empty when the graph has < 2 vertices.
  std::vector<std::uint8_t> side;
};

// Requires n >= 2 and every endpoint < n (REPRO_CHECKed). Disconnected graphs
// yield weight 0 with a component as one side. Parallel edges are merged
// internally and self-loops ignored.
MinCutResult stoer_wagner_min_cut(const WGraph& g);

}  // namespace ampccut
