// Certified ring-of-clusters graphs: weighted instances whose exact min cut
// and min k-cut are known by construction, so no oracle runs while the
// benchmark measures.
//
// Structure: c clusters, each the union of h random Hamiltonian cycles over
// its vertices with heavy-tailed weights >= w_min, joined in a ring by light
// edge bundles B_0..B_{c-1} (bundle i joins cluster i and cluster i+1 mod c)
// with sum(B_i) < 2*h*w_min.
//
// Certificate: a cut that splits a cluster crosses each of its h cycles at
// least twice, so it weighs >= 2*h*w_min > sum(B_i). Every cheaper cut keeps
// clusters whole and is a cut of the cluster ring, which crosses at least
// two bundles — exactly two for an arc. Hence lambda = the two smallest
// bundles, and for 2 <= k <= c the optimal k-cut is the k smallest bundles.
// The minimum weighted degree is >= 2*h*w_min, so lambda < delta: the
// answer is never the trivial singleton cut.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace cutbench {

using ampccut::VertexId;
using ampccut::Weight;
using ampccut::WGraph;

struct RingParams {
  VertexId n = 1024;
  std::uint32_t clusters = 8;  // c >= 3, n >= 3c
  std::uint32_t cycles = 4;    // h: Hamiltonian cycles per cluster (m ~ h n)
};

struct RingGraph {
  WGraph g;
  std::vector<std::uint32_t> cluster_of;  // per vertex
  std::vector<Weight> bundles;            // B_i, i in [0, c)
  Weight w_min = 0;

  // Sum of the k smallest bundles: the exact min k-cut for 2 <= k <= c
  // (k = 2 is the global min cut).
  [[nodiscard]] Weight optimal_k_cut(std::uint32_t k) const;
  [[nodiscard]] Weight min_cut() const { return optimal_k_cut(2); }
  // Exact s-t min cut for s, t in different clusters: the lightest bundle
  // on each of the two ring arcs between their clusters.
  [[nodiscard]] Weight cross_cluster_cut(VertexId s, VertexId t) const;
};

// Topology (cluster sizes, cycles, bundle endpoints) follows `topology_seed`;
// every weight follows `weight_seed`. Two calls with one topology seed and
// different weight seeds give reweightings of the same graph, each certified.
RingGraph make_ring(const RingParams& p, std::uint64_t topology_seed,
                    std::uint64_t weight_seed);

// Cross-checks the certificate against stoer_wagner_min_cut and the
// brute-force solvers on small rings derived from `seed`. Returns the number
// of disagreements (0 when the certificate holds).
std::uint32_t ring_selfcheck(std::uint64_t seed);

}  // namespace cutbench
