// Smallest singleton cut of a contraction process — common result type.
//
// Semantics shared by every tracker in the library (the sequential oracle
// below and the AMPC tracker of ampc_algo/singleton_ampc.h): the minimum over
// all pairs (v, t) of the weighted boundary of bag(v, t) (Definition 6 /
// Observation 7), ranging over bags that are proper subsets of v's connected
// component. Bags equal to a whole component are not cuts of that component
// and are excluded; the paper implicitly assumes connected inputs, where this
// only excludes bag == V (DESIGN.md deviation #5). Trackers must agree
// *exactly* on the weight, and every witness must reconstruct to a bag of
// that weight — tests enforce both. Witnesses may differ between trackers
// when several bags attain the minimum.
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "mincut/contraction.h"

namespace ampccut {

struct SingletonCutResult {
  Weight weight = kInfiniteWeight;
  // A witness: bag(rep, time) attains the minimum. Reconstruct the vertex set
  // with reconstruct_bag().
  VertexId rep = kInvalidVertex;
  TimeStep time = 0;
};

// Vertices of bag(rep, t): everything reachable from rep via MSF edges with
// time <= t. Marks bag members with 1.
std::vector<std::uint8_t> reconstruct_bag(const WGraph& g,
                                          const ContractionOrder& order,
                                          VertexId rep, TimeStep t);

// The library's sequential tracker: Kruskal with smaller-into-larger
// boundary-edge sets, O(m log m log n) expected. Works on any graph
// (multigraphs, disconnected). Boundary weights are summed exactly, so bags
// whose boundary reaches kInfiniteWeight report kInfiniteWeight instead of a
// wrapped sum. Witness rule: the earliest bag in contraction order that
// attains the minimum — the singletons {v} at time 0 first, in vertex-id
// order, then each merged bag at the time of the edge that formed it.
SingletonCutResult min_singleton_cut_oracle(const WGraph& g,
                                            const ContractionOrder& order);

}  // namespace ampccut
