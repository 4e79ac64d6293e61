// Served scenarios: the example programs' workloads, promoted from one-shot
// demos into requests driven through a CutServer (DESIGN.md "Cut-query
// serving tier"). Each report carries the epoch it was served from, so a
// caller can correlate answers across concurrent rebuilds.
#pragma once

#include <cstdint>
#include <vector>

#include "ampc_algo/mincut_ampc.h"
#include "serve/cut_server.h"

namespace ampccut::serve {

// Community detection: the snapshot's global min cut (exact — the lightest
// Gomory–Hu edge) plus an AMPC-MinCut cross-check run leased from the
// server's RuntimeArena, so repeated requests amortize runtime/table pools.
struct CommunityCutReport {
  std::uint64_t epoch = 0;
  MinCutResult cut;            // served from the snapshot
  ampc::AmpcMinCutReport ampc;  // the model-cost cross-check
};
CommunityCutReport serve_community_cut(CutServer& server,
                                       ampc::AmpcMinCutOptions opt);

// Network reliability: per-pair bottleneck capacities through the batch
// query path on the report's pinned snapshot, plus the global weakest cut
// and the links crossing it.
struct ReliabilityReport {
  std::uint64_t epoch = 0;
  std::vector<Weight> pair_capacity;  // one per requested pair
  MinCutResult weakest;               // global min cut of the snapshot
  std::vector<WEdge> weakest_links;   // edges crossing it, original graph
};
ReliabilityReport serve_network_reliability(CutServer& server,
                                            const std::vector<QueryPair>& pairs);

// Workload partitioning: (2 - 2/k)-approximate k-cut straight off the
// published tree — no flows at request time.
struct KCutReport {
  std::uint64_t epoch = 0;
  GHKCut cut;
  std::vector<std::uint32_t> part_sizes;  // one per partition class
};
KCutReport serve_kcut_partition(CutServer& server, std::uint32_t k);

}  // namespace ampccut::serve
