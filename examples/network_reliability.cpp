// Network reliability as a SERVED scenario: link weights encode capacity,
// and a CutServer answers "what is the bottleneck between these two
// routers?" in O(tree path) per pair off one Gomory–Hu snapshot — the
// all-pairs structure one precomputation buys. The batch path answers the
// whole pair list from one pinned snapshot, and a refresh re-walks the tree:
// answers cost so little that nothing is cached.
#include <cstdio>

#include "graph/generators.h"
#include "serve/scenarios.h"

int main() {
  using namespace ampccut;

  // A backbone: grid core with randomized capacities plus a fragile
  // two-link attachment of a remote region.
  WGraph g = gen_grid(12, 12);  // 144-node core
  randomize_weights(g, 20, 5);
  const VertexId core = g.n;
  g.n += 16;  // remote region: a ring of 16 routers
  for (VertexId i = 0; i < 16; ++i) {
    g.add_edge(core + i, core + (i + 1) % 16, 10);
  }
  g.add_edge(0, core, 2);        // two thin uplinks
  g.add_edge(13, core + 8, 3);

  std::printf("backbone: n=%u m=%zu, remote region attached by capacity "
              "2+3 uplinks\n", g.n, g.m());

  serve::CutServer server(g);

  // The NOC's standing question list: core-to-remote bottlenecks plus a few
  // intra-core sanity pairs.
  std::vector<serve::QueryPair> pairs = {
      {0, core}, {13, core + 8}, {5, core + 4}, {70, core + 12},
      {0, 143},  {12, 131},      {40, 103},
  };
  const auto report = serve::serve_network_reliability(server, pairs);

  std::printf("served epoch          : %llu\n",
              static_cast<unsigned long long>(report.epoch));
  std::printf("pair bottlenecks (batch, one snapshot):\n");
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    std::printf("  %3u <-> %3u : capacity %llu\n", pairs[i].s, pairs[i].t,
                static_cast<unsigned long long>(report.pair_capacity[i]));
  }
  std::printf("weakest cut capacity  : %llu\n",
              static_cast<unsigned long long>(report.weakest.weight));
  std::printf("links to reinforce    : every edge crossing the weakest cut\n");
  for (const auto& e : report.weakest_links) {
    std::printf("  link %u-%u (capacity %llu)\n", e.u, e.v,
                static_cast<unsigned long long>(e.w));
  }

  // The same dashboard refreshes: one more batch off the current snapshot.
  (void)serve::serve_network_reliability(server, pairs);
  std::printf("after refresh         : %llu batch answers served\n",
              static_cast<unsigned long long>(server.stats().batch_queries));
  return 0;
}
