#include "ring.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exact/brute_force.h"
#include "exact/stoer_wagner.h"
#include "support/rng.h"

namespace cutbench {

using ampccut::Rng;

namespace {

// Fisher–Yates on the library's Rng, so the layout does not depend on the
// standard library's shuffle algorithm.
template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

}  // namespace

Weight RingGraph::optimal_k_cut(std::uint32_t k) const {
  if (k < 2 || k > bundles.size()) {
    throw std::invalid_argument("optimal_k_cut needs 2 <= k <= clusters");
  }
  std::vector<Weight> b = bundles;
  std::sort(b.begin(), b.end());
  Weight sum = 0;
  for (std::uint32_t i = 0; i < k; ++i) sum += b[i];
  return sum;
}

Weight RingGraph::cross_cluster_cut(VertexId s, VertexId t) const {
  const auto c = static_cast<std::uint32_t>(bundles.size());
  const std::uint32_t a = cluster_of.at(s);
  const std::uint32_t b = cluster_of.at(t);
  if (a == b) throw std::invalid_argument("cross_cluster_cut: same cluster");
  // Bundle i joins clusters i and i+1, so the arc a -> b holds bundles
  // a..b-1 and the other arc holds b..a-1 (indices mod c).
  Weight arc1 = ampccut::kInfiniteWeight;
  for (std::uint32_t i = a; i != b; i = (i + 1) % c) {
    arc1 = std::min(arc1, bundles[i]);
  }
  Weight arc2 = ampccut::kInfiniteWeight;
  for (std::uint32_t i = b; i != a; i = (i + 1) % c) {
    arc2 = std::min(arc2, bundles[i]);
  }
  return arc1 + arc2;
}

RingGraph make_ring(const RingParams& p, std::uint64_t topology_seed,
                    std::uint64_t weight_seed) {
  const std::uint32_t c = p.clusters;
  const std::uint32_t h = p.cycles;
  if (c < 3 || h < 1 || p.n < 3 * c) {
    throw std::invalid_argument("make_ring needs clusters >= 3, cycles >= 1 "
                                "and n >= 3 * clusters");
  }
  Rng topo(topology_seed);
  Rng wr(weight_seed);

  // Cluster sizes: an even split, then random transfers of up to a quarter
  // of a cluster to its ring successor, never below the 3 vertices a
  // Hamiltonian cycle needs.
  std::vector<VertexId> size(c, p.n / c);
  for (std::uint32_t i = 0; i < p.n % c; ++i) ++size[i];
  for (std::uint32_t i = 0; i < c; ++i) {
    const VertexId room = size[i] - 3;
    const auto d = static_cast<VertexId>(
        topo.next_below(std::min<VertexId>(room, p.n / (4 * c)) + 1));
    size[i] -= d;
    size[(i + 1) % c] += d;
  }

  // Random vertex labels, so clusters are not id ranges.
  std::vector<VertexId> label(p.n);
  for (VertexId v = 0; v < p.n; ++v) label[v] = v;
  shuffle(label, topo);

  RingGraph out;
  out.g.n = p.n;
  out.cluster_of.assign(p.n, 0);
  std::vector<std::vector<VertexId>> members(c);
  VertexId next = 0;
  for (std::uint32_t i = 0; i < c; ++i) {
    for (VertexId j = 0; j < size[i]; ++j) {
      members[i].push_back(label[next]);
      out.cluster_of[label[next]] = i;
      ++next;
    }
  }

  // Bundles first: their total fixes w_min.
  struct Pending {
    VertexId u, v;
    bool bundle;
    std::uint32_t idx;  // bundle index for bundle edges
  };
  std::vector<Pending> pending;
  out.bundles.assign(c, 0);
  std::vector<Weight> bundle_w;
  for (std::uint32_t i = 0; i < c; ++i) {
    const auto& from = members[i];
    const auto& to = members[(i + 1) % c];
    const auto count = 1 + static_cast<std::uint32_t>(topo.next_below(3));
    for (std::uint32_t e = 0; e < count; ++e) {
      const VertexId u = from[topo.next_below(from.size())];
      const VertexId v = to[topo.next_below(to.size())];
      const Weight w = 1 + wr.next_below(4);
      pending.push_back({u, v, true, static_cast<std::uint32_t>(bundle_w.size())});
      bundle_w.push_back(w);
      out.bundles[i] += w;
    }
  }
  Weight total_bundles = 0;
  for (const Weight b : out.bundles) total_bundles += b;
  out.w_min = total_bundles / (2 * h) + 1;  // 2 h w_min > sum(B)

  for (std::uint32_t i = 0; i < c; ++i) {
    std::vector<VertexId> tour = members[i];
    for (std::uint32_t cyc = 0; cyc < h; ++cyc) {
      shuffle(tour, topo);
      for (std::size_t j = 0; j < tour.size(); ++j) {
        pending.push_back({tour[j], tour[(j + 1) % tour.size()], false, 0});
      }
    }
  }
  shuffle(pending, topo);

  out.g.edges.reserve(pending.size());
  for (const Pending& e : pending) {
    Weight w = 0;
    if (e.bundle) {
      w = bundle_w[e.idx];
    } else {
      // Pareto(1.5) tail above w_min, capped at 64 w_min.
      const double tail = std::pow(wr.next_double_open(), -1.0 / 1.5) - 1.0;
      const double extra =
          std::min(63.0, tail) * static_cast<double>(out.w_min);
      w = out.w_min + static_cast<Weight>(extra);
    }
    out.g.add_edge(e.u, e.v, w);
  }
  return out;
}

std::uint32_t ring_selfcheck(std::uint64_t seed) {
  std::uint32_t failures = 0;
  auto check_lambda_below_delta = [&](const RingGraph& r) {
    const auto deg = r.g.weighted_degrees();
    if (*std::min_element(deg.begin(), deg.end()) <= r.min_cut()) ++failures;
  };
  // Brute force: every subset of up to 16 vertices.
  const RingParams tiny[] = {{9, 3, 2}, {12, 4, 2}, {16, 5, 3}};
  for (const RingParams& p : tiny) {
    for (std::uint64_t w = 0; w < 3; ++w) {
      const RingGraph r = make_ring(p, seed + p.n, seed ^ (w + 1));
      check_lambda_below_delta(r);
      if (ampccut::brute_force_min_cut(r.g).weight != r.min_cut()) ++failures;
    }
  }
  // Brute-force k-cut (k^n assignments, so n <= 10).
  const RingParams small_k[] = {{9, 3, 2}, {10, 3, 2}};
  for (const RingParams& p : small_k) {
    const RingGraph r = make_ring(p, seed + 7 * p.n, seed ^ 0x6b);
    for (std::uint32_t k = 2; k <= 3; ++k) {
      if (ampccut::brute_force_min_k_cut(r.g, k).weight != r.optimal_k_cut(k)) {
        ++failures;
      }
    }
  }
  // Stoer–Wagner on mid-size rings with the benchmark's cycle count.
  const RingParams mid[] = {{64, 4, 4}, {128, 6, 4}, {256, 8, 4}};
  for (const RingParams& p : mid) {
    const RingGraph r = make_ring(p, seed + 31 * p.n, seed ^ 0x5f);
    check_lambda_below_delta(r);
    const ampccut::MinCutResult sw = ampccut::stoer_wagner_min_cut(r.g);
    if (sw.weight != r.min_cut() || ampccut::cut_weight(r.g, sw.side) != sw.weight) {
      ++failures;
    }
  }
  return failures;
}

}  // namespace cutbench
