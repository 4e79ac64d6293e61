#include "exact/brute_force.h"

#include <algorithm>

#include "support/check.h"

namespace ampccut {

MinCutResult brute_force_min_cut(const WGraph& g) {
  REPRO_CHECK(g.n >= 2 && g.n <= 24);
  const std::uint32_t n = g.n;
  MinCutResult best;
  best.side.assign(n, 0);
  // Fix vertex n-1 on side 0 to halve the enumeration; every proper cut has a
  // representative with that vertex on side 0.
  const std::uint64_t limit = 1ull << (n - 1);
  for (std::uint64_t mask = 1; mask < limit; ++mask) {
    Weight cut = 0;
    for (const auto& e : g.edges) {
      const bool su = (mask >> e.u) & 1ull;
      const bool sv = (mask >> e.v) & 1ull;
      if (su != sv) cut = sat_add(cut, e.w);
    }
    if (cut < best.weight) {
      best.weight = cut;
      for (std::uint32_t v = 0; v < n; ++v)
        best.side[v] = static_cast<std::uint8_t>((mask >> v) & 1ull);
    }
  }
  return best;
}

Weight k_cut_weight(const WGraph& g, const std::vector<std::uint32_t>& part) {
  REPRO_CHECK(part.size() == g.n);
  Weight total = 0;
  for (const auto& e : g.edges)
    if (part[e.u] != part[e.v]) total += e.w;
  return total;
}

KCutResult brute_force_min_k_cut(const WGraph& g, std::uint32_t k) {
  REPRO_CHECK(k >= 1 && k <= g.n);
  REPRO_CHECK_MSG(g.n <= 12, "brute-force k-cut is exponential; keep n small");
  const std::uint32_t n = g.n;
  KCutResult best;
  std::vector<std::uint32_t> part(n, 0);
  // Enumerate assignments with the canonical-form pruning that class labels
  // appear in first-use order (kills the k! symmetry).
  std::vector<std::uint32_t> stack{0};
  // Simple recursive enumeration via explicit lambda recursion.
  auto rec = [&](auto&& self, std::uint32_t v, std::uint32_t used) -> void {
    if (v == n) {
      if (used != k) return;
      const Weight wgt = k_cut_weight(g, part);
      if (wgt < best.weight) {
        best.weight = wgt;
        best.part = part;
      }
      return;
    }
    // Prune: remaining vertices must be able to open the missing classes.
    if (used + (n - v) < k) return;
    const std::uint32_t open_limit = std::min(used + 1, k);
    for (std::uint32_t c = 0; c < open_limit; ++c) {
      part[v] = c;
      self(self, v + 1, std::max(used, c + 1));
    }
  };
  rec(rec, 0, 0);
  REPRO_CHECK(best.weight != kInfiniteWeight);
  return best;
}

Weight min_singleton_degree(const WGraph& g) {
  const auto deg = g.weighted_degrees();
  Weight best = kInfiniteWeight;
  for (Weight d : deg) best = std::min(best, d);
  return best;
}

}  // namespace ampccut
