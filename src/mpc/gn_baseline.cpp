#include "mpc/gn_baseline.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "exact/stoer_wagner.h"
#include "mpc/primitives.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/threadpool.h"

namespace ampccut::mpc {

MpcMinCutReport mpc_gn_min_cut(const WGraph& g, const MpcMinCutOptions& opt) {
  MpcMinCutReport report;
  // Hooks run concurrently under a multi-threaded recursion driver; the
  // accumulations are commutative (max/sum), so the mutex only guards the
  // containers and the totals stay thread-count independent.
  std::mutex mu;
  std::map<std::uint32_t, std::uint64_t> level_rounds;
  bool any_local = false;

  MinCutBackend backend;
  backend.track_singleton = [&](const WGraph& inst, const ContractionOrder& o,
                                std::uint32_t level) {
    // Execute the MPC-priced tree pipeline for its measured round count:
    // Boruvka MST, then tour positions via pointer doubling over the MST's
    // heavy-chain successor lists (the dominant log-n steps of GN's
    // decomposition). Cut values come from the sequential oracle tracker;
    // they do not enter the round count.
    Runtime rt(Config{}, opt.num_machines);
    const auto forest = mpc_msf_boruvka(rt, inst, o);
    if (forest.size() + 1 == inst.n && inst.n >= 2) {
      // Rank the tree's parent pointers (a stand-in list for the Euler tour;
      // same pointer-doubling round count).
      std::vector<std::uint64_t> next(inst.n, kNoNext);
      for (const EdgeId e : forest) {
        // Orient arbitrarily: each edge links the larger id to the smaller;
        // chains of length Theta(n) arise on paths, which is the point.
        const VertexId a = std::max(inst.edges[e].u, inst.edges[e].v);
        const VertexId b = std::min(inst.edges[e].u, inst.edges[e].v);
        if (next[a] == kNoNext) next[a] = b;
      }
      const std::vector<std::int64_t> ones(inst.n, 1);
      (void)mpc_list_rank(rt, next, ones);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      level_rounds[level] =
          std::max(level_rounds[level], rt.metrics().rounds);
      report.messages += rt.metrics().messages;
    }
    return min_singleton_cut_oracle(inst, o);
  };
  backend.solve_local = [&](const WGraph& inst, std::uint32_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      any_local = true;
    }
    return stoer_wagner_min_cut(inst);
  };
  backend.on_level = [](std::uint32_t, std::uint64_t) {};

  const ApproxMinCutResult r =
      approx_min_cut_with_backend(g, opt.recursion, backend);
  report.weight = r.weight;
  report.side = r.side;
  report.stats = r.stats;
  for (const auto& [level, rounds] : level_rounds) {
    report.rounds += rounds + 2;  // +O(1): per-level copy/contract messaging
    ++report.levels_used;
  }
  if (any_local) report.rounds += 1;
  return report;
}

MpcKCutReport mpc_gn_k_cut(const WGraph& g, std::uint32_t k,
                           const MpcMinCutOptions& opt) {
  MpcKCutReport report;
  // Per-pass round maxima, flushed by on_iteration after every pass (see
  // kcut_ampc.cpp).
  std::mutex mu;
  std::uint64_t iter_rounds = 0;
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = resolve_recursion_pool(opt.recursion.threads, owned);
  MpcMinCutOptions base = opt;
  if (owned != nullptr) base.recursion.threads = 1;  // see kcut.cpp
  report.result = apx_split_k_cut(
      g, k,
      [&, base](const WGraph& component, std::uint64_t call_seq) {
        MpcMinCutOptions o = base;
        o.recursion.seed = splitmix64(base.recursion.seed ^ call_seq);
        const MpcMinCutReport sub = mpc_gn_min_cut(component, o);
        {
          std::lock_guard<std::mutex> lock(mu);
          iter_rounds = std::max(iter_rounds, sub.rounds);
        }
        return MinCutResult{sub.weight, sub.side};
      },
      [&](std::uint32_t) {
        std::lock_guard<std::mutex> lock(mu);
        report.rounds += iter_rounds + 1;  // +1: component counting
        iter_rounds = 0;
      },
      pool);
  return report;
}

}  // namespace ampccut::mpc
