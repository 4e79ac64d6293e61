#include "mincut/kcut.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "exact/stoer_wagner.h"
#include "kernel/front.h"
#include "support/check.h"
#include "support/psort.h"
#include "support/rng.h"
#include "support/threadpool.h"

namespace ampccut {

namespace {

// A component extracted as a standalone graph plus the bookkeeping to map a
// cut of the component back to original edges.
struct Component {
  WGraph sub;
  std::vector<VertexId> to_orig;      // sub vertex -> original vertex
  std::vector<EdgeId> edge_to_orig;   // sub edge -> original edge id
};

}  // namespace

ApproxKCutResult apx_split_k_cut(
    const WGraph& g, std::uint32_t k, const ComponentSplitter& splitter,
    const std::function<void(std::uint32_t)>& on_iteration, ThreadPool* pool) {
  REPRO_CHECK(k >= 1 && k <= g.n);
  std::vector<std::uint8_t> removed(g.edges.size(), 0);
  // Cut cache indexed by a component's smallest original vertex; the entry
  // is valid while solved_n matches its vertex count (reuse invariant,
  // kcut.h).
  std::vector<VertexId> solved_n(g.n, 0);
  std::vector<MinCutResult> solved_cut(g.n);

  ApproxKCutResult out;
  std::uint64_t& splitter_calls = out.splitter_calls;  // call_seq base
  for (;;) {
    // Components of G minus the removed cut edges.
    WGraph residual;
    residual.n = g.n;
    for (EdgeId e = 0; e < g.edges.size(); ++e) {
      if (!removed[e]) residual.edges.push_back(g.edges[e]);
    }
    const auto labels = component_labels(residual);
    std::vector<VertexId> uniq(labels);
    // Scalar self-order: stable == unstable, and the psort layer picks the
    // sequential fallback on a null pool, so the uniq pass stays identical.
    psort::stable_sort_keys(pool, uniq, std::less<VertexId>{});
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    const auto num_comps = static_cast<std::uint32_t>(uniq.size());

    if (num_comps >= k) {
      out.num_parts = num_comps;
      out.part.assign(g.n, 0);
      for (VertexId v = 0; v < g.n; ++v) {
        out.part[v] = static_cast<std::uint32_t>(
            std::lower_bound(uniq.begin(), uniq.end(), labels[v]) -
            uniq.begin());
      }
      out.weight = 0;
      for (EdgeId e = 0; e < g.edges.size(); ++e) {
        if (out.part[g.edges[e].u] != out.part[g.edges[e].v]) {
          out.weight = sat_add(out.weight, g.edges[e].w);
        }
      }
      return out;
    }

    // Build the splittable components (Algorithm 4 lines 3-5).
    std::vector<Component> comps(num_comps);
    std::vector<std::uint32_t> dense(g.n);
    for (VertexId v = 0; v < g.n; ++v) {
      const auto c = static_cast<std::uint32_t>(
          std::lower_bound(uniq.begin(), uniq.end(), labels[v]) - uniq.begin());
      dense[v] = c;
      comps[c].to_orig.push_back(v);
    }
    std::vector<VertexId> local(g.n, kInvalidVertex);
    for (auto& c : comps) {
      c.sub.n = static_cast<VertexId>(c.to_orig.size());
      for (VertexId i = 0; i < c.sub.n; ++i) local[c.to_orig[i]] = i;
    }
    for (EdgeId e = 0; e < g.edges.size(); ++e) {
      if (removed[e]) continue;
      const auto& ed = g.edges[e];
      Component& c = comps[dense[ed.u]];
      c.sub.edges.push_back({local[ed.u], local[ed.v], ed.w});
      c.edge_to_orig.push_back(e);
    }

    // Singleton components cannot split. Of the rest, only those this pass
    // is the first to see go to the splitter (model-parallel across
    // components), with call_seq assigned in component order so seed
    // derivation is schedule-independent.
    // Concurrency audit (kcut_ampc.cpp's iteration-counter fix): each task
    // writes only the solved_n and solved_cut slots of its own component's
    // min vertex; splitter_calls is captured by value and advanced on the
    // driver after the join, and every read of the slots happens before the
    // fan-out or after group.wait() — no shared counters, nothing to lock.
    // The ParallelKCut suites run under TSan in CI to keep it that way.
    std::vector<std::size_t> splittable;
    std::vector<std::size_t> fresh;
    for (std::size_t ci = 0; ci < comps.size(); ++ci) {
      const Component& c = comps[ci];
      if (c.sub.n < 2) continue;
      splittable.push_back(ci);
      if (solved_n[c.to_orig[0]] != c.sub.n) fresh.push_back(ci);
    }
    REPRO_CHECK_MSG(!splittable.empty(),
                    "no splittable component but fewer than k parts "
                    "(k > number of vertices?)");
    auto solve = [&comps, &splitter, &fresh, &solved_n, &solved_cut,
                  splitter_calls](std::size_t fi) {
      const Component& c = comps[fresh[fi]];
      solved_cut[c.to_orig[0]] = splitter(c.sub, splitter_calls + fi + 1);
      solved_n[c.to_orig[0]] = c.sub.n;
    };
    if (pool != nullptr && fresh.size() > 1) {
      ThreadPool::TaskGroup group(*pool);
      for (std::size_t fi = 0; fi < fresh.size(); ++fi) {
        group.run([&solve, fi] { solve(fi); });
      }
      group.wait();
    } else {
      for (std::size_t fi = 0; fi < fresh.size(); ++fi) solve(fi);
    }
    splitter_calls += fresh.size();

    // Pick the globally cheapest cut over every splittable component,
    // first-minimum-wins in component order.
    std::size_t best_comp = comps.size();
    Weight best_weight = kInfiniteWeight;
    for (const std::size_t ci : splittable) {
      const Weight w = solved_cut[comps[ci].to_orig[0]].weight;
      if (w < best_weight) {
        best_weight = w;
        best_comp = ci;
      }
    }

    // Remove the winning cut's crossing edges (add them to D). The winner's
    // cache entry goes stale by itself: its parts are smaller.
    REPRO_CHECK_MSG(best_comp != comps.size(),
                    "no splitter produced a finite-weight cut");
    const Component& win = comps[best_comp];
    const std::vector<std::uint8_t>& side = solved_cut[win.to_orig[0]].side;
    for (std::size_t j = 0; j < win.sub.edges.size(); ++j) {
      const auto& se = win.sub.edges[j];
      if (side[se.u] != side[se.v]) removed[win.edge_to_orig[j]] = 1;
    }
    ++out.iterations;
    if (on_iteration) on_iteration(out.iterations);
  }
}

ApproxKCutResult apx_split_k_cut_approx(const WGraph& g, std::uint32_t k,
                                        const ApproxMinCutOptions& opt) {
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = resolve_recursion_pool(opt.threads, owned);
  ApproxMinCutOptions base = opt;
  // A dedicated pool serves the component fan-out; per-component recursions
  // run sequentially inside it rather than building a pool per component.
  // (threads == 0 keeps the shared pool at both levels.)
  if (owned != nullptr) base.threads = 1;
  return apx_split_k_cut(
      g, k,
      [base](const WGraph& sub, std::uint64_t call_seq) {
        ApproxMinCutOptions o = base;
        o.seed = splitmix64(base.seed ^ call_seq);
        const ApproxMinCutResult r = approx_min_cut(sub, o);
        return MinCutResult{r.weight, r.side};
      },
      nullptr, pool);
}

ApproxKCutResult apx_split_k_cut_exact(const WGraph& g, std::uint32_t k,
                                       const kernel::KernelOptions& kopt) {
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = resolve_recursion_pool(0, owned);
  return apx_split_k_cut(
      g, k,
      [&kopt](const WGraph& sub, std::uint64_t) {
        return kernel::stoer_wagner_min_cut_kernelized(sub, kopt);
      },
      nullptr, pool);
}

}  // namespace ampccut
