// APX-SPLIT: greedy (4+eps)-approximate Min k-Cut (Algorithm 4, Section 5).
//
// Keeps a (2+eps)-approximate min cut for every current component, removes
// the globally cheapest one, and stops once at least k components exist.
// Theorem 2 bounds the result by (2+eps)(2-2/k) times the optimum via the
// Gomory–Hu cut sequence of Observation 10. The splitter is pluggable so the
// same greedy loop serves the sequential reference, the exact Saran–Vazirani
// baseline (splitter = Stoer–Wagner, (2-2/k)-approx), and the AMPC backend.
//
// Components of one greedy pass are independent (Algorithm 4 solves them in
// parallel), so the loop fans splitter calls out on a ThreadPool and reduces
// the candidate cuts in component order. After pass 1 only the parts of the
// last winner reach the splitter (see the reuse invariant below). The
// splitter receives a 1-based call sequence number — the count of splitter
// invocations actually made, in deterministic (iteration, component) order —
// so wrappers derive per-call seeds without mutable state and every thread
// count yields bit-identical partitions.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "mincut/mincut_recursive.h"

namespace ampccut {

class ThreadPool;

struct ApproxKCutResult {
  Weight weight = 0;
  std::vector<std::uint32_t> part;  // component id per vertex, in [0, >=k)
  std::uint32_t num_parts = 0;
  std::uint32_t iterations = 0;
  // Splitter calls across all passes (the last call_seq issued). Each
  // component is solved once, so a regression to re-solving shows here.
  std::uint64_t splitter_calls = 0;
};

// Splitter contract: given a connected component as a standalone graph
// (n >= 2) and the deterministic call sequence number, return an approximate
// (or exact) min cut with a valid side. May be invoked concurrently — any
// shared accumulation must be synchronized.
using ComponentSplitter =
    std::function<MinCutResult(const WGraph&, std::uint64_t call_seq)>;

// Greedy loop; requires 1 <= k <= g.n. With k == 1 returns the trivial
// partition. Reuse invariant: components only split, and every removed edge
// runs between two components, so (smallest original vertex, vertex count)
// names one component and one subgraph for the whole run. A component's cut
// is computed once, when that pair first appears, and reused on every later
// pass; each pass then removes the cheapest cut over all splittable
// components, first minimum in component order. `on_iteration` (when
// provided) fires at the end of each pass with the pass index — the AMPC
// wrapper uses it to account one parallel round-group per iteration over
// that pass's splitter calls (it always runs on the calling thread, between
// fan-outs). `pool` (optional) runs each pass's splitter calls as a
// task group; nullptr solves them sequentially. Results are identical either
// way.
ApproxKCutResult apx_split_k_cut(
    const WGraph& g, std::uint32_t k, const ComponentSplitter& splitter,
    const std::function<void(std::uint32_t)>& on_iteration = nullptr,
    ThreadPool* pool = nullptr);

// Convenience wrappers. Parallelism follows opt.threads (see
// ApproxMinCutOptions): the component fan-out uses the resolved pool and the
// per-component recursion shares it (threads == 1 is fully sequential).
ApproxKCutResult apx_split_k_cut_approx(const WGraph& g, std::uint32_t k,
                                        const ApproxMinCutOptions& opt = {});
// The Saran–Vazirani exact-splitter baseline ((2-2/k)-approximate). The
// splitter is Stoer–Wagner behind the kernelization front-end: with
// kopt.enabled each component is reduced before being solved (the default
// options leave the front-end off, preserving the historical behavior).
ApproxKCutResult apx_split_k_cut_exact(
    const WGraph& g, std::uint32_t k,
    const kernel::KernelOptions& kopt = {});

}  // namespace ampccut
