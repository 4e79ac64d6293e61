// AMPC-MinCut recursion skeleton (Algorithm 1, Section 2).
//
// The boosted Karger–Stein schedule: an instance that has been contracted by
// a total factor t branches into ceil(x^(1-eps/3)) copies, each with fresh
// random contraction times; each copy's full contraction process is scanned
// for its smallest singleton cut (Lemma 2's witness), then contracted by a
// further factor x and recursed on. x = max(x_min, t^c) with
// c = (eps/3)/(1-eps/3), so t grows doubly exponentially and the recursion
// depth is O(log log n). Instances at or below the local threshold (the
// "fits in one machine's O(n^eps) memory" case, Algorithm 1 line 1) are
// solved exactly by Stoer–Wagner.
//
// Algorithm 1's defining property — all instances of a recursion level run
// in parallel — is realized literally: the driver fans trials and branches
// out as tasks on a ThreadPool (ThreadPool::TaskGroup supports the nested
// submission this recursion shape needs), stores every branch's outcome in a
// per-slot buffer, and reduces the slots sequentially in (trial, branch)
// order. Results — weight, witness side, and RecursionStats — are therefore
// bit-identical to the single-threaded run for every thread count (DESIGN.md
// "Parallel recursion scheduling"). `threads == 1` executes the historical
// depth-first path with zero task machinery.
//
// The skeleton is backend-parameterized: the sequential backend plugs in the
// small-to-large oracle tracker (mincut/singleton.h); the AMPC backend plugs
// in Section 4's tracker on the AMPC runtime and the MPC baseline prices its
// tree pipeline on the MPC runtime, both accounting rounds. All share this
// file's schedule, so round-complexity comparisons isolate the models, not
// the recursion.
// Backends must be thread-safe: hooks are invoked concurrently from branch
// tasks (all in-repo backends accumulate their metrics under a mutex or in
// per-call runtimes).
//
// Practical deviation (DESIGN.md): x_min defaults to 4 rather than 2. With
// x = 2 the early levels duplicate whole near-full-size instances (work
// doubles per level — fine on paper where "space" counts vertices, ruinous
// for multigraphs whose edge counts shrink sublinearly). x_min = 4 keeps
// per-level total work geometrically decreasing while preserving the
// doubly-exponential schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "exact/stoer_wagner.h"
#include "graph/graph.h"
#include "kernel/kernel.h"
#include "mincut/contraction.h"
#include "mincut/singleton.h"

namespace ampccut {

class ThreadPool;

// Resolves the `threads` knob shared by the recursion drivers: nullptr means
// the exact sequential path (threads == 1, or a shared pool that could not
// run anything concurrently anyway), otherwise the shared pool (threads ==
// 0) or a dedicated pool handed back through `owned` (threads == N > 1).
ThreadPool* resolve_recursion_pool(std::uint32_t threads,
                                   std::unique_ptr<ThreadPool>& owned);

struct ApproxMinCutOptions {
  double eps = 0.9;                // schedule parameter (paper's epsilon)
  double x_min = 4.0;              // minimum per-level contraction factor
  std::uint32_t max_branch = 8;    // practical cap on copies per level
  VertexId local_threshold = 32;   // solve exactly at or below this size
  std::uint32_t trials = 2;        // independent runs of the whole recursion
  std::uint64_t seed = 1;
  // Recursion parallelism: 0 = the shared pool (hardware concurrency),
  // 1 = the exact historical sequential execution path, N > 1 = a dedicated
  // N-thread pool for this call. Thread count never changes any result.
  std::uint32_t threads = 0;
  // Exact kernelization front-end (src/kernel): when kernel.enabled, the
  // input is reduced before the recursion runs and the kernel-side witness
  // is unpacked through the lineage; a fully reduced input skips the
  // recursion entirely. RecursionStats then describe the run on the KERNEL
  // (a solved kernel reports zero stats). Off by default so existing results
  // stay bit-identical. The AMPC/MPC drivers and the k-cut splitters embed
  // these options, so the knob reaches every backend from here.
  kernel::KernelOptions kernel;
};

struct RecursionStats {
  std::uint32_t depth = 0;            // deepest level reached (root = 0)
  std::uint64_t instances = 0;        // recursive instances processed
  std::uint64_t tracker_calls = 0;
  std::uint64_t local_solves = 0;
  std::uint64_t peak_level_edges = 0;  // max total edges across one level

  friend bool operator==(const RecursionStats&, const RecursionStats&) =
      default;
};

struct ApproxMinCutResult {
  Weight weight = kInfiniteWeight;
  std::vector<std::uint8_t> side;  // witness cut (original vertex ids)
  RecursionStats stats;
};

// Hooks that let the AMPC/MPC backends reuse the recursion skeleton. The
// `level` argument identifies the recursion depth of the call: in the model,
// all instances of one level execute in parallel, so backends account rounds
// per level as the maximum over that level's calls. With a multi-threaded
// driver the hooks of one level (and of independent subtrees) run
// concurrently — implementations must synchronize any shared accumulation
// (commutative reductions like max/sum keep the totals deterministic).
struct MinCutBackend {
  // Smallest singleton cut over the full contraction process of (g, order).
  std::function<SingletonCutResult(const WGraph&, const ContractionOrder&,
                                   std::uint32_t level)>
      track_singleton;
  // Exact min cut of a small instance (fits one machine's memory).
  std::function<MinCutResult(const WGraph&, std::uint32_t level)> solve_local;
  // Called once per branching step with the instances spawned at `level`.
  std::function<void(std::uint32_t level, std::uint64_t instances)> on_level;
};

// Sequential backend: oracle tracker + Stoer–Wagner.
MinCutBackend make_sequential_backend();

// Runs the recursion with the given backend. Handles disconnected inputs
// (returns a zero cut along a component). Requires n >= 2.
ApproxMinCutResult approx_min_cut_with_backend(const WGraph& g,
                                               const ApproxMinCutOptions& opt,
                                               const MinCutBackend& backend);

// Convenience: the recursion on the sequential backend.
ApproxMinCutResult approx_min_cut(const WGraph& g,
                                  const ApproxMinCutOptions& opt = {});

}  // namespace ampccut
