#include "mincut/mincut_recursive.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "exact/stoer_wagner.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/threadpool.h"

namespace ampccut {

namespace {

struct InstanceResult {
  Weight weight = kInfiniteWeight;
  std::vector<std::uint8_t> side;  // in the instance's own vertex ids
};

// Stats shared across concurrent instance tasks. Every field is a
// commutative reduction (count or max), so the totals are independent of
// task interleaving and match the depth-first accumulation bit for bit.
struct SharedStats {
  std::atomic<std::uint32_t> depth{0};
  std::atomic<std::uint64_t> instances{0};
  std::atomic<std::uint64_t> tracker_calls{0};
  std::atomic<std::uint64_t> local_solves{0};
  std::atomic<std::uint64_t> peak_level_edges{0};

  template <class T>
  static void fetch_max(std::atomic<T>& slot, T value) {
    T seen = slot.load(std::memory_order_relaxed);
    while (seen < value && !slot.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] RecursionStats snapshot() const {
    RecursionStats s;
    s.depth = depth.load();
    s.instances = instances.load();
    s.tracker_calls = tracker_calls.load();
    s.local_solves = local_solves.load();
    s.peak_level_edges = peak_level_edges.load();
    return s;
  }
};

// One branch's complete outcome, parked in its slot until the deterministic
// reduce. Keeping the contraction order and origin map around lets the
// reduce reconstruct witness sides lazily — only for branches that actually
// improve the running best, exactly as the sequential loop did.
struct BranchSlot {
  SingletonCutResult s;
  ContractionOrder order;
  std::vector<VertexId> origin;
  std::uint64_t child_edges = 0;
  InstanceResult sub;
};

class Driver {
 public:
  Driver(const ApproxMinCutOptions& opt, const MinCutBackend& backend,
         ThreadPool* pool)
      : opt_(opt), backend_(backend), pool_(pool) {
    c_exp_ = (opt.eps / 3.0) / (1.0 - opt.eps / 3.0);
  }

  // `scratch` is the caller-owned contraction arena for this chain of
  // sequential control: the sequential driver threads one arena through the
  // whole DFS, the parallel driver gives each branch task its own and passes
  // it down that task's subtree.
  InstanceResult run(const WGraph& g, double t_factor, std::uint32_t level,
                     Rng rng, ContractionScratch& scratch) {
    stats_.instances.fetch_add(1, std::memory_order_relaxed);
    SharedStats::fetch_max(stats_.depth, level);
    if (g.n <= opt_.local_threshold) {
      stats_.local_solves.fetch_add(1, std::memory_order_relaxed);
      if (g.n < 2) return {};  // nothing to cut
      const MinCutResult r = backend_.solve_local(g, level);
      return {r.weight, r.side};
    }
    const double x = std::max(opt_.x_min, std::pow(t_factor, c_exp_));
    const auto branches = static_cast<std::uint32_t>(std::clamp<double>(
        std::ceil(std::pow(x, 1.0 - opt_.eps / 3.0)), 2.0,
        static_cast<double>(opt_.max_branch)));
    const auto target = static_cast<VertexId>(std::max<double>(
        opt_.local_threshold, std::ceil(static_cast<double>(g.n) / x)));
    backend_.on_level(level, branches);
    return pool_ != nullptr
               ? run_branches_parallel(g, t_factor, level, rng, x, branches,
                                       target)
               : run_branches_sequential(g, t_factor, level, rng, x, branches,
                                         target, scratch);
  }

  SharedStats stats_;

 private:
  // The historical depth-first path (threads == 1): branch results are
  // folded into `best` as they are produced.
  InstanceResult run_branches_sequential(const WGraph& g, double t_factor,
                                         std::uint32_t level, Rng rng,
                                         double x, std::uint32_t branches,
                                         VertexId target,
                                         ContractionScratch& scratch) {
    InstanceResult best;
    std::uint64_t level_edges = 0;
    for (std::uint32_t b = 0; b < branches; ++b) {
      Rng branch_rng = rng.split(b);
      const ContractionOrder order =
          make_contraction_order(g, branch_rng.next_u64());
      // Lemma 2 witness: the best singleton cut anywhere in this copy's full
      // contraction process.
      stats_.tracker_calls.fetch_add(1, std::memory_order_relaxed);
      const SingletonCutResult s = backend_.track_singleton(g, order, level);
      if (s.weight < best.weight) {
        best.weight = s.weight;
        best.side = reconstruct_bag(g, order, s.rep, s.time);
      }
      // Contract this copy and recurse (Algorithm 1 lines 6-7).
      ContractedGraph c = contract_to_size(g, order, target, &scratch);
      REPRO_CHECK_MSG(c.g.n < g.n, "contraction made no progress");
      level_edges += c.g.edges.size();
      const InstanceResult sub = run(c.g, t_factor * x, level + 1,
                                     branch_rng.split(0x5eedULL), scratch);
      if (sub.weight < best.weight) {
        best.weight = sub.weight;
        // Lift the child's side through this contraction's origin map.
        best.side.assign(g.n, 0);
        for (VertexId v = 0; v < g.n; ++v) {
          best.side[v] = sub.side[c.origin[v]];
        }
      }
    }
    SharedStats::fetch_max(stats_.peak_level_edges, level_edges);
    return best;
  }

  // Task-DAG path: all branches of this instance fan out as pool tasks (the
  // recursion inside each branch fans out further), park their outcomes in
  // per-branch slots, and the slots reduce sequentially in branch order —
  // the same fold, same tie-breaks, same reconstructions as the depth-first
  // loop, so the result is bit-identical for every thread count.
  InstanceResult run_branches_parallel(const WGraph& g, double t_factor,
                                       std::uint32_t level, Rng rng, double x,
                                       std::uint32_t branches,
                                       VertexId target) {
    std::vector<BranchSlot> slots(branches);
    ThreadPool::TaskGroup group(*pool_);
    for (std::uint32_t b = 0; b < branches; ++b) {
      group.run([this, &g, &slots, rng, t_factor, level, x, target, b] {
        BranchSlot& slot = slots[b];
        Rng branch_rng = rng.split(b);
        slot.order = make_contraction_order(g, branch_rng.next_u64());
        stats_.tracker_calls.fetch_add(1, std::memory_order_relaxed);
        slot.s = backend_.track_singleton(g, slot.order, level);
        ContractionScratch scratch;
        ContractedGraph c = contract_to_size(g, slot.order, target, &scratch);
        REPRO_CHECK_MSG(c.g.n < g.n, "contraction made no progress");
        slot.child_edges = c.g.edges.size();
        slot.origin = std::move(c.origin);
        slot.sub = run(c.g, t_factor * x, level + 1,
                       branch_rng.split(0x5eedULL), scratch);
      });
    }
    group.wait();

    InstanceResult best;
    std::uint64_t level_edges = 0;
    for (std::uint32_t b = 0; b < branches; ++b) {
      BranchSlot& slot = slots[b];
      if (slot.s.weight < best.weight) {
        best.weight = slot.s.weight;
        best.side = reconstruct_bag(g, slot.order, slot.s.rep, slot.s.time);
      }
      level_edges += slot.child_edges;
      if (slot.sub.weight < best.weight) {
        best.weight = slot.sub.weight;
        best.side.assign(g.n, 0);
        for (VertexId v = 0; v < g.n; ++v) {
          best.side[v] = slot.sub.side[slot.origin[v]];
        }
      }
    }
    SharedStats::fetch_max(stats_.peak_level_edges, level_edges);
    return best;
  }

  const ApproxMinCutOptions& opt_;
  const MinCutBackend& backend_;
  ThreadPool* pool_;  // nullptr: sequential depth-first execution
  double c_exp_;
};

}  // namespace

ThreadPool* resolve_recursion_pool(std::uint32_t threads,
                                   std::unique_ptr<ThreadPool>& owned) {
  if (threads == 1) return nullptr;
  if (threads == 0 || threads == ThreadPool::shared().num_threads()) {
    ThreadPool& pool = ThreadPool::shared();
    return pool.num_threads() > 1 ? &pool : nullptr;
  }
  owned = std::make_unique<ThreadPool>(threads);
  return owned.get();
}

MinCutBackend make_sequential_backend() {
  MinCutBackend b;
  b.track_singleton = [](const WGraph& g, const ContractionOrder& o,
                         std::uint32_t) {
    return min_singleton_cut_oracle(g, o);
  };
  b.solve_local = [](const WGraph& g, std::uint32_t) {
    return stoer_wagner_min_cut(g);
  };
  b.on_level = [](std::uint32_t, std::uint64_t) {};
  return b;
}

ApproxMinCutResult approx_min_cut_with_backend(const WGraph& g,
                                               const ApproxMinCutOptions& opt,
                                               const MinCutBackend& backend) {
  REPRO_CHECK(g.n >= 2);
  REPRO_CHECK(opt.eps > 0.0 && opt.eps < 3.0);
  ApproxMinCutResult out;
  // Disconnected graphs have a zero cut along any component; the contraction
  // machinery assumes connectivity, so short-circuit here (the same guard the
  // AMPC driver applies with its O(1)-round connectivity primitive).
  const auto comp = component_labels(g);
  if (std::count(comp.begin(), comp.end(), comp[0]) !=
      static_cast<std::ptrdiff_t>(g.n)) {
    out.weight = 0;
    out.side.assign(g.n, 0);
    for (VertexId v = 0; v < g.n; ++v) out.side[v] = (comp[v] == comp[0]);
    return out;
  }

  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = resolve_recursion_pool(opt.threads, owned);

  // Exact kernelization front-end: reduce first, recurse on the kernel,
  // unpack the witness through the lineage afterwards. The reduction runs
  // its sorts on this call's resolved pool, so the kernel — like the
  // recursion — is bit-identical at every thread count.
  kernel::KernelResult kr;
  if (opt.kernel.enabled) {
    kr = kernel::kernelize(g, opt.kernel, pool);
    if (kr.solved()) {
      // The rules resolved the instance outright; the candidate is exact.
      const MinCutResult r = kr.resolved_cut();
      REPRO_CHECK(r.weight != kInfiniteWeight);
      out.weight = r.weight;
      out.side = r.side;
      return out;
    }
  }
  const WGraph& work = opt.kernel.enabled ? kr.kernel : g;

  Rng rng(opt.seed);
  Driver driver(opt, backend, pool);
  const std::uint32_t trials = std::max(1u, opt.trials);
  InstanceResult best;
  if (pool != nullptr && trials > 1) {
    // Trials are the outermost fan-out; reduce in trial order.
    std::vector<InstanceResult> results(trials);
    ThreadPool::TaskGroup group(*pool);
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      group.run([&driver, &work, &results, &rng, trial] {
        ContractionScratch scratch;
        results[trial] = driver.run(work, 1.0, 0, rng.split(trial), scratch);
      });
    }
    group.wait();
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      if (results[trial].weight < best.weight) {
        best = std::move(results[trial]);
      }
    }
  } else {
    ContractionScratch scratch;
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      const InstanceResult r =
          driver.run(work, 1.0, 0, rng.split(trial), scratch);
      if (r.weight < best.weight) best = r;
    }
  }
  REPRO_CHECK(best.weight != kInfiniteWeight);
  if (opt.kernel.enabled) {
    const MinCutResult lifted =
        kr.map.unpack({best.weight, std::move(best.side)});
    out.weight = lifted.weight;
    out.side = lifted.side;
  } else {
    out.weight = best.weight;
    out.side = std::move(best.side);
  }
  out.stats = driver.stats_.snapshot();
  return out;
}

ApproxMinCutResult approx_min_cut(const WGraph& g,
                                  const ApproxMinCutOptions& opt) {
  return approx_min_cut_with_backend(g, opt, make_sequential_backend());
}

}  // namespace ampccut
