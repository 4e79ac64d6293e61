#include "kernel/front.h"

#include "support/check.h"
#include "support/threadpool.h"

namespace ampccut::kernel {

namespace {

template <class Solve>
MinCutResult solve_kernelized(const WGraph& g, const KernelOptions& opt,
                              const Solve& solve) {
  REPRO_CHECK(g.n >= 2);
  const KernelResult kr = kernelize(g, opt, &ThreadPool::shared());
  if (kr.solved()) return kr.resolved_cut();
  return kr.map.unpack(solve(kr.kernel));
}

}  // namespace

MinCutResult stoer_wagner_min_cut_kernelized(const WGraph& g,
                                             const KernelOptions& opt) {
  if (!opt.enabled) return stoer_wagner_min_cut(g);
  return solve_kernelized(
      g, opt, [](const WGraph& k) { return stoer_wagner_min_cut(k); });
}

}  // namespace ampccut::kernel
