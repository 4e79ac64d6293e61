#include "ampc_algo/kcut_ampc.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "support/check.h"
#include "support/rng.h"
#include "support/threadpool.h"

namespace ampccut::ampc {

AmpcKCutReport ampc_apx_split_k_cut(const WGraph& g, std::uint32_t k,
                                    const AmpcMinCutOptions& opt) {
  AmpcKCutReport report;
  // Per-iteration round maxima: the greedy loop calls the splitter once per
  // component that iteration is the first to see; those components are
  // model-parallel (and, with a pool, actually parallel — the max/sum
  // accumulation below is commutative, so the report is thread-count
  // independent). on_iteration runs on the driving thread after every pass,
  // and the loop returns only at the start of a pass, so its flush is the
  // last one needed. Concurrent component tasks write the counters, so the
  // flush reads them under `mu`.
  std::mutex mu;
  std::uint64_t iter_measured = 0;
  std::uint64_t iter_charged = 0;

  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = resolve_recursion_pool(opt.recursion.threads, owned);
  AmpcMinCutOptions base = opt;
  if (owned != nullptr) base.recursion.threads = 1;  // see kcut.cpp

  // One runtime arena for the whole k-cut run: every component of every
  // greedy iteration leases tracker runtimes (and their pooled tables) from
  // it, instead of constructing a fresh Runtime per min-cut call.
  RuntimeArena arena;
  if (base.arena == nullptr) base.arena = &arena;

  const ApproxKCutResult r = apx_split_k_cut(
      g, k,
      [&, base](const WGraph& component, std::uint64_t call_seq) {
        AmpcMinCutOptions o = base;
        o.recursion.seed = splitmix64(base.recursion.seed ^ call_seq);
        const AmpcMinCutReport sub = ampc_approx_min_cut(component, o);
        {
          std::lock_guard<std::mutex> lock(mu);
          iter_measured = std::max(iter_measured, sub.measured_rounds);
          iter_charged = std::max(iter_charged, sub.charged_rounds);
          report.faults_injected += sub.faults_injected;
          report.machine_failures += sub.machine_failures;
          report.rounds_retried += sub.rounds_retried;
          report.budget_degradations += sub.budget_degradations;
        }
        return MinCutResult{sub.weight, sub.side};
      },
      [&](std::uint32_t) {
        std::lock_guard<std::mutex> lock(mu);
        report.measured_rounds += iter_measured;
        report.charged_rounds += iter_charged + 1;  // +1: component count [4]
        iter_measured = 0;
        iter_charged = 0;
      },
      pool);
  report.result = r;
  return report;
}

}  // namespace ampccut::ampc
