#include "ampc_algo/mincut_ampc.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "ampc_algo/singleton_ampc.h"
#include "exact/stoer_wagner.h"
#include "support/check.h"

namespace ampccut::ampc {

AmpcMinCutReport ampc_approx_min_cut(const WGraph& g,
                                     const AmpcMinCutOptions& opt) {
  AmpcMinCutReport report;

  // Per-level maxima (instances of one level are model-parallel). The
  // recursion driver invokes the hooks concurrently; every accumulation is a
  // commutative max/sum, so the mutex only guards the containers — the
  // totals are the same for every thread count.
  std::mutex mu;
  std::map<std::uint32_t, std::uint64_t> level_measured;
  std::map<std::uint32_t, std::uint64_t> level_charged;
  bool any_local = false;

  // Tracker runs lease runtimes from the caller's arena (or a local one):
  // concurrent recursion branches get distinct runtimes, sequential reruns
  // reuse one runtime's pooled tables instead of reallocating them.
  RuntimeArena local_arena;
  RuntimeArena* arena = opt.arena != nullptr ? opt.arena : &local_arena;

  MinCutBackend backend;
  backend.track_singleton = [&, arena](const WGraph& inst,
                                       const ContractionOrder& o,
                                       std::uint32_t level) {
    AmpcSingletonOptions sopt;
    sopt.use_boruvka_msf = opt.use_boruvka_msf;
    // Graceful degradation under strict budgets: BudgetExceededError is
    // deterministic (the barrier never retries it), so rerun the instance
    // with a coarser model — larger eps means bigger machines and fewer of
    // them. Once eps tops out at 1 the last resort is rerunning with
    // enforcement relaxed to counting (still recorded as a degradation), so
    // the solve always completes and the stats say exactly what it cost. A
    // failed run's lease unwinds before the next acquire, so its metrics
    // are never counted; the tracker result itself is model-eps-independent.
    double eps = opt.model_eps;
    bool strict = opt.strict_budget;
    for (;;) {
      Config cfg = Config::for_problem(inst.n + inst.m(), eps);
      cfg.strict_budget = strict;
      cfg.fault = opt.fault;
      cfg.retry = opt.retry;
      RuntimeArena::Lease rt = arena->acquire(cfg);
      SingletonCutResult r;
      try {
        r = ampc_min_singleton_cut(*rt, inst, o, sopt);
      } catch (const BudgetExceededError&) {
        if (eps < 1.0) {
          eps = std::min(1.0, eps + std::max(0.01, opt.degrade_eps_step));
        } else {
          strict = false;  // terminal fallback: count instead of throwing
        }
        std::lock_guard<std::mutex> lock(mu);
        ++report.budget_degradations;
        continue;
      }
      const Metrics& m = rt->metrics();
      std::lock_guard<std::mutex> lock(mu);
      level_measured[level] = std::max(level_measured[level], m.rounds);
      level_charged[level] = std::max(level_charged[level], m.charged_rounds);
      report.dht_reads += m.dht_reads;
      report.dht_writes += m.dht_writes;
      report.max_machine_traffic =
          std::max(report.max_machine_traffic, m.max_machine_traffic);
      report.peak_table_words =
          std::max(report.peak_table_words, m.peak_table_words);
      report.budget_violations += m.budget_violations.load();
      report.faults_injected += m.faults_injected.load();
      report.machine_failures += m.machine_failures.load();
      report.rounds_retried += m.rounds_retried;
      return r;
    }
  };
  backend.solve_local = [&](const WGraph& inst, std::uint32_t) {
    {
      // Leaf instances fit one machine: one parallel round, counted once.
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

  const auto per_level_overhead = static_cast<std::uint64_t>(
      std::ceil(1.0 / std::max(0.1, opt.model_eps)));
  for (const auto& [level, rounds] : level_measured) {
    report.measured_rounds += rounds;
    report.charged_rounds += level_charged[level];
    // Copy + contract-to-target per level (Algorithm 1 lines 4/6): the
    // contraction is an O(1/eps)-round relabeling, charged as cited [4].
    report.charged_rounds += per_level_overhead;
    ++report.levels_used;
  }
  if (any_local) report.measured_rounds += 1;
  return report;
}

}  // namespace ampccut::ampc
