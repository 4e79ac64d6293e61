// AMPC-MinCut (Algorithm 1 / Theorem 1): the boosted recursion skeleton with
// the AMPC singleton tracker, plus model round accounting.
//
// Accounting model: all instances of a recursion level run in parallel, so
// the level's round cost is the MAXIMUM over its tracker runs; the total is
// the sum over levels plus O(1) per level for the copy/contract step and one
// round for the leaf-level local solves (an instance at or below the local
// threshold fits in one machine's O(n^eps) memory — Algorithm 1 line 1).
// Measured rounds (executed on the simulator) and charged rounds (cited
// primitives: MSF, sorts, RMQ build — see DESIGN.md) are reported separately.
//
// DHT-traffic shape: the report SUMS reads/writes over every tracker run
// (unlike rounds, which take per-level maxima) — total words are what a
// deployment pays, parallel or not. Each tracker run contributes the
// singleton tracker's O((n_i + m_i) log n_i) words on its instance
// (singleton_ampc.h); instance sizes shrink geometrically down the
// recursion, so the top level dominates. max_machine_traffic /
// peak_table_words / budget_violations are maxima (resp. sums) over runs,
// E1 tracks them against n.
#pragma once

#include <cstdint>

#include "ampc/runtime.h"
#include "graph/graph.h"
#include "mincut/mincut_recursive.h"

namespace ampccut::ampc {

struct AmpcMinCutOptions {
  ApproxMinCutOptions recursion;  // schedule (eps, trials, threshold, seed)
  double model_eps = 0.5;         // machine memory exponent N^eps
  bool use_boruvka_msf = false;   // measured MSF instead of cited (E10)
  // Borrowed runtime arena: tracker runs lease runtimes (and their table
  // pools) from here instead of constructing one per call. nullptr = a
  // per-call local arena. k-cut shares one arena across all components and
  // iterations; benches can share one across sweep points. Never affects
  // results or metrics (DESIGN.md "Table and runtime pooling").
  RuntimeArena* arena = nullptr;
  // Unread: kept only because cutbench/src/solve_rings.cpp still reads it.
  FaultPlan fault;
  // Unread: kept only because cutbench/src/solve_rings.cpp still reads it.
  RetryPolicy retry;
  // Unread: kept only because cutbench/src/solve_rings.cpp still reads it.
  TransportKind transport = TransportKind::kLocal;
  // Unread: kept only because cutbench/src/solve_rings.cpp still reads it.
  std::uint32_t num_processes = 2;
  // Escalate budget violations to BudgetExceededError inside the tracker;
  // the tracker hook then degrades gracefully: rerun the instance with
  // model_eps bumped by degrade_eps_step (bigger machines, fewer of them)
  // until it fits or eps reaches 1. Each rerun is surfaced in the report's
  // budget_degradations.
  bool strict_budget = false;
  double degrade_eps_step = 0.25;
};

struct AmpcMinCutReport {
  Weight weight = kInfiniteWeight;
  std::vector<std::uint8_t> side;
  RecursionStats stats;

  // Model-level costs (see header comment).
  std::uint64_t measured_rounds = 0;
  std::uint64_t charged_rounds = 0;
  std::uint32_t levels_used = 0;   // recursion levels with tracker activity
  std::uint64_t dht_reads = 0;
  std::uint64_t dht_writes = 0;
  std::uint64_t max_machine_traffic = 0;
  std::uint64_t peak_table_words = 0;
  std::uint64_t budget_violations = 0;

  // Strict-budget reruns, summed over tracker runs (options comment).
  std::uint64_t budget_degradations = 0;

  [[nodiscard]] std::uint64_t model_rounds() const {
    return measured_rounds + charged_rounds;
  }
};

AmpcMinCutReport ampc_approx_min_cut(const WGraph& g,
                                     const AmpcMinCutOptions& opt = {});

}  // namespace ampccut::ampc
