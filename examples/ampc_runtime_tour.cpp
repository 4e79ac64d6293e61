// Tour of the AMPC runtime itself: rounds, frozen-read/staged-write hash
// tables, adaptive mid-round reads (the model's superpower over MPC), and
// the metrics the benches report. Useful as a template for writing new
// AMPC algorithms against this simulator.
#include <cstdio>

#include "ampc/runtime.h"
#include "ampc_algo/list_ranking.h"

int main() {
  using namespace ampccut::ampc;

  // 4096-word problem, machines hold ~64 words (eps = 0.5).
  Runtime rt(Config::for_problem(4096, 0.5));
  std::printf("machine memory: %llu words\n",
              static_cast<unsigned long long>(
                  rt.config().machine_memory_words));

  // A distributed hash table over keys [0, 16), every slot initialized to
  // the kNoNext sentinel: writes staged during a round become visible only
  // after the round barrier (AMPC's H_{i-1} -> H_i discipline).
  DenseTable<std::uint64_t> table(rt, "tour", 16, kNoNext);
  rt.round("write_phase", 8, [&](MachineContext& ctx) {
    table.put(ctx.machine_id(), ctx.machine_id() * 100);
    // Not visible yet: this read sees the PREVIOUS round's table.
    if (table.get(ctx.machine_id()) == kNoNext) {
      // expected — staged writes are invisible mid-round
    }
  });

  // Adaptive reads: a machine may chase pointers through the table within a
  // single round — the capability MPC lacks. Build a chain and walk it.
  rt.round("adaptive_walk", 1, [&](MachineContext&) {
    std::uint64_t hops = 0;
    std::uint64_t cursor = 0;
    for (std::uint64_t v; (v = table.get(cursor)) != kNoNext;) {
      ++hops;
      if (v / 100 == 7) break;
      cursor = v / 100 + 1;
    }
    std::printf("adaptive walk made %llu dependent reads in ONE round\n",
                static_cast<unsigned long long>(hops));
  });

  // The flagship primitive: list ranking in O(1/eps) rounds.
  const std::uint64_t n = 3000;
  std::vector<std::uint64_t> next(n);
  for (std::uint64_t i = 0; i < n; ++i) next[i] = (i + 1 < n) ? i + 1 : kNoNext;
  const auto rank = list_rank(rt, next, std::vector<std::int64_t>(n, 1));
  std::printf("list_rank(%llu elements): head rank %lld (== n)\n",
              static_cast<unsigned long long>(n),
              static_cast<long long>(rank[0]));

  // Table leases: how the algorithm layer actually creates tables. A lease
  // behaves like a pointer to the table; releasing it returns the storage to
  // the runtime's pool, and the next lease of the same value type reuses
  // it — zero heap churn in steady state, identical semantics otherwise
  // (DESIGN.md "Table and runtime pooling").
  {
    auto scratch = rt.lease_dense<std::uint64_t>("tour.scratch", 64, 0);
    rt.round("leased_write", 4, [&](MachineContext& ctx) {
      scratch->put(ctx.machine_id(), 1);
    });
  }  // lease released here; storage parked in the pool
  {
    auto scratch = rt.lease_dense<std::uint64_t>("tour.scratch2", 64, 0);
    std::printf("\nsecond lease reused pooled storage (reuses so far: %llu); "
                "contents reset: slot 0 = %llu\n",
                static_cast<unsigned long long>(rt.pool_stats().reuses),
                static_cast<unsigned long long>(scratch->raw(0)));
  }

  const Metrics& m = rt.metrics();
  std::printf("\nmetrics:\n  rounds          : %llu measured, %llu cited\n"
              "  DHT traffic     : %llu reads, %llu writes\n"
              "  max per machine : %llu words in one round\n"
              "  budget overruns : %llu\n",
              static_cast<unsigned long long>(m.rounds),
              static_cast<unsigned long long>(m.charged_rounds),
              static_cast<unsigned long long>(m.dht_reads),
              static_cast<unsigned long long>(m.dht_writes),
              static_cast<unsigned long long>(m.max_machine_traffic),
              static_cast<unsigned long long>(m.budget_violations.load()));
  std::printf("\nper-label rounds:\n");
  for (const auto& [label, rounds] : m.rounds_by_label) {
    std::printf("  %-28s %llu\n", label.c_str(),
                static_cast<unsigned long long>(rounds));
  }
  return 0;
}
