// The merge-policy workload shared by test_runtime_concurrency (one thread
// vs many) and test_table_pool (fresh tables vs leases): two rounds over
// `machines` machines hammering shared and private keys through all four
// merge policies plus a dense kSum table, adaptive reads of the first
// round's commits, and a driver-side put (overflow log) between the rounds.
#pragma once

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "ampc/runtime.h"

namespace ampccut::ampc::merge_workload {

// Everything observable about one workload run — committed contents of all
// four merge policies plus every metric the benches quote.
struct Outcome {
  std::vector<std::uint64_t> min_t, max_t, sum_t, ovr_t, dense;
  std::uint64_t rounds = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t max_traffic = 0;
  std::uint64_t peak_words = 0;
  std::uint64_t violations = 0;

  bool operator==(const Outcome&) const = default;
};

// The workload's five tables (min, max, sum, overwrite, dense), constructed
// directly. unique_ptr so the tuple is movable and -> works like a lease.
inline auto make_fresh_tables(Runtime& rt, std::size_t machines) {
  using T = DenseTable<std::uint64_t>;
  return std::tuple(
      std::make_unique<T>(rt, "min", 8, ~0ull, Merge::kMin),
      std::make_unique<T>(rt, "max", 8, 0, Merge::kMax),
      std::make_unique<T>(rt, "sum", 8, 0, Merge::kSum),
      std::make_unique<T>(rt, "ovr", 7778, 0, Merge::kOverwrite),
      std::make_unique<T>(rt, "dense", 8 + machines, 5, Merge::kSum));
}

// The same tables through Runtime::lease_dense.
inline auto make_leased_tables(Runtime& rt, std::size_t machines) {
  return std::tuple(
      rt.lease_dense<std::uint64_t>("min", 8, ~0ull, Merge::kMin),
      rt.lease_dense<std::uint64_t>("max", 8, 0, Merge::kMax),
      rt.lease_dense<std::uint64_t>("sum", 8, 0, Merge::kSum),
      rt.lease_dense<std::uint64_t>("ovr", 7778, 0, Merge::kOverwrite),
      rt.lease_dense<std::uint64_t>("dense", 8 + machines, 5, Merge::kSum));
}

// Runs the workload on `rt` over tables from `make(rt, machines)`.
template <class MakeTables>
Outcome run_merge_workload(Runtime& rt, std::size_t machines,
                           MakeTables&& make) {
  auto tables = make(rt, machines);
  auto& [tmin, tmax, tsum, tovr, dense] = tables;

  rt.round("phase1", machines, [&](MachineContext& ctx) {
    const auto m = static_cast<std::uint64_t>(ctx.machine_id());
    for (std::uint64_t k = 0; k < 4; ++k) {
      tmin->put(k, 100 + ((m * 7 + k) % 13));
      tmax->put(k, 100 + ((m * 5 + k) % 11));
      tsum->put(k, m + k);
      tovr->put(k, m);  // same-key overwrite race across all machines
    }
    tovr->put(1000 + m, m);  // private key, no race
    dense->put(m % 8, 1);
    dense->put(8 + m, m);
  });

  // Driver-side write outside any machine: staged in the overflow log,
  // visible after the next barrier.
  tovr->put(7777, 42);

  rt.round("phase2", machines, [&](MachineContext& ctx) {
    const auto m = static_cast<std::uint64_t>(ctx.machine_id());
    // Adaptive reads of phase-1 commits, then more merging writes.
    const auto v = tsum->get(0);
    tsum->put(4, v % 97);
    tmin->put(2, 50 + m);
    dense->put(m % 4, 2);
  });

  const auto contents = [](const auto& t) {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < t->size(); ++i) out.push_back(t->raw(i));
    return out;
  };
  Outcome out;
  out.min_t = contents(tmin);
  out.max_t = contents(tmax);
  out.sum_t = contents(tsum);
  out.ovr_t = contents(tovr);
  out.dense = contents(dense);
  const Metrics& m = rt.metrics();
  out.rounds = m.rounds;
  out.reads = m.dht_reads;
  out.writes = m.dht_writes;
  out.max_traffic = m.max_machine_traffic;
  out.peak_words = m.peak_table_words;
  out.violations = m.budget_violations.load();
  return out;
}

}  // namespace ampccut::ampc::merge_workload
