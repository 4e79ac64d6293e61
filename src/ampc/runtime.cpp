#include "ampc/runtime.h"

#include <string_view>
#include <utility>

namespace ampccut::ampc {

thread_local MachineContext* MachineContext::current_ = nullptr;

namespace {
// Below this many staged entries the commit is one serial walk on the
// driver thread (TableBase::commit_sealed): fan-out and the shard partition
// would dominate, and the result is identical either way (every key sees its
// writes in machine-id order on both paths).
constexpr std::uint64_t kParallelCommitThreshold = 4096;
}  // namespace

Runtime::Runtime(Config cfg, ThreadPool* pool)
    : cfg_(std::move(cfg)),
      pool_(pool != nullptr ? *pool : ThreadPool::shared()) {}

namespace {

// Heterogeneous bump: only a label's first occurrence allocates its string.
void bump_label(std::map<std::string, std::uint64_t, std::less<>>& map,
                const char* label, std::uint64_t by) {
  const auto it = map.find(std::string_view(label));
  if (it != map.end()) {
    it->second += by;
  } else {
    map.emplace(label, by);
  }
}

}  // namespace

void Runtime::round(const char* label, std::size_t num_machines,
                    const std::function<void(MachineContext&)>& body) {
  ++metrics_.rounds;
  bump_label(metrics_.rounds_by_label, label, 1);
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> max_machine_traffic{0};
  std::atomic<std::uint64_t> violations{0};
  try {
    pool_.parallel_for(num_machines, [&](std::size_t machine) {
      MachineContext ctx(machine, pool_.worker_index());
      MachineContext::ScopedActivation scope(ctx);
      body(ctx);
      // Fold this machine's traffic and enforce the local-memory budget.
      reads.fetch_add(ctx.reads(), std::memory_order_relaxed);
      writes.fetch_add(ctx.writes(), std::memory_order_relaxed);
      const std::uint64_t total = ctx.reads() + ctx.writes();
      std::uint64_t seen = max_machine_traffic.load(std::memory_order_relaxed);
      while (seen < total && !max_machine_traffic.compare_exchange_weak(
                                 seen, total, std::memory_order_relaxed)) {
      }
      if (cfg_.enforce_local_memory && total > cfg_.machine_memory_words) {
        if (cfg_.strict_budget) {
          throw BudgetExceededError(label, machine, total,
                                    cfg_.machine_memory_words);
        }
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  } catch (...) {
    // BudgetExceededError is deterministic; REPRO_CHECK and user exceptions
    // indicate bugs. Clear the staging so the runtime stays reusable, then
    // surface the error unchanged.
    discard_machine_staging();
    throw;
  }
  metrics_.dht_reads += reads.load();
  metrics_.dht_writes += writes.load();
  metrics_.max_machine_traffic =
      std::max(metrics_.max_machine_traffic, max_machine_traffic.load());
  metrics_.budget_violations.fetch_add(violations.load(),
                                       std::memory_order_relaxed);
  // Commit all staged table writes at the round barrier (AMPC semantics:
  // writes become visible in the next round's hash table).
  commit_all();
}

void Runtime::discard_machine_staging() {
  std::lock_guard<std::mutex> lock(tables_mu_);
  for (auto* t : tables_) t->discard_machine_staged();
}

void Runtime::charge_rounds(const char* label, std::uint64_t rounds) {
  metrics_.charged_rounds += rounds;
  bump_label(metrics_.rounds_by_label, label, 0);  // ensure the label appears
  bump_label(metrics_.charged_by_label, label, rounds);
}

void Runtime::register_table(detail::TableBase* table) {
  std::lock_guard<std::mutex> lock(tables_mu_);
  tables_.push_back(table);
}

void Runtime::unregister_table(detail::TableBase* table) {
  std::lock_guard<std::mutex> lock(tables_mu_);
  std::erase(tables_, table);
}

void Runtime::release_leased(std::unique_ptr<detail::TableBase> table) {
  // Same program point as a direct table's destructor: the table leaves the
  // commit set now; its storage waits (unregistered, word count excluded)
  // for the next lease of the same concrete type to reset it in place.
  unregister_table(table.get());
  std::lock_guard<std::mutex> lock(pool_mu_);
  table_pool_[std::type_index(typeid(*table))].push_back(std::move(table));
}

Runtime::PoolStats Runtime::pool_stats() const {
  PoolStats stats;
  const auto add_bytes = [&stats](const detail::TableBase& t) {
    stats.staging_bytes += t.staging_bytes();
    stats.storage_bytes += t.storage_bytes();
  };
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    for (const auto* t : tables_) add_bytes(*t);
  }
  std::lock_guard<std::mutex> lock(pool_mu_);
  stats.leases = pool_stats_.leases;
  stats.reuses = pool_stats_.reuses;
  for (const auto& [type, pooled] : table_pool_) {  // commutative sums
    for (const auto& t : pooled) add_bytes(*t);
  }
  return stats;
}

void Runtime::reset_for_subproblem(const Config& cfg) {
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    REPRO_CHECK_MSG(tables_.empty(),
                    "reset_for_subproblem with live tables: the previous "
                    "subproblem's leases/tables must be released first");
  }
  cfg_ = cfg;
  metrics_.reset();
}

void Runtime::commit_all() {
  std::lock_guard<std::mutex> lock(tables_mu_);
  // Seal every table's staging logs (O(round participants), not
  // O(machines)) and gather the tables with staged writes.
  std::vector<detail::TableBase*> staged;
  std::uint64_t staged_total = 0;
  for (auto* t : tables_) {
    const std::uint64_t entries = t->seal_staged();
    if (entries == 0) continue;
    staged_total += entries;
    staged.push_back(t);
  }
  if (staged_total >= kParallelCommitThreshold) {
    // Flatten the two commit phases as task lists (phases fan out from here
    // rather than nesting a parallel_for per table, keeping one barrier per
    // phase across all tables).
    struct Task {
      detail::TableBase* table;
      std::size_t index;
    };
    std::vector<Task> partitions;
    std::vector<Task> shards;
    for (auto* t : staged) {
      for (std::size_t d = 0, nd = t->prepare_partition(); d < nd; ++d) {
        partitions.push_back({t, d});
      }
      for (std::size_t s = 0, ns = t->num_commit_shards(); s < ns; ++s) {
        shards.push_back({t, s});
      }
    }
    // Phase A: partition each block of every dirty staging log by shard.
    pool_.parallel_for(partitions.size(), [&](std::size_t i) {
      partitions[i].table->partition_staged(partitions[i].index);
    });
    // Phase B: each shard merges its slices of the dirty logs, machine order.
    pool_.parallel_for(shards.size(), [&](std::size_t i) {
      shards[i].table->commit_shard(shards[i].index);
    });
  } else {
    for (auto* t : staged) t->commit_sealed();
  }
  // Retained staging follows the round: every log, staged this round or
  // not, keeps at most twice the round's entries of capacity. Steady rounds
  // reallocate nothing; a large round's capacity goes once a round stages
  // less than half of it.
  const std::uint64_t keep = 2 * staged_total;
  std::uint64_t words = 0;
  for (auto* t : tables_) {
    t->finish_commit(keep);
    words += t->size_words();
  }
  metrics_.peak_table_words = std::max(metrics_.peak_table_words, words);
}

}  // namespace ampccut::ampc
