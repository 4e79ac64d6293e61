#include "ampc/runtime.h"

#include <string_view>
#include <utility>

#include "support/rng.h"

namespace ampccut::ampc {

thread_local MachineContext* MachineContext::current_ = nullptr;

namespace {
// Below this many staged entries the two-phase commit runs inline on the
// driver thread: fan-out overhead would dominate, and the result is
// identical either way (both paths apply shards in machine-id order).
constexpr std::uint64_t kParallelCommitThreshold = 4096;
}  // namespace

Runtime::Runtime(Config cfg, ThreadPool* pool)
    : cfg_(std::move(cfg)),
      pool_(pool != nullptr ? *pool : ThreadPool::shared()) {
  if (cfg_.fault.enabled()) {
    injector_ = std::make_unique<FaultInjector>(cfg_.fault);
  }
}

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
  {
    // Size every table's machine staging buffers (the overflow buffer for
    // driver-side writes is a separate member of each table); tables
    // registered mid-round are sized by register_table from round_buffers_.
    std::lock_guard<std::mutex> lock(tables_mu_);
    round_buffers_ = num_machines;
    for (auto* t : tables_) t->begin_round(round_buffers_);
  }
  // Stable round coordinate for fault scheduling: retries of one logical
  // round share it (the attempt index separates their rng draws).
  const std::uint64_t round_index = metrics_.rounds - 1;
  const std::uint32_t max_attempts =
      std::max<std::uint32_t>(1, cfg_.retry.max_attempts);
  for (std::uint32_t attempt = 0;; ++attempt) {
    fault_round_ = round_index;
    fault_attempt_ = attempt;
    // Round-local accumulators, folded into metrics_ only when the attempt
    // succeeds — a replayed round contributes its traffic exactly once, so
    // a recovered run's metrics are bit-identical to the fault-free run.
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> writes{0};
    std::atomic<std::uint64_t> max_machine_traffic{0};
    std::atomic<std::uint64_t> violations{0};
    try {
      pool_.parallel_for(num_machines, [&](std::size_t machine) {
        MachineContext ctx(machine);
        MachineContext::ScopedActivation scope(ctx);
        try {
          if (injector_ != nullptr) machine_entry_faults(ctx);
          body(ctx);
        } catch (const MachineFailedError&) {
          // Counted here (not at the throw site) so body-thrown failures
          // count too.
          metrics_.machine_failures.fetch_add(1, std::memory_order_relaxed);
          throw;
        }
        // Fold this machine's traffic and enforce the local-memory budget.
        reads.fetch_add(ctx.reads(), std::memory_order_relaxed);
        writes.fetch_add(ctx.writes(), std::memory_order_relaxed);
        const std::uint64_t total = ctx.reads() + ctx.writes();
        std::uint64_t seen =
            max_machine_traffic.load(std::memory_order_relaxed);
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
    } catch (const MachineFailedError& e) {
      // Transient failure: committed tables are untouched by construction
      // (frozen reads; writes only staged), so dropping the staging and
      // replaying the round reproduces the unfailed execution exactly.
      discard_machine_staging();
      if (attempt + 1 >= max_attempts) {
        throw RetriesExhaustedError(label, round_index, max_attempts,
                                    e.what());
      }
      ++metrics_.rounds_retried;
      if (cfg_.retry.backoff_spin != 0) {
        fault_delay_spin(splitmix64(round_index ^ (attempt + 1)),
                         cfg_.retry.backoff_spin);
      }
      continue;
    } catch (...) {
      // Non-retryable (BudgetExceededError is deterministic; REPRO_CHECK
      // and user exceptions indicate bugs): clear the staging so the
      // runtime stays reusable, then surface the error unchanged.
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
    return;
  }
}

// The three injection sites. Decisions are pure in (round, machine,
// attempt); a positive one throws MachineFailedError, which the machine
// wrapper counts and the barrier's retry loop recovers from. The injected
// counter bumps even on attempts whose staging is later discarded — faults
// happened, only their effects were rolled back.
void Runtime::machine_entry_faults(MachineContext& ctx) {
  const std::uint64_t machine = ctx.machine_id();
  if (injector_->fires(FaultKind::kSlowMachine, fault_round_, machine,
                       fault_attempt_)) {
    metrics_.faults_injected.fetch_add(1, std::memory_order_relaxed);
    fault_delay_spin(splitmix64(fault_round_ ^ (machine * 2 + 1)),
                     injector_->plan().delay_spin);
  }
  if (injector_->fires(FaultKind::kMachineCrash, fault_round_, machine,
                       fault_attempt_)) {
    metrics_.faults_injected.fetch_add(1, std::memory_order_relaxed);
    throw MachineFailedError(fault_round_, machine, "injected machine crash");
  }
}

void Runtime::fault_read_slow(MachineContext& ctx) {
  if (injector_->fires(FaultKind::kTableReadFail, fault_round_,
                       ctx.machine_id(), fault_attempt_)) {
    metrics_.faults_injected.fetch_add(1, std::memory_order_relaxed);
    throw MachineFailedError(fault_round_, ctx.machine_id(),
                             "injected table-read failure");
  }
}

void Runtime::fault_write_slow(MachineContext& ctx) {
  if (injector_->fires(FaultKind::kStagedWriteLoss, fault_round_,
                       ctx.machine_id(), fault_attempt_)) {
    metrics_.faults_injected.fetch_add(1, std::memory_order_relaxed);
    throw MachineFailedError(fault_round_, ctx.machine_id(),
                             "injected staged-write loss");
  }
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
  table->begin_round(round_buffers_);
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
  std::lock_guard<std::mutex> lock(pool_mu_);
  return pool_stats_;
}

void Runtime::reset_for_subproblem(const Config& cfg) {
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    REPRO_CHECK_MSG(tables_.empty(),
                    "reset_for_subproblem with live tables: the previous "
                    "subproblem's leases/tables must be released first");
    round_buffers_ = 0;
  }
  cfg_ = cfg;
  metrics_.reset();
  // Rebuild the injector from the new plan; the next subproblem's fault
  // schedule restarts at round 0 exactly as a fresh Runtime's would.
  injector_.reset();
  if (cfg_.fault.enabled()) {
    injector_ = std::make_unique<FaultInjector>(cfg_.fault);
  }
}

void Runtime::commit_all() {
  std::lock_guard<std::mutex> lock(tables_mu_);
  // Seal every table's dirty-buffer list (O(buffers actually written), not
  // O(machines)) and gather the ones with staged writes.
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
      for (std::size_t d = 0, nd = t->num_dirty_buffers(); d < nd; ++d) {
        partitions.push_back({t, d});
      }
      for (std::size_t s = 0, ns = t->num_commit_shards(); s < ns; ++s) {
        shards.push_back({t, s});
      }
    }
    // Phase A: partition each dirty staging buffer by destination shard.
    pool_.parallel_for(partitions.size(), [&](std::size_t i) {
      partitions[i].table->partition_staged(partitions[i].index);
    });
    // Phase B: apply each shard's slice of every dirty buffer, machine order.
    pool_.parallel_for(shards.size(), [&](std::size_t i) {
      shards[i].table->commit_shard(shards[i].index);
    });
    for (auto* t : staged) t->finish_commit();
  } else {
    for (auto* t : staged) t->commit_sealed();
  }
  std::uint64_t words = 0;
  for (auto* t : tables_) words += t->size_words();
  metrics_.peak_table_words = std::max(metrics_.peak_table_words, words);
}

}  // namespace ampccut::ampc
