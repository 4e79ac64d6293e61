// The AMPC model simulator (Section 1.1; Behnezhad et al. [3]).
//
// Model recap: P machines with O(n^eps) local memory run synchronous rounds.
// During a round every machine may *adaptively* read the distributed hash
// table written by previous rounds (H_{i-1}); writes go to the next table
// (H_i) and become visible only after the round barrier. We simulate this
// with:
//   * Runtime::round(label, machines, body) — executes `machines` virtual
//     machines on a thread pool, counts one model round, and commits all
//     staged table writes at the barrier;
//   * DenseTable<V> — the distributed hash table, with frozen reads (only
//     data committed in earlier rounds is visible) and staged writes. Every
//     table of the algorithms is keyed by a vertex or edge id in [0, n), so
//     a dense array serves as the hash table, without hashing;
//   * MachineContext — tracks per-machine read/write word counts against the
//     O(n^eps) budget (the model bounds a machine's DHT traffic per round by
//     its local memory).
//
// Write path (DESIGN.md "Runtime concurrency & staging"): put() appends the
// entry, tagged with its machine id, to the staging log of the thread
// running the machine — one log per round participant (each pool worker,
// plus the calling thread), so no locks and no sharing, and staging memory
// follows the entries a round stages, not its machine count. A thread runs
// its machines in ascending id order, so every log is sorted by machine id.
// At the barrier the runtime commits in two parallel phases: (A) each log
// is partitioned by destination shard, (B) each shard merges its slices of
// the logs by machine id. Small rounds skip the partition and merge the
// logs in one serial walk, in the same order. Machine order makes committed
// contents (and hence kOverwrite races) independent of the thread schedule,
// and the frozen-read invariant holds because committed storage is only
// ever touched between rounds. After the commit a log keeps at most twice
// the round's staged entries of capacity.
//
// Failure semantics (DESIGN.md "Fault injection & round-level recovery"): a
// machine that throws MachineFailedError — injected by Config::fault or
// thrown by the body — fails only its round. The barrier discards the
// round's machine staging logs (committed state is untouched by
// construction) and replays the round under Config::retry; past
// max_attempts, RetriesExhaustedError surfaces. Any other exception also
// leaves the runtime reusable: staging cleared, leases releasable,
// reset_for_subproblem legal.
//
// Metrics separate *measured* rounds (what the simulator executed) from
// *charged* rounds (published costs of cited primitives — see DESIGN.md
// round-accounting policy; only the MSF primitive uses charging).
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "ampc/fault.h"
#include "support/bits.h"
#include "support/check.h"
#include "support/errors.h"
#include "support/psort.h"
#include "support/threadpool.h"

namespace ampccut::ampc {

// Round execution backend: machines always run as thread-pool tasks in this
// process. The type exists only for the inert Config::transport field.
enum class TransportKind : std::uint8_t { kLocal };

struct Config {
  double eps = 0.5;                 // machine memory exponent
  std::uint64_t problem_size = 0;   // N = n + m; machine memory = N^eps
  std::uint64_t machine_memory_words = 0;  // derived if 0
  bool enforce_local_memory = true;  // count (or, strict, throw on) violations
  // Strict budget mode: a machine whose round traffic exceeds
  // machine_memory_words throws BudgetExceededError instead of bumping the
  // violation counter. Deterministic, so the barrier never retries it — the
  // algorithm layer catches it and degrades (mincut_ampc.h).
  bool strict_budget = false;
  // Unread: kept only because cutbench/src/solve_rings.cpp still assigns it.
  TransportKind transport = TransportKind::kLocal;
  // Unread: kept only because cutbench/src/solve_rings.cpp still assigns it.
  std::uint32_t num_processes = 2;
  // Deterministic fault injection + bounded round-level recovery (fault.h).
  // Default plan is empty: all hooks compile down to one null check.
  FaultPlan fault;
  RetryPolicy retry;

  static Config for_problem(std::uint64_t n_plus_m, double eps = 0.5) {
    Config c;
    c.eps = eps;
    c.problem_size = n_plus_m;
    c.machine_memory_words = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(
                std::pow(static_cast<double>(n_plus_m), eps)));
    return c;
  }

  [[nodiscard]] std::uint64_t num_machines(std::uint64_t items) const {
    return std::max<std::uint64_t>(
        1, ceil_div(items, std::max<std::uint64_t>(1, machine_memory_words)));
  }
};

struct Metrics {
  std::uint64_t rounds = 0;          // measured (executed) rounds
  std::uint64_t charged_rounds = 0;  // cited-cost rounds (MSF only)
  std::uint64_t dht_reads = 0;       // words read from tables
  std::uint64_t dht_writes = 0;      // words staged into tables
  std::uint64_t max_machine_traffic = 0;  // per machine per round
  std::uint64_t peak_table_words = 0;     // total-memory proxy
  std::atomic<std::uint64_t> budget_violations{0};
  // Robustness counters (fault.h). Injected faults and machine failures are
  // recorded as they happen — including on attempts whose staging is later
  // discarded — while rounds_retried counts the extra (replay) executions.
  // Everything above this comment is bit-identical between a faulted run
  // whose retries succeed and the fault-free run.
  std::uint64_t rounds_retried = 0;
  std::atomic<std::uint64_t> faults_injected{0};
  std::atomic<std::uint64_t> machine_failures{0};
  // Transparent comparators: the per-round bump looks labels up by const
  // char* without materializing a std::string (rounds are fine-grained
  // enough that the temporary showed up in profiles).
  std::map<std::string, std::uint64_t, std::less<>> rounds_by_label;
  std::map<std::string, std::uint64_t, std::less<>> charged_by_label;

  [[nodiscard]] std::uint64_t model_rounds() const {
    return rounds + charged_rounds;
  }

  // Restore construction state (Runtime::reset_for_subproblem). Metrics is
  // not assignable (the atomic), so reuse resets fields in place.
  void reset() {
    rounds = 0;
    charged_rounds = 0;
    dht_reads = 0;
    dht_writes = 0;
    max_machine_traffic = 0;
    peak_table_words = 0;
    budget_violations.store(0, std::memory_order_relaxed);
    rounds_retried = 0;
    faults_injected.store(0, std::memory_order_relaxed);
    machine_failures.store(0, std::memory_order_relaxed);
    rounds_by_label.clear();
    charged_by_label.clear();
  }
};

namespace detail {

// Commit protocol between Runtime and the tables, implemented by DenseTable
// below. The barrier seals each table's dirty logs (the staging logs that
// received entries this round), then runs two phases the runtime can fan
// out over the thread pool:
//   phase A  partition_staged(b) — group the b-th block of a dirty log by
//            shard (independent across blocks);
//   phase B  commit_shard(s)     — apply shard s's slices of the dirty logs
//            merged by machine id, the overflow log last (independent
//            across shards: disjoint index ranges).
// Below the runtime's parallel threshold, commit_sealed() replaces both
// phases with one serial walk. finish_commit() then runs on every
// registered table, staged or not.
class TableBase {
 public:
  virtual ~TableBase() = default;

  // Seals the round's dirty logs for commit (driver thread, between
  // rounds). Returns the number of staged entries; 0 means nothing to do.
  virtual std::uint64_t seal_staged() = 0;
  // Cuts a sealed table's dirty logs into phase-A blocks and sizes the
  // partition scratch (driver thread); returns the number of blocks.
  virtual std::size_t prepare_partition() = 0;
  [[nodiscard]] virtual std::size_t num_commit_shards() const = 0;
  virtual void partition_staged(std::size_t block) = 0;
  virtual void commit_shard(std::size_t shard) = 0;
  // Empties every staging log and releases any staging capacity above
  // `keep_entries` entries (the runtime passes twice the round's total).
  virtual void finish_commit(std::uint64_t keep_entries) = 0;
  [[nodiscard]] virtual std::uint64_t size_words() const = 0;

  // Heap bytes held by staging (logs, partition copy, shard offsets) and by
  // committed storage — Runtime::pool_stats.
  [[nodiscard]] virtual std::uint64_t staging_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t storage_bytes() const = 0;

  // Round-level recovery (driver thread, after a failed round's barrier):
  // drop every machine staging log without applying it, leaving committed
  // contents untouched. The driver-side overflow log survives — it was
  // staged outside the failed round and must still commit with the retry.
  virtual void discard_machine_staged() = 0;

  // Serial commit of an already-sealed table (small rounds): one walk that
  // merges the dirty logs by machine id, program order within a machine,
  // the overflow log last, with no shard partition. Bit-identical to phases
  // A+B: shards own disjoint indices, so every index sees its writes in the
  // same order.
  virtual void commit_sealed() = 0;
};

}  // namespace detail

class Runtime;
template <class T>
class TableLease;
template <class V>
class DenseTable;

// Merge policies for writes committed under the same index in one round.
enum class Merge { kOverwrite, kMin, kMax, kSum };

// Per-virtual-machine context; installed thread-locally while the machine's
// task runs so table reads can be accounted to the right machine, and table
// writes staged in the running thread's log (`slot`, the thread's
// ThreadPool::worker_index in the runtime's pool).
class MachineContext {
 public:
  MachineContext(std::size_t machine_id, std::size_t slot)
      : machine_(machine_id), slot_(slot) {}

  [[nodiscard]] std::size_t machine_id() const { return machine_; }
  [[nodiscard]] std::size_t slot() const { return slot_; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }

  void count_read(std::uint64_t words = 1) { reads_ += words; }
  void count_write(std::uint64_t words = 1) { writes_ += words; }

  static MachineContext* current() { return current_; }

  struct ScopedActivation {
    explicit ScopedActivation(MachineContext& ctx) { current_ = &ctx; }
    ~ScopedActivation() { current_ = nullptr; }
  };

 private:
  friend struct ScopedActivation;
  std::size_t machine_;
  std::size_t slot_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  static thread_local MachineContext* current_;
};

class Runtime {
 public:
  // `pool` overrides the shared pool (tests pin thread counts with it);
  // nullptr selects ThreadPool::shared().
  explicit Runtime(Config cfg, ThreadPool* pool = nullptr);

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] Metrics& metrics() { return metrics_; }

  // One synchronous AMPC round: `num_machines` virtual machines execute
  // `body`, then all staged table writes commit.
  void round(const char* label, std::size_t num_machines,
             const std::function<void(MachineContext&)>& body);

  // Round over a flat item domain: machines receive contiguous item chunks
  // of at most machine_memory_words items.
  template <class F>
  void round_over_items(const char* label, std::uint64_t num_items, F&& body) {
    const std::uint64_t per =
        std::max<std::uint64_t>(1, cfg_.machine_memory_words);
    const std::uint64_t machines = cfg_.num_machines(num_items);
    round(label, machines, [&](MachineContext& ctx) {
      const std::uint64_t begin = ctx.machine_id() * per;
      const std::uint64_t end = std::min(num_items, begin + per);
      for (std::uint64_t i = begin; i < end; ++i) body(ctx, i);
    });
  }

  // Account the published round cost of a cited primitive (see DESIGN.md).
  void charge_rounds(const char* label, std::uint64_t rounds);

  void register_table(detail::TableBase* table);
  void unregister_table(detail::TableBase* table);

  // Round participants: the pool's workers plus one calling thread, which
  // number the staging logs of every table (MachineContext::slot).
  [[nodiscard]] std::size_t participants() const {
    return pool_.num_threads() + 1;
  }

  // --- Table pooling (DESIGN.md "Table and runtime pooling") --------------
  //
  // lease_dense replaces direct DenseTable construction in the algorithm
  // layer: the returned TableLease behaves like the table (operator->),
  // registers it for the barrier commit exactly as the constructor does, and
  // on destruction returns the object — committed storage and staging logs
  // (capped at twice the last committed round's entries) — to a per-runtime
  // free list keyed by value type. A pool hit resets the committed contents
  // in place (an O(size) fill) with zero heap churn in steady state.
  // Contents, metrics, and traffic are bit-identical to fresh construction:
  // registration happens at the same program points and reset() restores
  // exactly the constructed state.

  template <class V>
  TableLease<DenseTable<V>> lease_dense(std::string name, std::size_t size,
                                        V init = V{},
                                        Merge policy = Merge::kOverwrite);

  // Reuse this runtime (and its table pool) for the next subproblem of a
  // larger solve: restores config and metrics to construction state. Must be
  // called with no live tables — leases and direct tables of the previous
  // subproblem have to be gone, or their words would leak into the next
  // subproblem's accounting.
  void reset_for_subproblem(const Config& cfg);

  struct PoolStats {
    std::uint64_t leases = 0;  // lease_dense calls
    std::uint64_t reuses = 0;  // leases served from the free list
    // Heap bytes held by the live and pooled tables: staging logs with
    // their partition copies and offsets, and committed storage.
    std::uint64_t staging_bytes = 0;
    std::uint64_t storage_bytes = 0;

    PoolStats& operator+=(const PoolStats& o) {
      leases += o.leases;
      reuses += o.reuses;
      staging_bytes += o.staging_bytes;
      storage_bytes += o.storage_bytes;
      return *this;
    }
  };
  // Driver thread, between rounds.
  [[nodiscard]] PoolStats pool_stats() const;

  // --- Fault-injection hooks (fault.h) ------------------------------------
  // Called by DenseTable on the read and put paths while a machine context
  // is active; one predictable null check when no plan is installed.
  void fault_point_read(MachineContext& ctx) {
    if (injector_ != nullptr) fault_read_slow(ctx);
  }
  void fault_point_write(MachineContext& ctx) {
    if (injector_ != nullptr) fault_write_slow(ctx);
  }

 private:
  template <class T>
  friend class TableLease;

  void commit_all();

  // Free-list access for the lease machinery. take_pooled returns nullptr on
  // a pool miss (caller constructs fresh); release_leased unregisters and
  // stashes. Both lock pool_mu_ only — safe from round bodies.
  template <class T>
  std::unique_ptr<T> take_pooled() {
    std::lock_guard<std::mutex> lock(pool_mu_);
    ++pool_stats_.leases;
    const auto it = table_pool_.find(std::type_index(typeid(T)));
    if (it == table_pool_.end() || it->second.empty()) return nullptr;
    std::unique_ptr<detail::TableBase> base = std::move(it->second.back());
    it->second.pop_back();
    ++pool_stats_.reuses;
    return std::unique_ptr<T>(static_cast<T*>(base.release()));
  }

  void release_leased(std::unique_ptr<detail::TableBase> table);

  // Fault slow paths and the recovery helper (runtime.cpp).
  void fault_read_slow(MachineContext& ctx);
  void fault_write_slow(MachineContext& ctx);
  void machine_entry_faults(MachineContext& ctx);
  void discard_machine_staging();

  Config cfg_;
  Metrics metrics_;
  ThreadPool& pool_;
  // Installed when cfg_.fault.enabled(); decisions read fault_round_ /
  // fault_attempt_, which only the driver writes (between pool barriers, so
  // the batch hand-off publishes them to the workers).
  std::unique_ptr<FaultInjector> injector_;
  std::uint64_t fault_round_ = 0;
  std::uint32_t fault_attempt_ = 0;
  mutable std::mutex tables_mu_;
  std::vector<detail::TableBase*> tables_;  // guarded by tables_mu_
  // Pooled (currently unleased) tables by concrete type. Declared after
  // tables_mu_/tables_ so pooled tables — whose destructors call
  // unregister_table — are destroyed while those members are still alive.
  mutable std::mutex pool_mu_;
  std::unordered_map<std::type_index,
                     std::vector<std::unique_ptr<detail::TableBase>>>
      table_pool_;  // guarded by pool_mu_
  PoolStats pool_stats_;  // guarded by pool_mu_
};

// RAII handle for a pooled table (Runtime::lease_dense).
// Move-only; behaves like a pointer to the table. Destruction (or release())
// unregisters the table from the runtime and returns its storage to the
// runtime's pool — the same program point where a directly-constructed
// table's destructor would have run.
template <class T>
class TableLease {
 public:
  TableLease() = default;
  TableLease(Runtime* rt, std::unique_ptr<T> table)
      : rt_(rt), table_(std::move(table)) {}
  TableLease(TableLease&& other) noexcept
      : rt_(other.rt_), table_(std::move(other.table_)) {
    other.rt_ = nullptr;
  }
  TableLease& operator=(TableLease&& other) noexcept {
    if (this != &other) {
      release();
      rt_ = other.rt_;
      table_ = std::move(other.table_);
      other.rt_ = nullptr;
    }
    return *this;
  }
  TableLease(const TableLease&) = delete;
  TableLease& operator=(const TableLease&) = delete;
  ~TableLease() { release(); }

  T* operator->() const { return table_.get(); }
  T& operator*() const { return *table_; }
  explicit operator bool() const { return table_ != nullptr; }

  void release() {
    if (table_ != nullptr) rt_->release_leased(std::move(table_));
    rt_ = nullptr;
  }

 private:
  Runtime* rt_ = nullptr;
  std::unique_ptr<T> table_;
};

// Dense uint64-indexed table: the model's distributed hash table for keys in
// [0, size), array-backed. Reads see only data committed at a previous round
// barrier; put() stages into the running thread's staging log (lock-free —
// see the header comment) and commits at the barrier through the TableBase
// protocol. Commit shards are contiguous index ranges, so phase B stays
// cache-friendly. Entries reach committed storage in machine-id order,
// program order within a machine, overflow last, so same-index kOverwrite
// writes resolve to the highest-machine-id writer.
template <class V>
class DenseTable final : public detail::TableBase {
 public:
  DenseTable(Runtime& rt, const std::string& name, std::size_t size,
             V init = V{}, Merge policy = Merge::kOverwrite)
      : rt_(rt),
        policy_(checked_policy(name, policy)),
        logs_(rt.participants() + 1),
        data_(size, init),
        shard_size_(shard_size_for(size)) {
    dirty_.reserve(logs_.size());
    rt_.register_table(this);
  }
  ~DenseTable() override { rt_.unregister_table(this); }
  // The runtime holds the table's address until destruction.
  DenseTable(const DenseTable&) = delete;
  DenseTable& operator=(const DenseTable&) = delete;

  // Adaptive read during a round, charged to `ctx`: the round bodies of the
  // algorithm layer read through this (DESIGN.md "Counted reads").
  V get(MachineContext& ctx, std::uint64_t i) const {
    REPRO_DCHECK(i < data_.size());
    rt_.fault_point_read(ctx);
    ctx.count_read(kWords);
    return data_[i];
  }
  // The same read, charged to the thread's active machine; driver-side reads
  // (no active machine) count nothing.
  V get(std::uint64_t i) const {
    if (auto* ctx = MachineContext::current()) return get(*ctx, i);
    REPRO_DCHECK(i < data_.size());
    return data_[i];
  }

  // Staged write; visible after the enclosing round's barrier.
  void put(std::uint64_t i, V value) {
    REPRO_DCHECK(i < data_.size());
    const auto shard = static_cast<std::uint32_t>(i / shard_size_);
    if (auto* ctx = MachineContext::current()) {
      rt_.fault_point_write(*ctx);
      ctx->count_write(kWords);
      REPRO_DCHECK(ctx->slot() < overflow_slot());
      REPRO_DCHECK(ctx->machine_id() < kNoMachine);
      logs_[ctx->slot()].entries.push_back(
          {shard, static_cast<std::uint32_t>(ctx->machine_id()), i,
           std::move(value)});
      return;
    }
    // Driver-side write outside any machine: the overflow log, committed
    // after every machine's entries.
    std::lock_guard<std::mutex> lock(overflow_mu_);
    logs_[overflow_slot()].entries.push_back(
        {shard, kNoMachine, i, std::move(value)});
  }

  // Round-0 seeding / driver-side access (no traffic accounting).
  void seed(std::uint64_t i, V value) { data_[i] = std::move(value); }
  const V& raw(std::uint64_t i) const { return data_[i]; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  // Pool-reset (Runtime::lease_dense): restore constructed state in place,
  // reusing the heap block whenever capacity suffices (staging logs keep
  // their capped capacity). The init fill takes the memset path for
  // uniform byte patterns — 0 and kNoNext (all-0xFF) cover nearly every
  // table in the algorithm layer, and element-wise std::fill measured ~4×
  // slower than memset on the lease microbench.
  void reset(const std::string& name, std::size_t size, V init,
             Merge policy) {
    policy_ = checked_policy(name, policy);
    shard_size_ = shard_size_for(size);
    bool filled = false;
    if constexpr (std::is_trivially_copyable_v<V> && sizeof(V) >= 1) {
      unsigned char bytes[sizeof(V)];
      std::memcpy(bytes, &init, sizeof(V));
      bool uniform = true;
      for (std::size_t b = 1; b < sizeof(V); ++b) {
        uniform = uniform && bytes[b] == bytes[0];
      }
      if (uniform) {
        if (data_.size() != size) data_.resize(size);
        if (size != 0) {
          std::memset(static_cast<void*>(data_.data()), bytes[0],
                      size * sizeof(V));
        }
        filled = true;
      }
    }
    if (!filled) data_.assign(size, init);
    finish_commit(~0ull);  // drop any staged-but-uncommitted leftovers
  }

  [[nodiscard]] std::uint64_t size_words() const override {
    return data_.size() * kWords;
  }

  [[nodiscard]] std::uint64_t storage_bytes() const override {
    return data_.capacity() * sizeof(V);
  }

  [[nodiscard]] std::size_t num_commit_shards() const override {
    return data_.empty() ? 1 : ceil_div(data_.size(), shard_size_);
  }

  // --- TableBase commit protocol ------------------------------------------

  std::uint64_t seal_staged() override {
    dirty_.clear();  // capacity reserved at construction
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      const std::size_t k = logs_[i].entries.size();
      if (k == 0) continue;
      dirty_.push_back(static_cast<std::uint32_t>(i));
      n += k;
    }
    return n;
  }

  // Cuts each dirty log into blocks — the phase-A tasks — and lays them out
  // back to back in parted_. parallel_for hands out 16 iterations at a
  // time, so a large table gets about 16 blocks per round participant, and
  // every participant a share of the partition.
  std::size_t prepare_partition() override {
    stride_ = num_commit_shards() + 1;
    blocks_.clear();
    first_block_.clear();
    std::uint64_t staged = 0;
    for (const std::uint32_t slot : dirty_) {
      staged += logs_[slot].entries.size();
    }
    const auto block = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        kMinPartitionBlock, ceil_div(staged, 16 * rt_.participants())));
    std::uint32_t total = 0;
    for (const std::uint32_t slot : dirty_) {
      first_block_.push_back(static_cast<std::uint32_t>(blocks_.size()));
      const auto size =
          static_cast<std::uint32_t>(logs_[slot].entries.size());
      for (std::uint32_t lo = 0; lo < size; lo += block) {
        const std::uint32_t hi = std::min(size, lo + block);
        blocks_.push_back({slot, lo, hi, total});
        total += hi - lo;
      }
    }
    first_block_.push_back(static_cast<std::uint32_t>(blocks_.size()));
    offsets_.resize(blocks_.size() * stride_);
    // Only ever grown here (finish_commit leaves the size alone), so steady
    // rounds value-initialize nothing on this serial path.
    if (parted_.size() < total) parted_.resize(total);
    return blocks_.size();
  }

  // Stable counting sort of block b into its range of parted_: shard s ends
  // up at parted_[off[s], off[s + 1]), off = the block's offsets row, in
  // the log's machine-id and program order.
  void partition_staged(std::size_t b) override {
    const Block& block = blocks_[b];
    std::uint32_t* off = &offsets_[b * stride_];
    off[0] = block.base;
    std::fill(off + 1, off + stride_, 0u);
    Staged* const first = logs_[block.slot].entries.data() + block.lo;
    Staged* const last = logs_[block.slot].entries.data() + block.hi;
    for (const Staged* e = first; e != last; ++e) ++off[e->shard + 1];
    // off[s + 1] := shard s's start; the scatter advances it to its end.
    std::uint32_t start = block.base;
    for (std::size_t s = 1; s < stride_; ++s) {
      const std::uint32_t count = off[s];
      off[s] = start;
      start += count;
    }
    for (Staged* e = first; e != last; ++e) {
      parted_[off[e->shard + 1]++] = std::move(*e);
    }
  }

  void commit_shard(std::size_t shard) override {
    Runs runs(dirty_.size());
    for (std::size_t d = 0; d < dirty_.size(); ++d) {
      // Empty; apply_in_order refills it from the log's first block.
      runs[d] = {nullptr, nullptr, first_block_[d], first_block_[d + 1]};
    }
    apply_in_order(runs.data(), shard);
  }

  void commit_sealed() override {
    Runs runs(dirty_.size());
    for (std::size_t d = 0; d < dirty_.size(); ++d) {
      std::vector<Staged>& entries = logs_[dirty_[d]].entries;
      runs[d] = {entries.data(), entries.data() + entries.size(), 0, 0};
    }
    apply_in_order(runs.data(), 0);
  }

  void finish_commit(std::uint64_t keep_entries) override {
    for (Log& log : logs_) {
      log.entries.clear();
      release_above(log.entries, keep_entries);
    }
    release_above(parted_, keep_entries);
    release_above(offsets_, keep_entries);
    release_above(blocks_, keep_entries);
    release_above(first_block_, keep_entries);
    dirty_.clear();
  }

  void discard_machine_staged() override {
    // Every log but the overflow log (the last), which stays for the retry.
    for (std::size_t i = 0; i + 1 < logs_.size(); ++i) {
      logs_[i].entries.clear();
    }
    dirty_.clear();
  }

  [[nodiscard]] std::uint64_t staging_bytes() const override {
    std::uint64_t entries = parted_.capacity();
    for (const Log& log : logs_) entries += log.entries.capacity();
    return entries * sizeof(Staged) +
           (offsets_.capacity() + first_block_.capacity()) *
               sizeof(std::uint32_t) +
           blocks_.capacity() * sizeof(Block);
  }

 private:
  static constexpr std::uint64_t kWords = (sizeof(V) + 7) / 8;
  static constexpr std::uint64_t kMaxShards = 64;
  static constexpr std::uint64_t kMinPartitionBlock = 256;
  static constexpr std::uint32_t kNoMachine = ~0u;
  // kMin, kMax and kSum need these; kOverwrite takes any value type.
  static constexpr bool kOrdered = requires(V a, V b) {
    a < b;
    a += b;
  };

  // `machine` sits in the padding after `shard`, so the tag costs nothing.
  struct Staged {
    std::uint32_t shard;
    std::uint32_t machine;  // commit order; kNoMachine in the overflow log
    std::uint64_t index;
    V value;
  };
  // One log per round participant plus the overflow log. During a round a
  // log is appended to by one thread only; at the barrier its blocks are
  // partitioned by phase-A tasks and read by phase-B tasks — never
  // concurrently. Padded to two cache lines, so that appends to neighbouring
  // logs share no line whatever the allocation's alignment (an over-aligned
  // type would take the slower aligned allocator on every fresh table).
  struct Log {
    Log() {}  // user-provided, so constructing a table leaves pad unwritten
    std::vector<Staged> entries;
    char pad[128 - sizeof(std::vector<Staged>)];
  };
  // A phase-A task: entries [lo, hi) of log `slot`, partitioned into
  // parted_[base, base + hi - lo).
  struct Block {
    std::uint32_t slot;
    std::uint32_t lo;
    std::uint32_t hi;
    std::uint32_t base;
  };
  // A log's unread entries during the commit walk: [first, last), then in
  // phase B the same shard's slices of the log's blocks [block, end_block).
  struct Run {
    Staged* first;
    Staged* last;
    std::uint32_t block;
    std::uint32_t end_block;
  };
  // One Run per dirty log: on the stack up to kInline, on the heap beyond.
  class Runs {
   public:
    explicit Runs(std::size_t n) {
      if (n > kInline) heap_.resize(n);
    }
    Run* data() { return heap_.empty() ? inline_ : heap_.data(); }
    Run& operator[](std::size_t i) { return data()[i]; }

   private:
    static constexpr std::size_t kInline = 64;
    Run inline_[kInline];
    std::vector<Run> heap_;
  };

  // Checked once per (re)construction, so the commit walk need not.
  static Merge checked_policy(const std::string& name, Merge policy) {
    REPRO_CHECK_MSG(kOrdered || policy == Merge::kOverwrite,
                    "merge policy needs an ordered/summable value type in "
                    "table " + name);
    return policy;
  }

  static std::uint64_t shard_size_for(std::size_t size) {
    return std::max<std::uint64_t>(
        1, ceil_div(std::max<std::uint64_t>(1, size), kMaxShards));
  }

  [[nodiscard]] std::size_t overflow_slot() const { return logs_.size() - 1; }

  template <class T>
  static void release_above(std::vector<T>& v, std::uint64_t keep) {
    if (v.capacity() > keep) std::vector<T>().swap(v);
  }

  void merge(const Staged& e) {
    V& dst = data_[e.index];
    if constexpr (kOrdered) {
      switch (policy_) {
        case Merge::kOverwrite: dst = e.value; return;
        case Merge::kMin: dst = std::min(dst, e.value); return;
        case Merge::kMax: dst = std::max(dst, e.value); return;
        case Merge::kSum: dst += e.value; return;
      }
    } else {
      dst = e.value;
    }
  }

  // Moves an exhausted run on to `shard`'s slice of its log's next
  // non-empty block; false once the log has nothing left.
  bool refill(Run& r, std::size_t shard) {
    while (r.first == r.last && r.block != r.end_block) {
      const std::uint32_t* off = &offsets_[r.block++ * stride_];
      r.first = parted_.data() + off[shard];
      r.last = parted_.data() + off[shard + 1];
    }
    return r.first != r.last;
  }

  // Applies one Run per dirty log (runs[d] <-> dirty_[d]) in commit order.
  // Each machine log is ascending in machine id and holds all of a
  // machine's entries contiguously (one machine runs on one thread), so a
  // merge by machine id restores machine-id order; the overflow log, last in
  // dirty_ when dirty, follows. A log's blocks chain into its one run, so a
  // machine whose entries straddle two blocks stays in program order.
  void apply_in_order(Run* runs, std::size_t shard) {
    std::size_t n = dirty_.size();
    const bool overflow = n != 0 && dirty_[n - 1] == overflow_slot();
    if (overflow) --n;
    for (;;) {
      // The run holding the lowest pending machine id, and the lowest id
      // pending in any other run: every entry below that bound goes next.
      std::size_t best = n;
      std::uint32_t lo = kNoMachine;
      std::uint32_t bound = kNoMachine;
      for (std::size_t d = 0; d < n; ++d) {
        if (!refill(runs[d], shard)) continue;
        const std::uint32_t m = runs[d].first->machine;
        if (m < lo) {
          bound = lo;
          lo = m;
          best = d;
        } else if (m < bound) {
          bound = m;
        }
      }
      if (best == n) break;
      Run& r = runs[best];
      do {
        merge(*r.first);
      } while (++r.first != r.last && r.first->machine < bound);
    }
    if (overflow) {
      for (Run& r = runs[n]; refill(r, shard); r.first = r.last) {
        for (const Staged* e = r.first; e != r.last; ++e) merge(*e);
      }
    }
  }

  Runtime& rt_;
  Merge policy_;
  std::vector<Log> logs_;  // slot-indexed (MachineContext::slot), overflow last
  std::mutex overflow_mu_;
  std::vector<std::uint32_t> dirty_;  // sealed: non-empty log slots, ascending
  // Phase-A scratch: the blocks, each dirty log's first block (plus an end
  // sentinel), the blocks grouped by shard, and per block its shards + 1
  // bounds into parted_ (stride_ apart).
  std::vector<Block> blocks_;
  std::vector<std::uint32_t> first_block_;
  std::vector<Staged> parted_;
  std::vector<std::uint32_t> offsets_;
  std::size_t stride_ = 1;
  std::vector<V> data_;
  std::uint64_t shard_size_;  // indices per commit shard
};

// --- Lease factory (needs the table definition above) ----------------------

template <class V>
TableLease<DenseTable<V>> Runtime::lease_dense(std::string name,
                                               std::size_t size, V init,
                                               Merge policy) {
  std::unique_ptr<DenseTable<V>> t = take_pooled<DenseTable<V>>();
  if (t != nullptr) {
    t->reset(name, size, init, policy);
    register_table(t.get());
  } else {
    // Pool miss: fresh construction registers in the constructor.
    t = std::make_unique<DenseTable<V>>(*this, name, size, init, policy);
  }
  return TableLease<DenseTable<V>>(this, std::move(t));
}

// Reuses Runtime objects — and their table pools — across the subproblems of
// a larger solve (one min-cut tracker run per k-cut component, in the source
// paper's terms). acquire() hands out a reset runtime from the
// free list or constructs one; concurrent acquirers always get distinct
// runtimes, so the recursion drivers' parallel fan-out stays data-race-free
// while still amortizing table storage across calls on the same slot.
// Results and metrics are independent of which pooled runtime served a call:
// reset_for_subproblem restores construction state exactly.
class RuntimeArena {
 public:
  // `pool` is forwarded to every Runtime it constructs (nullptr = shared).
  explicit RuntimeArena(ThreadPool* pool = nullptr) : pool_(pool) {}

  // RAII checkout; returns the runtime to the arena on destruction.
  class Lease {
   public:
    Lease(RuntimeArena* arena, std::unique_ptr<Runtime> rt)
        : arena_(arena), rt_(std::move(rt)) {}
    Lease(Lease&& other) noexcept
        : arena_(other.arena_), rt_(std::move(other.rt_)) {
      other.arena_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (rt_ != nullptr) arena_->release(std::move(rt_));
    }

    Runtime* operator->() const { return rt_.get(); }
    Runtime& operator*() const { return *rt_; }

   private:
    RuntimeArena* arena_;
    std::unique_ptr<Runtime> rt_;
  };

  Lease acquire(const Config& cfg) {
    std::unique_ptr<Runtime> rt;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        rt = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (rt != nullptr) {
      rt->reset_for_subproblem(cfg);
    } else {
      rt = std::make_unique<Runtime>(cfg, pool_);
    }
    return Lease(this, std::move(rt));
  }

  // Runtime::pool_stats summed over the runtimes in the arena — all of them
  // when no lease is out, as between solves.
  [[nodiscard]] Runtime::PoolStats pool_stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Runtime::PoolStats total;
    for (const auto& rt : free_) total += rt->pool_stats();
    return total;
  }

 private:
  friend class Lease;
  void release(std::unique_ptr<Runtime> rt) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(rt));
  }

  ThreadPool* pool_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Runtime>> free_;  // guarded by mu_
};

}  // namespace ampccut::ampc
