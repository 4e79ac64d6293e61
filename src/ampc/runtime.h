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
//   * Table<K,V> / DenseTable<V> — sharded hash table / dense array with
//     frozen reads (only data committed in earlier rounds is visible) and
//     per-machine staged writes;
//   * MachineContext — tracks per-machine read/write word counts against the
//     O(n^eps) budget (the model bounds a machine's DHT traffic per round by
//     its local memory).
//
// Write path (DESIGN.md "Runtime concurrency & staging"): put() appends to
// the calling machine's private staging buffer — no locks, no sharing. At
// the barrier the runtime commits in two parallel phases: (A) each buffer is
// partitioned by destination shard, (B) each shard applies its slice of
// every buffer in machine-id order. Machine order makes committed contents
// (and hence kOverwrite races) independent of the thread schedule, and the
// frozen-read invariant holds because committed storage is only ever touched
// between rounds.
//
// Failure semantics (DESIGN.md "Fault injection & round-level recovery"): a
// machine that throws MachineFailedError — injected by Config::fault or
// thrown by the body — fails only its round. The barrier discards the
// round's machine staging buffers (committed state is untouched by
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
#include <optional>
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

// Tracks which staging buffers received entries this round, so the barrier
// commit touches only those instead of scanning one buffer per virtual
// machine per table (the scan dominated commit cost on fine-grained rounds).
// mark() runs at most once per buffer per round — on the buffer's first
// entry — and takes a slot from a relaxed atomic cursor, so writer threads
// only ever contend on the cursor. seal() orders the ids ascending, which is
// machine-id commit order with the overflow sentinel naturally last.
class DirtyBuffers {
 public:
  static constexpr std::uint32_t kOverflow = ~0u;  // the driver-side buffer

  // Never concurrent with mark(); `n` must cover every markable id + 1 slot
  // for the overflow sentinel.
  void ensure_capacity(std::size_t n) {
    if (slots_.size() < n) slots_.resize(n);
  }

  void mark(std::uint32_t id) {
    slots_[count_.fetch_add(1, std::memory_order_relaxed)] = id;
  }

  // Driver thread, after the round barrier (the pool join orders all marks
  // before this). Returns the number of dirty buffers.
  std::size_t seal() {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    // Dirty-buffer lists are tiny (one slot per buffer that wrote this
    // round), so the psort sequential fallback is the right engine; ids are
    // unique (mark() runs once per buffer), so stable == unstable here.
    psort::stable_sort_keys(nullptr, slots_.data(), n,
                            std::less<std::uint32_t>{});
    return n;
  }

  [[nodiscard]] std::size_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t id_at(std::size_t i) const { return slots_[i]; }
  void clear() { count_.store(0, std::memory_order_relaxed); }

 private:
  std::vector<std::uint32_t> slots_;
  std::atomic<std::uint32_t> count_{0};
};

// Commit protocol between Runtime and the tables, implemented once by
// StagedTable below. The barrier seals each table's dirty-buffer list, then
// runs two phases the runtime can fan out over the thread pool:
//   phase A  partition_staged(d) — group the d-th dirty buffer's entries by
//            shard (independent across buffers);
//   phase B  commit_shard(s)     — apply shard s's slice of every dirty
//            buffer in sealed (machine-id) order (independent across
//            shards: disjoint key ranges).
// finish_commit() clears the dirty buffers (capacity retained).
class TableBase {
 public:
  virtual ~TableBase() = default;

  // Ensures at least `num_buffers` machine staging buffers exist (the
  // overflow buffer is separate and always addressed by the sentinel).
  // Called by the runtime at round start and at registration — never
  // concurrently with put().
  virtual void begin_round(std::size_t num_buffers) = 0;

  // Seals the round's dirty-buffer list for commit (driver thread, between
  // rounds). Returns the number of staged entries; 0 means nothing to do.
  virtual std::uint64_t seal_staged() = 0;
  [[nodiscard]] virtual std::size_t num_dirty_buffers() const = 0;
  [[nodiscard]] virtual std::size_t num_commit_shards() const = 0;
  virtual void partition_staged(std::size_t dirty_index) = 0;
  virtual void commit_shard(std::size_t shard) = 0;
  virtual void finish_commit() = 0;
  [[nodiscard]] virtual std::uint64_t size_words() const = 0;

  // Round-level recovery (driver thread, after a failed round's barrier):
  // drop every machine staging buffer without applying it, leaving committed
  // contents untouched. The driver-side overflow buffer survives — it was
  // staged outside the failed round and must still commit with the retry.
  virtual void discard_machine_staged() = 0;

  // Serial commit of an already-sealed table: same phase order as the
  // parallel path, hence bit-identical results.
  void commit_sealed() {
    for (std::size_t d = 0, nd = num_dirty_buffers(); d < nd; ++d) {
      partition_staged(d);
    }
    for (std::size_t s = 0, ns = num_commit_shards(); s < ns; ++s) {
      commit_shard(s);
    }
    finish_commit();
  }
};

}  // namespace detail

class Runtime;
template <class T>
class TableLease;
template <class K, class V, class Hash = std::hash<K>>
class Table;
template <class V>
class DenseTable;

// Merge policies for writes committed under the same key in one round.
enum class Merge { kOverwrite, kMin, kMax, kSum };

template <class V>
void apply_merge(V& dst, const V& src, Merge policy) {
  if (policy == Merge::kOverwrite) {
    dst = src;
    return;
  }
  if constexpr (requires(V a, V b) { a < b; a += b; }) {
    switch (policy) {
      case Merge::kOverwrite: dst = src; break;
      case Merge::kMin: dst = std::min(dst, src); break;
      case Merge::kMax: dst = std::max(dst, src); break;
      case Merge::kSum: dst += src; break;
    }
  } else {
    REPRO_CHECK_MSG(false, "merge policy needs an ordered/summable value type");
  }
}

// Per-virtual-machine context; installed thread-locally while the machine's
// task runs so table reads can be accounted to the right machine.
class MachineContext {
 public:
  explicit MachineContext(std::size_t machine_id) : machine_(machine_id) {}

  [[nodiscard]] std::size_t machine_id() const { return machine_; }
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

  // --- Table pooling (DESIGN.md "Table and runtime pooling") --------------
  //
  // lease_dense / lease_table replace direct Table/DenseTable construction
  // in the algorithm layer: the returned TableLease behaves like the table
  // (operator->), registers it for the barrier commit exactly as the old
  // constructor did, and on destruction returns the object — shard vectors,
  // staging buffers, dirty-slot capacity, hash-map buckets and all — to a
  // per-runtime free list keyed by concrete table type. A pool hit resets
  // the committed contents in place (O(size) value init for dense tables,
  // O(entries previously committed) map clears for sparse ones) with zero
  // heap churn in steady state. Contents, metrics, and traffic are
  // bit-identical to fresh construction: registration happens at the same
  // program points and reset() restores exactly the constructed state.

  template <class V>
  TableLease<DenseTable<V>> lease_dense(std::string name, std::size_t size,
                                        V init = V{},
                                        Merge policy = Merge::kOverwrite);

  template <class K, class V, class Hash = std::hash<K>>
  TableLease<Table<K, V, Hash>> lease_table(std::string name,
                                            Merge policy = Merge::kOverwrite,
                                            std::size_t shards = 64);

  // Reuse this runtime (and its table pool) for the next subproblem of a
  // larger solve: restores config and metrics to construction state. Must be
  // called with no live tables — leases and direct tables of the previous
  // subproblem have to be gone, or their words would leak into the next
  // subproblem's accounting.
  void reset_for_subproblem(const Config& cfg);

  struct PoolStats {
    std::uint64_t leases = 0;  // lease_dense/lease_table calls
    std::uint64_t reuses = 0;  // leases served from the free list
  };
  [[nodiscard]] PoolStats pool_stats() const;

  // --- Fault-injection hooks (fault.h) ------------------------------------
  // Called by Table/DenseTable on the read and put paths while a machine
  // context is active; one predictable null check when no plan is installed.
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
  std::mutex tables_mu_;
  std::vector<detail::TableBase*> tables_;  // guarded by tables_mu_
  std::size_t round_buffers_ = 0;  // machine buffers of the round in flight
  // Pooled (currently unleased) tables by concrete type. Declared after
  // tables_mu_/tables_ so pooled tables — whose destructors call
  // unregister_table — are destroyed while those members are still alive.
  mutable std::mutex pool_mu_;
  std::unordered_map<std::type_index,
                     std::vector<std::unique_ptr<detail::TableBase>>>
      table_pool_;  // guarded by pool_mu_
  PoolStats pool_stats_;  // guarded by pool_mu_
};

// RAII handle for a pooled table (Runtime::lease_dense / lease_table).
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

namespace detail {

// The staging-and-commit core shared by Table and DenseTable: registration,
// the per-machine staging buffers with their overflow slot and dirty list,
// and the TableBase commit protocol. Derived supplies the key -> shard map
// (as the shard argument of stage()), num_commit_shards(), committed storage
// and its reads, and one non-virtual hook the commit walk applies each
// staged entry through:
//   void commit_entry(std::size_t shard, Key& key, V& value);
// Entries reach the hook in sealed machine-id order, overflow last, program
// order within a buffer, so same-key kOverwrite writes resolve to the
// highest-machine-id writer.
template <class Derived, class Key, class V>
class StagedTable : public TableBase {
 public:
  void begin_round(std::size_t num_buffers) override {
    if (buffers_.size() < num_buffers) buffers_.resize(num_buffers);
    dirty_.ensure_capacity(buffers_.size() + 1);  // + the overflow sentinel
  }

  std::uint64_t seal_staged() override {
    const std::size_t nd = dirty_.seal();
    std::uint64_t n = 0;
    for (std::size_t d = 0; d < nd; ++d) {
      n += buffer_at(dirty_.id_at(d)).entries.size();
    }
    return n;
  }

  [[nodiscard]] std::size_t num_dirty_buffers() const override {
    return dirty_.count();
  }

  void partition_staged(std::size_t dirty_index) override {
    Buffer& buf = buffer_at(dirty_.id_at(dirty_index));
    const std::size_t shards = num_commit_shards();
    buf.offsets.assign(shards + 1, 0);
    for (const Staged& e : buf.entries) ++buf.offsets[e.shard + 1];
    for (std::size_t s = 0; s < shards; ++s) {
      buf.offsets[s + 1] += buf.offsets[s];
    }
    buf.parted.resize(buf.entries.size());
    std::vector<std::uint32_t> cursor(buf.offsets.begin(),
                                      buf.offsets.end() - 1);
    for (Staged& e : buf.entries) {  // stable: program order within a shard
      buf.parted[cursor[e.shard]++] = std::move(e);
    }
  }

  void commit_shard(std::size_t shard) override {
    Derived& self = static_cast<Derived&>(*this);
    for (std::size_t d = 0, nd = dirty_.count(); d < nd; ++d) {
      Buffer& buf = buffer_at(dirty_.id_at(d));  // sealed machine-id order
      const std::uint32_t begin = buf.offsets[shard];
      const std::uint32_t end = buf.offsets[shard + 1];
      for (std::uint32_t i = begin; i < end; ++i) {
        Staged& e = buf.parted[i];
        self.commit_entry(shard, e.key, e.value);
      }
    }
  }

  void finish_commit() override {
    for (std::size_t d = 0, nd = dirty_.count(); d < nd; ++d) {
      clear(buffer_at(dirty_.id_at(d)));
    }
    dirty_.clear();
  }

  void discard_machine_staged() override {
    bool overflow_dirty = false;
    for (std::size_t d = 0, nd = dirty_.count(); d < nd; ++d) {
      const std::uint32_t id = dirty_.id_at(d);
      if (id == DirtyBuffers::kOverflow) {
        overflow_dirty = true;  // staged outside the round; keep for retry
        continue;
      }
      clear(buffers_[id]);
    }
    dirty_.clear();
    if (overflow_dirty) dirty_.mark(DirtyBuffers::kOverflow);
  }

 protected:
  StagedTable(Runtime& rt, std::string name, Merge policy)
      : rt_(rt), name_(std::move(name)), policy_(policy) {
    rt_.register_table(this);
  }
  ~StagedTable() override { rt_.unregister_table(this); }

  // Read-side accounting: fault point, then `words` against the machine's
  // budget. Driver-side reads (no active machine) count nothing.
  void account_read(std::uint64_t words) const {
    if (auto* ctx = MachineContext::current()) {
      rt_.fault_point_read(*ctx);
      ctx->count_read(words);
    }
  }

  // Staged write of `words` words into `shard`; visible after the enclosing
  // round's barrier.
  void stage(std::uint32_t shard, Key key, V value, std::uint64_t words) {
    if (auto* ctx = MachineContext::current()) {
      rt_.fault_point_write(*ctx);
      ctx->count_write(words);
      Buffer& buf = buffers_[ctx->machine_id()];
      if (buf.entries.empty()) {
        dirty_.mark(static_cast<std::uint32_t>(ctx->machine_id()));
      }
      buf.entries.push_back({shard, std::move(key), std::move(value)});
      return;
    }
    // Driver-side write outside any machine: the dedicated overflow buffer,
    // committed after every machine's buffer.
    std::lock_guard<std::mutex> lock(overflow_mu_);
    if (overflow_.entries.empty()) dirty_.mark(DirtyBuffers::kOverflow);
    overflow_.entries.push_back({shard, std::move(key), std::move(value)});
  }

  Runtime& rt_;
  std::string name_;
  Merge policy_;

 private:
  struct Staged {
    std::uint32_t shard;
    Key key;
    V value;
  };
  // One per virtual machine, plus the dedicated overflow buffer. A buffer is
  // only ever appended to by the thread running its machine, partitioned by
  // one phase-A task, and read by phase-B tasks — never concurrently.
  struct Buffer {
    std::vector<Staged> entries;
    std::vector<Staged> parted;            // entries grouped by shard
    std::vector<std::uint32_t> offsets;    // per-shard ranges into parted
  };

  static void clear(Buffer& buf) {
    buf.entries.clear();
    buf.parted.clear();
    buf.offsets.clear();
  }

  // The overflow buffer is addressed by the dirty sentinel — a member of its
  // own (not a vector slot) so begin_round growth can never repurpose it as
  // a machine buffer, and the sentinel's max value keeps its commit-last
  // position through the sealed ordering.
  [[nodiscard]] Buffer& buffer_at(std::uint32_t id) {
    return id == DirtyBuffers::kOverflow ? overflow_ : buffers_[id];
  }

  std::vector<Buffer> buffers_;  // grown by begin_round, one per machine
  Buffer overflow_;              // driver-side writes, commits last
  std::mutex overflow_mu_;
  DirtyBuffers dirty_;
};

}  // namespace detail

// Sharded hash table with AMPC visibility semantics. Reads see only data
// committed at a previous round barrier; put() stages into the writing
// machine's private buffer (lock-free — see the header comment).
template <class K, class V, class Hash>
class Table final : public detail::StagedTable<Table<K, V, Hash>, K, V> {
 public:
  Table(Runtime& rt, std::string name, Merge policy = Merge::kOverwrite,
        std::size_t shards = 64)
      : detail::StagedTable<Table, K, V>(rt, std::move(name), policy),
        shards_vec_(std::max<std::size_t>(1, shards)) {}

  // Adaptive read during a round (counts against the machine budget).
  // Committed storage is immutable while machines run, so reads take no lock.
  std::optional<V> get(const K& key) const {
    this->account_read(words_per_kv());
    const auto& data = shards_vec_[shard_of(key)].data;
    const auto it = data.find(key);
    if (it == data.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] bool contains(const K& key) const {
    return get(key).has_value();
  }

  V at(const K& key) const {
    auto v = get(key);
    REPRO_CHECK_MSG(v.has_value(), "missing key in table " + this->name_);
    return *v;
  }

  // Staged write; visible after the enclosing round's barrier.
  void put(const K& key, V value) {
    this->stage(static_cast<std::uint32_t>(shard_of(key)), key,
                std::move(value), words_per_kv());
  }

  // Immediate insert for round-0 input distribution (counts no traffic;
  // driver-side only, never concurrent with a round).
  void seed(K key, V value) { commit_entry(shard_of(key), key, value); }

  [[nodiscard]] std::uint64_t size_words() const override {
    return size() * words_per_kv();
  }

  [[nodiscard]] std::uint64_t size() const {
    std::uint64_t n = 0;
    for (const auto& s : shards_vec_) n += s.data.size();
    return n;
  }

  // Snapshot of committed contents (driver-side, between rounds).
  std::vector<std::pair<K, V>> snapshot() const {
    std::vector<std::pair<K, V>> out;
    for (const auto& s : shards_vec_) {
      out.insert(out.end(), s.data.begin(), s.data.end());
    }
    return out;
  }

  // Pool-reset (Runtime::lease_table): restore constructed state in place.
  // Map clears keep bucket arrays, staging buffers and dirty slots keep
  // their capacity — only entries actually committed since the last reset
  // cost anything.
  void reset(std::string name, Merge policy, std::size_t shards) {
    this->name_ = std::move(name);
    this->policy_ = policy;
    shards = std::max<std::size_t>(1, shards);
    if (shards_vec_.size() != shards) shards_vec_.resize(shards);
    for (auto& s : shards_vec_) {
      if (!s.data.empty()) s.data.clear();
    }
    this->finish_commit();  // drop any staged-but-uncommitted leftovers
  }

  [[nodiscard]] std::size_t num_commit_shards() const override {
    return shards_vec_.size();
  }

 private:
  friend class detail::StagedTable<Table, K, V>;

  struct Shard {
    std::unordered_map<K, V, Hash> data;
  };

  static constexpr std::uint64_t words_per_kv() {
    return (sizeof(K) + sizeof(V) + 7) / 8;
  }

  [[nodiscard]] std::size_t shard_of(const K& key) const {
    return Hash{}(key) % shards_vec_.size();
  }

  void commit_entry(std::size_t shard, K& key, V& value) {
    auto& data = shards_vec_[shard].data;
    const auto it = data.find(key);
    if (it == data.end()) {
      data.emplace(std::move(key), std::move(value));
    } else {
      apply_merge(it->second, value, this->policy_);
    }
  }

  std::vector<Shard> shards_vec_;
};

// Dense uint64-indexed table (a hash table whose keys are 0..size-1): same
// visibility and staging semantics, array-backed for the index-structured
// data (tree arrays, sparse tables) that dominates the algorithms. Commit
// shards are contiguous index ranges, so phase B stays cache-friendly.
template <class V>
class DenseTable final
    : public detail::StagedTable<DenseTable<V>, std::uint64_t, V> {
 public:
  DenseTable(Runtime& rt, std::string name, std::size_t size, V init = V{},
             Merge policy = Merge::kOverwrite)
      : detail::StagedTable<DenseTable, std::uint64_t, V>(rt, std::move(name),
                                                          policy),
        data_(size, init), shard_size_(shard_size_for(size)) {}

  V get(std::uint64_t i) const {
    REPRO_DCHECK(i < data_.size());
    this->account_read(words_per_v());
    return data_[i];
  }

  void put(std::uint64_t i, V value) {
    REPRO_DCHECK(i < data_.size());
    this->stage(static_cast<std::uint32_t>(i / shard_size_), i,
                std::move(value), words_per_v());
  }

  // Round-0 seeding / driver-side access (no traffic accounting).
  void seed(std::uint64_t i, V value) { data_[i] = std::move(value); }
  const V& raw(std::uint64_t i) const { return data_[i]; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  // Pool-reset (Runtime::lease_dense): restore constructed state in place,
  // reusing the heap block whenever capacity suffices (staging buffers and
  // dirty slots always keep theirs). The init fill takes the memset path for
  // uniform byte patterns — 0 and kNoNext (all-0xFF) cover nearly every
  // table in the algorithm layer, and element-wise std::fill measured ~4×
  // slower than memset on the lease microbench.
  void reset(std::string name, std::size_t size, V init, Merge policy) {
    this->name_ = std::move(name);
    this->policy_ = policy;
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
    this->finish_commit();  // drop any staged-but-uncommitted leftovers
  }

  [[nodiscard]] std::uint64_t size_words() const override {
    return data_.size() * words_per_v();
  }

  [[nodiscard]] std::size_t num_commit_shards() const override {
    return data_.empty() ? 1 : ceil_div(data_.size(), shard_size_);
  }

 private:
  friend class detail::StagedTable<DenseTable, std::uint64_t, V>;

  static constexpr std::uint64_t kMaxShards = 64;

  static constexpr std::uint64_t words_per_v() {
    return (sizeof(V) + 7) / 8;
  }

  static std::uint64_t shard_size_for(std::size_t size) {
    return std::max<std::uint64_t>(
        1, ceil_div(std::max<std::uint64_t>(1, size), kMaxShards));
  }

  void commit_entry(std::size_t /*shard*/, std::uint64_t& index, V& value) {
    apply_merge(data_[index], value, this->policy_);
  }

  std::vector<V> data_;
  std::uint64_t shard_size_;  // indices per commit shard
};

// --- Lease factories (need the table definitions above) --------------------

template <class V>
TableLease<DenseTable<V>> Runtime::lease_dense(std::string name,
                                               std::size_t size, V init,
                                               Merge policy) {
  std::unique_ptr<DenseTable<V>> t = take_pooled<DenseTable<V>>();
  if (t != nullptr) {
    t->reset(std::move(name), size, init, policy);
    register_table(t.get());
  } else {
    // Pool miss: fresh construction registers in the constructor.
    t = std::make_unique<DenseTable<V>>(*this, std::move(name), size, init,
                                        policy);
  }
  return TableLease<DenseTable<V>>(this, std::move(t));
}

template <class K, class V, class Hash>
TableLease<Table<K, V, Hash>> Runtime::lease_table(std::string name,
                                                   Merge policy,
                                                   std::size_t shards) {
  std::unique_ptr<Table<K, V, Hash>> t = take_pooled<Table<K, V, Hash>>();
  if (t != nullptr) {
    t->reset(std::move(name), policy, shards);
    register_table(t.get());
  } else {
    t = std::make_unique<Table<K, V, Hash>>(*this, std::move(name), policy,
                                            shards);
  }
  return TableLease<Table<K, V, Hash>>(this, std::move(t));
}

// Reuses Runtime objects — and their table pools — across the subproblems of
// a larger solve (one min-cut tracker run per component per k-cut iteration,
// in the source paper's terms). acquire() hands out a reset runtime from the
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

 private:
  friend class Lease;
  void release(std::unique_ptr<Runtime> rt) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(rt));
  }

  ThreadPool* pool_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Runtime>> free_;  // guarded by mu_
};

}  // namespace ampccut::ampc
