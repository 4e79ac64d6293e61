// A minimal work-sharing thread pool used by the AMPC/MPC simulators and the
// parallel recursion driver.
//
// Two execution shapes coexist:
//   * parallel_for — one batch of independent iterations with a barrier at
//     the end. This mirrors the synchronous-round semantics of the models
//     (fork, block-partitioned execution, join) and is what the simulators
//     use for a round's virtual machines.
//   * TaskGroup — an explicit task API for irregular fan-out (the
//     Karger–Stein recursion tree). Tasks may submit further tasks and wait
//     on their own groups from inside a pool task: wait() *helps* — it drains
//     queued tasks while its own are outstanding — so nested submission can
//     never deadlock and idle workers steal whatever work exists, regardless
//     of which level of the recursion produced it.
//
// Determinism contract: the pool never influences results. parallel_for
// bodies write to disjoint slots; TaskGroup users store per-task results in
// pre-sized slots and reduce sequentially after wait(). Scheduling order is
// arbitrary, completion is not — see DESIGN.md "Parallel recursion
// scheduling".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ampccut {

class ThreadPool {
 public:
  // num_threads == 0 selects hardware concurrency.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_.size(); }

  // Runs body(i) for i in [0, count) across the pool and blocks until all
  // iterations complete. Every iteration runs even when some throw; the
  // exception of the lowest throwing index is rethrown on the caller thread,
  // so which failure surfaces never depends on the pool width or schedule.
  // Safe to call with count == 0, and safe to call from inside a pool task
  // or another parallel_for body: the caller always participates and drains
  // the whole batch itself if no worker is free.
  // With a single-threaded pool the batch runs inline (no posting overhead).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  // A set of tasks submitted to the pool and awaited together. Nested use is
  // the intended pattern: a task may create its own TaskGroup, submit
  // subtasks, and wait() — the waiting thread executes queued tasks (its own
  // or anyone else's) instead of blocking, so the pool's workers are never
  // parked behind a waiting parent. Exceptions thrown by tasks are captured
  // (first one wins) and rethrown by wait().
  //
  // A TaskGroup is owned by one logical caller: run() and wait() may not be
  // invoked concurrently on the same group. wait() must be called (or the
  // group destroyed only after all its tasks finished); the destructor waits
  // defensively but swallows nothing — a pending exception terminates.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    // Submits fn to the pool. With a single-threaded pool (or none), runs fn
    // inline — same results, no queueing overhead.
    void run(std::function<void()> fn);

    // Blocks until every task submitted via run() has finished, executing
    // queued pool tasks while waiting. Rethrows the first captured exception.
    void wait();

   private:
    friend class ThreadPool;
    ThreadPool& pool_;
    std::atomic<std::size_t> pending_{0};
    std::mutex error_mu_;
    std::exception_ptr error_;  // first exception, guarded by error_mu_

    void record_error(std::exception_ptr e);
  };

  // Global pool shared by the simulators and the recursion drivers (sized to
  // hardware concurrency).
  static ThreadPool& shared();

 private:
  struct Batch;
  struct Work {
    std::function<void()> fn;
    TaskGroup* group;
  };

  void worker_loop();
  void execute(Work work);  // runs one queued task, settles its group

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::deque<Work> queue_;          // guarded by mu_
  std::shared_ptr<Batch> current_;  // guarded by mu_
  std::uint64_t generation_ = 0;    // guarded by mu_
  bool shutdown_ = false;           // guarded by mu_
};

}  // namespace ampccut
