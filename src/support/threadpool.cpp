#include "support/threadpool.h"

#include <exception>
#include <memory>
#include <utility>

namespace ampccut {

namespace {
// Set once by each worker thread at start; read by worker_index().
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker = 0;

// Iterations a batch participant claims at a time. A batch of at most one
// chunk runs inline: whoever claimed it would run all of it anyway.
constexpr std::size_t kChunk = 16;
}  // namespace

struct ThreadPool::Batch {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::condition_variable cv_done;
  std::exception_ptr error;  // lowest throwing index's, guarded by mu
  std::size_t error_index = 0;

  // Runs chunks until the index space is exhausted. Returns the number of
  // iterations executed by this participant.
  std::size_t drain(const std::function<void(std::size_t)>& fn) {
    std::size_t executed = 0;
    for (;;) {
      const std::size_t begin = next.fetch_add(kChunk);
      if (begin >= count) break;
      const std::size_t end = std::min(begin + kChunk, count);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!error || i < error_index) {
            error = std::current_exception();
            error_index = i;
          }
        }
      }
      executed += end - begin;
      const std::size_t finished = done.fetch_add(end - begin) + (end - begin);
      if (finished == count) {
        std::lock_guard<std::mutex> lock(mu);
        cv_done.notify_all();
      }
    }
    return executed;
  }
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 4;
  }
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] {
      tl_pool = this;
      tl_worker = i;
      worker_loop();
    });
  }
}

std::size_t ThreadPool::worker_index() const {
  return tl_pool == this ? tl_worker : threads_.size();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    Work work{nullptr, nullptr};
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] {
        return shutdown_ || !queue_.empty() ||
               (current_ && generation_ != seen_generation);
      });
      if (shutdown_) return;
      if (current_ && generation_ != seen_generation) {
        seen_generation = generation_;
        batch = current_;  // shared ownership keeps the batch alive past the
                           // caller's return, killing the use-after-free race
      } else {
        work = std::move(queue_.front());
        queue_.pop_front();
      }
    }
    if (batch) {
      batch->drain(*batch->body);
    } else if (work.fn) {
      execute(std::move(work));
    }
  }
}

void ThreadPool::execute(Work work) {
  TaskGroup* group = work.group;
  try {
    work.fn();
  } catch (...) {
    group->record_error(std::current_exception());
  }
  // The owner may be asleep in wait() with an empty queue; completion is the
  // only event that can unblock it, so it must be broadcast. Touching mu_
  // between the decrement and the notify serializes with the waiter's
  // predicate check — without it the wakeup can land in the window between
  // the waiter reading pending_ and actually blocking, and be lost.
  if (group->pending_.fetch_sub(1) == 1) {
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_work_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (threads_.size() <= 1 || count <= kChunk) {
    // Inline: with at most one worker, or at most one chunk, a single
    // participant would run the whole batch anyway, so skip the posting and
    // the notify (which also wakes every TaskGroup::wait sleeper). Same
    // contract as the batch path: every iteration runs, the lowest throwing
    // index's exception (here the first one) propagates.
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->body = &body;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = batch;
    ++generation_;
  }
  cv_work_.notify_all();
  batch->drain(body);  // the caller participates
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv_done.wait(lock,
                        [&] { return batch->done.load() == batch->count; });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Concurrent parallel_for calls are allowed (recursion tasks issue them
    // independently); only clear the slot if a newer batch hasn't replaced
    // this one, so that batch stays visible to late-waking workers.
    if (current_ == batch) current_.reset();
  }
  // Move the error OUT of the batch before rethrowing: workers drop their
  // shared_ptr<Batch> asynchronously after the barrier, and if the batch
  // still owned the exception_ptr, the exception object's final release
  // could run on a worker thread while the caller is still examining the
  // caught exception. Taking ownership here pins the object's entire
  // lifetime to the calling thread.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(batch->mu);
    error = std::move(batch->error);
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool::TaskGroup::~TaskGroup() {
  // Defensive: a correctly used group was waited on already (wait() rethrows
  // task exceptions; the destructor cannot). Never destroy tasks that are
  // still running.
  if (pending_.load() != 0) wait();
}

void ThreadPool::TaskGroup::record_error(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (!error_) error_ = std::move(e);
}

void ThreadPool::TaskGroup::run(std::function<void()> fn) {
  if (pool_.threads_.size() <= 1) {
    // Single-threaded pool: queued execution could only ever run on this
    // thread anyway; run inline and keep the error contract.
    try {
      fn();
    } catch (...) {
      record_error(std::current_exception());
    }
    return;
  }
  pending_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(pool_.mu_);
    pool_.queue_.push_back({std::move(fn), this});
  }
  pool_.cv_work_.notify_all();
}

void ThreadPool::TaskGroup::wait() {
  if (pool_.threads_.size() > 1) {
    std::unique_lock<std::mutex> lock(pool_.mu_);
    for (;;) {
      // Own completion first: once this group's tasks are done, return to
      // the caller's reduce instead of draining unrelated queued work (which
      // would also grow the help-recursion stack for no progress gain).
      if (pending_.load() == 0) break;
      if (!pool_.queue_.empty()) {
        // Help: run any queued task (ours or another group's). Progress is
        // guaranteed — a sleeping waiter implies an empty queue, so every
        // pending task is running on some thread and will settle its group.
        Work work = std::move(pool_.queue_.front());
        pool_.queue_.pop_front();
        lock.unlock();
        pool_.execute(std::move(work));
        lock.lock();
        continue;
      }
      pool_.cv_work_.wait(lock, [&] {
        return !pool_.queue_.empty() || pending_.load() == 0;
      });
    }
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace ampccut
