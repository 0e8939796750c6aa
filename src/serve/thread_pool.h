// Fixed-size, caller-participating thread pool running "parallel
// regions".
//
// The batched engine needs exactly one primitive: run a job on every
// worker simultaneously and wait for all of them (the workers then
// self-schedule requests off a shared atomic cursor, so there is no
// per-task queue to contend on). The calling thread is worker 0: a pool
// of N workers parks N - 1 threads, spawned once in the constructor and
// parked on a condition variable between regions, and RunOnAll runs
// job(0) itself before it waits at the barrier. A pool of 1 spawns no
// thread, so its region runs inline: no thread is woken and nothing is
// waited for. The parked threads' wake-up overlaps worker 0's share of
// the job, and a region whose threads finish first costs the caller no
// wake-up at all.
//
// Single-owner: RunOnAll may not be called concurrently with itself,
// nor re-entrantly from inside a region (checked for every pool size,
// including the thread-free pool of 1). The job callable must itself be
// safe to invoke from many threads at once.
//
// Dispatch is a FunctionRef (common/function_ref.h), not a
// std::function: RunOnAll blocks until every worker has returned, so
// the job only ever needs to be *referenced* for the duration of the
// call — owning type-erasure would add a possible heap allocation and
// an extra indirection on the per-batch path for nothing.

#ifndef TOPK_SERVE_THREAD_POOL_H_
#define TOPK_SERVE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/function_ref.h"

namespace topk::serve {

class ThreadPool {
 public:
  // `num_threads` workers, counting the calling thread.
  explicit ThreadPool(size_t num_threads) {
    TOPK_CHECK(num_threads >= 1);
    threads_.reserve(num_threads - 1);
    for (size_t i = 1; i < num_threads; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Workers per region, the calling thread included.
  size_t num_threads() const { return threads_.size() + 1; }

  // Runs job(worker_index) once on every worker — job(0) on the calling
  // thread — and blocks until every call has returned. The FunctionRef
  // only references the callable; the blocking barrier is what keeps it
  // alive long enough.
  void RunOnAll(FunctionRef<void(size_t)> job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      TOPK_CHECK(!in_region_);  // no concurrent or re-entrant RunOnAll
      in_region_ = true;
      job_ = &job;
      ++generation_;
      running_ = threads_.size();
    }
    work_cv_.notify_all();
    job(0);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return running_ == 0; });
    job_ = nullptr;
    in_region_ = false;
  }

 private:
  void WorkerLoop(size_t index) {
    uint64_t seen_generation = 0;
    for (;;) {
      const FunctionRef<void(size_t)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this, seen_generation] {
          return shutdown_ || generation_ != seen_generation;
        });
        if (shutdown_) return;
        seen_generation = generation_;
        job = job_;
      }
      (*job)(index);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--running_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Guarded by mu_.
  const FunctionRef<void(size_t)>* job_ = nullptr;  // valid while running
  uint64_t generation_ = 0;
  size_t running_ = 0;  // parked threads still inside the region
  bool in_region_ = false;  // a RunOnAll is between entry and return
  bool shutdown_ = false;
  // Last: the threads read every member above.
  std::vector<std::thread> threads_;
};

}  // namespace topk::serve

#endif  // TOPK_SERVE_THREAD_POOL_H_
