// A fixed set of worker threads that join the calling thread in one
// fork-join region at a time (C++ Core Guidelines CP.41: minimize thread
// creation/destruction).
//
// The pool is the execution substrate for parallel_for and the Monte Carlo
// reductions. Worker threads are created once, never detached (CP.26), and
// joined in the destructor (CP.23/CP.25 — the pool behaves as a scoped
// container of joining threads).
//
// The pool's only operation is run(helpers, job): the caller and up to
// `helpers` workers each call job() once. Work distribution inside a region
// is the job's business (parallel_for_blocks drains an atomic block
// ticket), so a region costs one broadcast and one completion wait.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"

namespace redund::parallel {

/// Number of CPUs actually available to this process — the scheduler
/// affinity mask when the platform exposes one (a container pinned to one
/// core reports 1 here even when hardware_concurrency() sees the host's
/// full socket), hardware_concurrency() otherwise, and never less than 1.
/// This sizes a default pool and bounds how many workers parallel_for
/// wakes per region.
[[nodiscard]] std::size_t available_parallelism() noexcept;

/// Fixed-size pool of worker threads running one fork-join region at a time.
///
/// Thread-safe: run() may be called from any thread, including from inside
/// a running job. Only one region runs at a time; a run() that finds the
/// pool busy (a second caller, or a nested parallel_for inside a job) calls
/// job() alone on its own thread instead of waiting, so it cannot deadlock.
class ThreadPool {
 public:
  /// Creates `thread_count` workers; 0 means available_parallelism().
  explicit ThreadPool(std::size_t thread_count = 0);

  /// Pins worker i to the (i mod k)-th CPU of the process's affinity mask
  /// (k = available_parallelism()), so each shard's event loop keeps its
  /// cache-hot calendar ring on one core instead of migrating. No-op when
  /// fewer than two CPUs are available or the platform has no affinity
  /// API. Scheduling and results are unaffected — pinning is a placement
  /// hint only, part of no determinism contract.
  void pin_workers() noexcept;

  /// Workers join. Must not run concurrently with run().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ThreadPool(ThreadPool&&) = delete;
  ThreadPool& operator=(ThreadPool&&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

  /// Calls job() on the calling thread and on min(helpers, size()) workers,
  /// once each, and returns when every call has returned. When the pool is
  /// already running a region, calls job() once on this thread only.
  /// `job` must not throw (a throw terminates): catch inside and forward.
  template <class Job>
  void run(std::size_t helpers, Job& job) {
    run_(helpers, [](void* target) noexcept { (*static_cast<Job*>(target))(); },
         static_cast<void*>(&job));
  }

 private:
  using JobFn = void (*)(void*) noexcept;

  void run_(std::size_t helpers, JobFn job, void* target);
  void worker_loop_();

  /// Set while a region runs: the region try-lock. Not a std::mutex, whose
  /// try_lock is undefined on the thread that owns it (a nested run()).
  std::atomic<bool> busy_{false};
  std::mutex mutex_;
  std::condition_variable wake_;  ///< Workers: a new region or stopping.
  std::condition_variable done_;  ///< Caller: every helper has returned.
  std::uint64_t generation_ REDUND_GUARDED_BY(mutex_) = 0;  ///< Region id.
  std::size_t unclaimed_ REDUND_GUARDED_BY(mutex_) = 0;  ///< Helper slots left.
  std::size_t pending_ REDUND_GUARDED_BY(mutex_) = 0;    ///< Helpers running.
  JobFn job_ REDUND_GUARDED_BY(mutex_) = nullptr;
  void* target_ REDUND_GUARDED_BY(mutex_) = nullptr;
  bool stopping_ REDUND_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;  ///< Last: the workers use the above.
};

}  // namespace redund::parallel
