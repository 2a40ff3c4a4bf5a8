#include "parallel/thread_pool.hpp"

#include <algorithm>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace redund::parallel {

std::size_t available_parallelism() noexcept {
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int cpus = CPU_COUNT(&mask);
    if (cpus > 0) return static_cast<std::size_t>(cpus);
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void ThreadPool::pin_workers() noexcept {
#ifdef __linux__
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  if (CPU_COUNT(&allowed) < 2) return;  // Nothing to spread over.
  // The allowed CPUs, in id order (the mask can be sparse in a container).
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i % cpus.size()], &one);
    // Best-effort: a failed pin leaves the worker on the full mask.
    (void)pthread_setaffinity_np(threads_[i].native_handle(), sizeof(one),
                                 &one);
  }
#endif
}

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) thread_count = available_parallelism();
  threads_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    threads_.emplace_back([this] { worker_loop_(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::run_(std::size_t helpers, JobFn job, void* target) {
  helpers = std::min(helpers, threads_.size());
  if (helpers == 0 || busy_.exchange(true)) {
    job(target);  // No helpers wanted, or the pool is busy: run alone.
    return;
  }
  {
    const std::scoped_lock lock(mutex_);
    ++generation_;
    unclaimed_ = helpers;
    pending_ = helpers;
    job_ = job;
    target_ = target;
  }
  // Each notify wakes a distinct sleeping worker. A worker that is not
  // asleep here (before its first wait, or woken spuriously) re-checks the
  // predicate under the lock and claims a slot itself.
  for (std::size_t i = 0; i < helpers; ++i) wake_.notify_one();
  job(target);
  {
    std::unique_lock lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
  }
  busy_.store(false);
}

void ThreadPool::worker_loop_() {
  std::uint64_t seen = 0;  // Last region this worker looked at.
  std::unique_lock lock(mutex_);
  while (true) {
    wake_.wait(lock, [&] {
      return stopping_ || (generation_ != seen && unclaimed_ > 0);
    });
    if (stopping_) return;
    seen = generation_;
    --unclaimed_;
    const JobFn job = job_;
    void* const target = target_;
    lock.unlock();
    job(target);
    lock.lock();
    if (--pending_ == 0) done_.notify_one();
  }
}

}  // namespace redund::parallel
