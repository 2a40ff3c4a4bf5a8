// Index-range parallelism and deterministic parallel reduction on top of
// ThreadPool.
//
// The key property for this library is *schedule-independent determinism*:
// work is decomposed into blocks whose layout depends only on the iteration
// count — never on the pool size — and parallel_reduce_blocks combines
// per-block partial results in ascending block order on the calling
// thread. The floating-point (and byte-level) result is therefore
// identical for any thread count — a requirement for reproducing the
// paper's Monte Carlo numbers exactly across machines.
//
// Scheduling is dynamic: blocks are claimed from an atomic ticket counter,
// so a slow block (straggler replica, NUMA miss) never idles the other
// workers the way the old static per-thread decomposition did. The calling
// thread drains blocks too, inside one ThreadPool::run region; a call that
// finds the pool busy (nested, or from a second thread) drains every block
// itself, so these entry points never deadlock.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace redund::parallel {

/// Static block decomposition of [0, count) into at most `pieces` contiguous
/// blocks of near-equal size. Returns (begin, end) pairs; never returns an
/// empty block.
[[nodiscard]] inline std::vector<std::pair<std::size_t, std::size_t>> decompose(
    std::size_t count, std::size_t pieces) {
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  if (count == 0 || pieces == 0) return blocks;
  pieces = std::min(pieces, count);
  const std::size_t base = count / pieces;
  const std::size_t extra = count % pieces;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < pieces; ++i) {
    const std::size_t len = base + (i < extra ? 1 : 0);
    blocks.emplace_back(begin, begin + len);
    begin += len;
  }
  return blocks;
}

/// Number of scheduling blocks for an iteration count. Depends ONLY on
/// `count` (never on the pool size): the block layout is part of the
/// determinism contract. 256 blocks keep dynamic load balancing effective
/// up to large machines while costing one relaxed fetch_add each.
[[nodiscard]] inline std::size_t schedule_blocks(std::size_t count) noexcept {
  constexpr std::size_t kMaxBlocks = 256;
  return std::min(count, kMaxBlocks);
}

/// Runs body(block_index, begin, end) for every block, claiming blocks
/// dynamically from an atomic ticket counter across the pool plus the
/// calling thread. Blocks until all blocks complete; rethrows the first
/// exception a block threw (remaining unclaimed blocks are abandoned).
template <typename BlockBody>
void parallel_for_blocks(
    ThreadPool& pool,
    const std::vector<std::pair<std::size_t, std::size_t>>& blocks,
    BlockBody&& body) {
  if (blocks.empty()) return;
  if (blocks.size() == 1) {  // Fast path: no scheduling, no region.
    body(std::size_t{0}, blocks[0].first, blocks[0].second);
    return;
  }
  std::atomic<std::size_t> ticket{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  auto drain = [&] {  // Must not throw: ThreadPool::run's contract.
    while (!failed.load(std::memory_order_acquire)) {
      const std::size_t b = ticket.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks.size()) return;
      try {
        body(b, blocks[b].first, blocks[b].second);
      } catch (...) {
        {
          const std::scoped_lock lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        failed.store(true, std::memory_order_release);
      }
    }
  };

  // Helpers are capped by the CPUs this process may actually run on, not
  // just the pool size: with the calling thread already draining blocks,
  // waking more than available_parallelism() - 1 workers cannot add
  // throughput, only context-switch churn (on a 1-CPU container an
  // 8-worker pool would otherwise time-slice 9 runnable threads through
  // one core). Results are unaffected — the block layout never depends on
  // how many threads drain it.
  const std::size_t cpus = available_parallelism();
  const std::size_t helpers =
      std::min({pool.size(), blocks.size() - 1, cpus - 1});
  pool.run(helpers, drain);
  if (error) std::rethrow_exception(error);
}

/// Runs body(i) for every i in [0, count), distributing blocks over the
/// pool. Blocks until all iterations complete. `body` must be callable
/// concurrently from multiple threads.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t count, Body&& body) {
  const auto blocks = decompose(count, schedule_blocks(count));
  parallel_for_blocks(pool, blocks,
                      [&body](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) body(i);
                      });
}

/// Deterministic block-level map-reduce: map_block(begin, end) returns one
/// partial of type T per block; partials are folded with combine(T, T) in
/// ascending block order on the calling thread. Because the block layout is
/// a pure function of `count`, the result is byte-identical for any pool
/// size. Kernels carry per-thread scratch state across a whole block (see
/// sim::run_monte_carlo).
template <typename T, typename MapBlock, typename Combine>
[[nodiscard]] T parallel_reduce_blocks(ThreadPool& pool, std::size_t count,
                                       T identity, MapBlock&& map_block,
                                       Combine&& combine) {
  const auto blocks = decompose(count, schedule_blocks(count));
  if (blocks.empty()) return identity;
  std::vector<std::optional<T>> partials(blocks.size());
  parallel_for_blocks(
      pool, blocks,
      [&partials, &map_block](std::size_t b, std::size_t begin,
                              std::size_t end) {
        partials[b].emplace(map_block(begin, end));
      });
  T result = std::move(identity);
  for (auto& partial : partials) {
    result = combine(std::move(result), std::move(*partial));
  }
  return result;
}

}  // namespace redund::parallel
