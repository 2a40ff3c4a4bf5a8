// Unit tests for redund_parallel: pool lifecycle, fork-join regions,
// exception propagation, and the determinism contract of parallel_reduce.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel_reduce.hpp"

namespace p = redund::parallel;

namespace {

TEST(ThreadPool, DefaultSizeIsPositive) {
  p::ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExplicitSizeHonoured) {
  p::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, RunCallsJobOnCallerAndHelpers) {
  p::ThreadPool pool(3);
  std::atomic<int> calls{0};
  auto job = [&calls] { calls.fetch_add(1, std::memory_order_relaxed); };
  pool.run(2, job);
  EXPECT_EQ(calls.load(), 3);  // The caller plus two workers.
  calls.store(0);
  pool.run(0, job);
  EXPECT_EQ(calls.load(), 1);  // The caller alone.
}

TEST(ThreadPool, NestedAndConcurrentParallelForComplete) {
  // Two threads share one pool, and each body runs a parallel_for of its
  // own. Only one region runs at a time; a call that finds the pool busy
  // drains its blocks inline, so nothing deadlocks and every index is
  // still visited once per thread.
  p::ThreadPool pool(3);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  const auto nested = [&] {
    p::parallel_for(pool, kOuter, [&](std::size_t i) {
      p::parallel_for(pool, kInner, [&](std::size_t j) {
        visits[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
      });
    });
  };
  std::thread other(nested);
  nested();
  other.join();
  for (std::size_t k = 0; k < visits.size(); ++k) {
    EXPECT_EQ(visits[k].load(), 2) << "index " << k;
  }
}

// ---------------------------------------------------------------- decompose

TEST(Decompose, CoversRangeExactlyOnce) {
  for (const std::size_t count : {0u, 1u, 7u, 100u, 101u}) {
    for (const std::size_t pieces : {1u, 2u, 3u, 8u, 200u}) {
      const auto blocks = p::decompose(count, pieces);
      std::size_t covered = 0;
      std::size_t expected_begin = 0;
      for (const auto& [begin, end] : blocks) {
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LT(begin, end);  // Never empty.
        covered += end - begin;
        expected_begin = end;
      }
      EXPECT_EQ(covered, count) << "count=" << count << " pieces=" << pieces;
    }
  }
}

TEST(Decompose, BlockSizesDifferByAtMostOne) {
  const auto blocks = p::decompose(103, 8);
  std::size_t smallest = 1000;
  std::size_t largest = 0;
  for (const auto& [begin, end] : blocks) {
    smallest = std::min(smallest, end - begin);
    largest = std::max(largest, end - begin);
  }
  EXPECT_LE(largest - smallest, 1u);
}

// ------------------------------------------------------------- parallel_for

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  p::ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  p::parallel_for(pool, visits.size(),
                  [&visits](std::size_t i) { ++visits[i]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  p::ThreadPool pool(2);
  bool ran = false;
  p::parallel_for(pool, 0, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, PropagatesBodyException) {
  p::ThreadPool pool(2);
  EXPECT_THROW(p::parallel_for(pool, 10,
                               [](std::size_t i) {
                                 if (i == 5) throw std::logic_error("bad");
                               }),
               std::logic_error);
}

// ---------------------------------------------------------- parallel_reduce

TEST(ParallelReduce, SumsIntegers) {
  p::ThreadPool pool(4);
  const auto total = p::parallel_reduce<long>(
      pool, 1000, 0L, [](std::size_t i) { return static_cast<long>(i + 1); },
      [](long a, long b) { return a + b; });
  EXPECT_EQ(total, 500500L);
}

TEST(ParallelReduce, DeterministicAcrossPoolSizes) {
  // Floating-point reduction must be bit-identical for any thread count: the
  // combine order is fixed by block index, not by completion order.
  const auto run = [](std::size_t threads) {
    p::ThreadPool pool(threads);
    return p::parallel_reduce<double>(
        pool, 5000, 0.0,
        [](std::size_t i) { return 1.0 / static_cast<double>(i + 1); },
        [](double a, double b) { return a + b; });
  };
  const double reference = run(1);
  // The block layout is a pure function of the iteration count (never the
  // pool size) and partials combine in ascending block order, so the result
  // is bit-identical for ANY thread count — not merely close.
  EXPECT_EQ(run(1), reference);
  EXPECT_EQ(run(2), reference);
  EXPECT_EQ(run(4), reference);
  EXPECT_EQ(run(7), reference);
}

TEST(ParallelReduce, IdentityReturnedForZeroCount) {
  p::ThreadPool pool(2);
  const auto result = p::parallel_reduce<int>(
      pool, 0, -17, [](std::size_t) { return 1; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(result, -17);
}

TEST(ParallelReduce, NonCommutativeCombinePreservesOrder) {
  // Concatenation is order-sensitive; result must be "0123...".
  p::ThreadPool pool(3);
  const auto result = p::parallel_reduce<std::string>(
      pool, 10, std::string{},
      [](std::size_t i) { return std::to_string(i); },
      [](std::string a, const std::string& b) { return a + b; });
  EXPECT_EQ(result, "0123456789");
}

TEST(ParallelReduceBlocks, MapBlockSeesContiguousDisjointRanges) {
  p::ThreadPool pool(3);
  constexpr std::size_t kCount = 5000;
  const auto total = p::parallel_reduce_blocks<std::uint64_t>(
      pool, kCount, std::uint64_t{0},
      [](std::size_t begin, std::size_t end) {
        EXPECT_LT(begin, end);
        std::uint64_t sum = 0;
        for (std::size_t i = begin; i < end; ++i) sum += i;
        return sum;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(total, static_cast<std::uint64_t>(kCount) * (kCount - 1) / 2);
}

TEST(ParallelReduceBlocks, BlockStateStaysWithinOneBlock) {
  // A block-local accumulator (the ReplicaScratch pattern) must never leak
  // between blocks through the combine: string concatenation per block keeps
  // ascending order overall.
  p::ThreadPool pool(4);
  const auto result = p::parallel_reduce_blocks<std::string>(
      pool, 12, std::string{},
      [](std::size_t begin, std::size_t end) {
        std::string partial;
        for (std::size_t i = begin; i < end; ++i) partial += std::to_string(i);
        return partial;
      },
      [](std::string a, const std::string& b) { return a + b; });
  EXPECT_EQ(result, "01234567891011");
}

TEST(ThreadPool, UnbalancedBlocksFinishViaStealing) {
  // One long block plus many short ones: the block ticket must let the
  // other threads of the region drain the short blocks while one chews the
  // long one, and every index must still be visited exactly once.
  p::ThreadPool pool(4);
  constexpr std::size_t kCount = 400;
  std::vector<std::atomic<int>> visits(kCount);
  p::parallel_for(pool, kCount, [&visits](std::size_t i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
