// Per-item deterministic map-reduce over parallel::parallel_reduce_blocks.
//
// The library folds whole blocks (kernels keep per-thread scratch across a
// block); this per-item form is the replica-by-replica fold the bulk
// two-phase path is checked against (two_phase_reference.hpp), and the
// determinism contract's plainest statement (test_parallel.cpp).
#pragma once

#include <cstddef>
#include <utility>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace redund::parallel {

/// Deterministic map-reduce: computes combine(..., map(i), ...) over
/// i in [0, count). `map(i)` returns a value of type T; partial results per
/// block are folded with `combine(T, T)` in ascending block order, so the
/// result does not depend on the pool size or scheduling.
template <typename T, typename Map, typename Combine>
[[nodiscard]] T parallel_reduce(ThreadPool& pool, std::size_t count, T identity,
                                Map&& map, Combine&& combine) {
  return parallel_reduce_blocks<T>(
      pool, count, identity,
      [identity, &map, &combine](std::size_t begin, std::size_t end) {
        T partial = identity;
        for (std::size_t i = begin; i < end; ++i) {
          partial = combine(std::move(partial), map(i));
        }
        return partial;
      },
      combine);
}

}  // namespace redund::parallel
