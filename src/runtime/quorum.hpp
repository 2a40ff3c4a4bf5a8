// Branchless quorum/validation counting over packed vote words.
//
// The runtime's validator does not call these kernels: it answers
// unanimity from a per-task aggregate and resolves every mismatch by a
// supervisor recompute. They remain for bench/e2e's quorum probe and
// tests/test_quorum.cpp.
//
// A plurality validator asks two questions about the (few) result
// copies of a task: do they all agree, and if not, which value has the
// plurality? The scalar tally answers both with per-replica branching
// (a compare-and-branch per copy per distinct value) that the branch
// predictor cannot learn — the values are adversarial by construction.
//
// These kernels answer the same questions over vote *words*: the copies'
// values are gathered into a flat array of up to 64 lanes plus a
// presence bitmask, equality classes are built as bitmasks (one
// compare per pair, materialized as a mask, no branches in the inner
// loop), and class sizes fall out of popcount. The winner and the tie
// flag are reductions over those counts.
//
// Contract: identical verdicts to the scalar tally for every input —
// tests/test_quorum.cpp proves equivalence exhaustively over all vote
// patterns up to the max quorum size. Quorums beyond 64 copies (beyond
// any plan this project realizes) must take the scalar path.
#pragma once

#include <bit>
#include <cstdint>

namespace redund::runtime {

/// Max copies a packed vote word can hold (one presence bit per copy).
inline constexpr int kMaxPackedQuorum = 64;

/// Verdict of a packed plurality tally.
struct QuorumTally {
  std::uint64_t winner = 0;  ///< Plurality value (lowest lane on ties).
  int best_count = 0;        ///< Its vote count; 0 when no lane is present.
  bool tie = false;          ///< Another value class matched best_count.
};

/// True iff every present lane holds the same value (vacuously true for
/// an empty mask). Branchless over the lanes: each lane contributes its
/// XOR against the reference value, masked by its presence bit.
[[nodiscard]] inline bool all_equal_packed(const std::uint64_t* values,
                                           std::uint64_t present,
                                           int lanes) noexcept {
  if (present == 0) return true;
  const std::uint64_t ref =
      values[std::countr_zero(present)];
  std::uint64_t diff = 0;
  for (int i = 0; i < lanes; ++i) {
    const std::uint64_t lane_present = (present >> i) & 1ULL;
    diff |= (values[i] ^ ref) & (0ULL - lane_present);
  }
  return diff == 0;
}

/// Plurality vote over up to 64 packed lanes. For each lane present in
/// `present`, builds the equality-class bitmask (which other lanes hold
/// the same value) with compare-to-mask arithmetic, counts the class via
/// popcount, and keeps the largest class. A class is tallied once, at
/// its lowest lane. Ties report tie = true with the lowest-lane winner —
/// callers resolve ties by policy (the supervisor recomputes).
[[nodiscard]] inline QuorumTally tally_packed(const std::uint64_t* values,
                                              std::uint64_t present,
                                              int lanes) noexcept {
  QuorumTally tally;
  std::uint64_t counted = 0;  // Lanes already claimed by an earlier class.
  for (int i = 0; i < lanes; ++i) {
    const std::uint64_t bit = 1ULL << i;
    if ((present & bit) == 0 || (counted & bit) != 0) continue;
    // Equality class of lane i over the remaining lanes, branch-free:
    // each comparison becomes an all-ones/all-zeros mask.
    std::uint64_t cls = 0;
    for (int j = i; j < lanes; ++j) {
      const std::uint64_t equal =
          static_cast<std::uint64_t>(values[j] == values[i]);
      cls |= (equal << j);
    }
    cls &= present;
    counted |= cls;
    const int count = std::popcount(cls);
    if (count > tally.best_count) {
      tally.best_count = count;
      tally.winner = values[i];
      tally.tie = false;
    } else if (count == tally.best_count) {
      tally.tie = true;
    }
  }
  return tally;
}

}  // namespace redund::runtime
