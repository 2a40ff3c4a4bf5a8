// Per-task and per-unit runtime state of the asynchronous supervisor.
//
// A task's life follows the BOINC transitioner/validator shape
// (sched/transitioner.cpp in the BOINC source tree):
//
//   issue every copy --> all copies arrived --> validate
//     copies agree (or ringer) --> VALID
//     copies disagree --> one extra replica issued --> wait for it,
//                         then validate again
//     copies disagree, replicas exhausted --> supervisor recomputes --> VALID
//
// Only VALID is stored, as the TaskTable::kValid latch bit: a task without
// it is in progress, and the validation steps in between finish within one
// call. VALID is terminal, and the runtime guarantees every task gets there
// because a unit that exhausts its retries is recomputed by the supervisor,
// and a task whose copies still disagree once its replicas are exhausted is
// recomputed too and accepts the truth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace redund::runtime {

/// Lifecycle of one work unit (one issued copy of a task).
enum class UnitState : std::uint8_t {
  kUnsent,      ///< Dealt but not yet issued.
  kInProgress,  ///< Issued; completion or deadline pending.
  kCompleted,   ///< Result arrived before the deadline.
  kTimedOut,    ///< Deadline fired first; awaiting re-issue or recompute.
  kRecomputed,  ///< Supervisor computed it after retries ran out.
};

[[nodiscard]] constexpr const char* to_string(UnitState state) noexcept {
  switch (state) {
    case UnitState::kUnsent: return "UNSENT";
    case UnitState::kInProgress: return "IN_PROGRESS";
    case UnitState::kCompleted: return "COMPLETED";
    case UnitState::kTimedOut: return "TIMED_OUT";
    case UnitState::kRecomputed: return "RECOMPUTED";
  }
  return "?";
}

/// Structure-of-arrays table of the mutable per-unit runtime state. Which
/// task a unit copies and who holds it are not here: platform::Scheduler
/// owns the unit table, and the runtime reads its lanes.
///
/// The event loop touches exactly one or two lanes per event (a state
/// check and an epoch compare dominate), and the stall sweeps
/// (reestimate_deadline_, flag, set_offline_) walk one lane across every
/// unit. The array-of-structs record this replaces spread those touches
/// over 32-byte rows — one unit per half cache line; the hot lanes here
/// pack 16-64 units per line. Lane widths are sized to the values'
/// actual ranges (attempts is bounded by the retry policy, epoch by a
/// few increments per attempt).
struct UnitTable {
  std::vector<UnitState> state;
  std::vector<std::int32_t> attempts;   ///< Issues so far (1 = initial deal).
  std::vector<std::uint32_t> epoch;     ///< Bumped to stale in-flight timers.
  std::vector<std::uint64_t> value;

  [[nodiscard]] std::size_t size() const noexcept { return state.size(); }

  void reserve(std::size_t capacity) {
    state.reserve(capacity);
    attempts.reserve(capacity);
    epoch.reserve(capacity);
    value.reserve(capacity);
  }

  void resize(std::size_t count) {
    state.resize(count, UnitState::kUnsent);
    attempts.resize(count, 0);
    epoch.resize(count, 0);
    value.resize(count, 0);
  }

  /// Appends one zero-initialized unit (a replica).
  void append() {
    state.push_back(UnitState::kUnsent);
    attempts.push_back(0);
    epoch.push_back(0);
    value.push_back(0);
  }
};

/// Structure-of-arrays table of the mutable per-task runtime state. What
/// follows from elsewhere is not stored: ground truth is a keyed hash of
/// the seed, ringer membership and the replica count are the Scheduler's,
/// and the accepted value is counted when it is accepted.
///
/// The eight per-task latch booleans pack into one flags byte: they are
/// set-once markers the hot path only tests.
struct TaskTable {
  /// Latch bits in `flags`.
  enum Flag : std::uint8_t {
    kAdversaryCommitted = 1u << 0,
    kAdversaryCheats = 1u << 1,
    kMismatchCounted = 1u << 2,
    kRingerCounted = 1u << 3,
    kValid = 1u << 4,         ///< Accepted value recorded (terminal).
    kDetected = 1u << 5,
    kVoteSeen = 1u << 6,      ///< At least one copy's value folded in.
    kVoteMismatch = 1u << 7,  ///< Two folded values disagreed.
  };

  std::vector<std::uint8_t> flags;
  std::vector<std::int32_t> target_copies;  ///< Multiplicity + replicas.
  std::vector<std::int32_t> arrived;        ///< Completed/recomputed copies.
  std::vector<std::int32_t> control_boosts;
  std::vector<std::int32_t> control_released;
  /// Running unanimity aggregate: the first value folded in (arrival
  /// order). Valid only while kVoteMismatch is clear — once two values
  /// disagree the validator ignores it. Folding order cannot change
  /// behavior: the mismatch latch is symmetric in its inputs, and when it
  /// stays clear every folded value equals this one.
  std::vector<std::uint64_t> vote_value;

  [[nodiscard]] std::size_t size() const noexcept { return flags.size(); }

  void resize(std::size_t count) {
    flags.resize(count, 0);
    target_copies.resize(count, 0);
    arrived.resize(count, 0);
    control_boosts.resize(count, 0);
    control_released.resize(count, 0);
    vote_value.resize(count, 0);
  }

  /// Folds one arriving copy's value into the unanimity aggregate.
  void fold_vote(std::size_t t, std::uint64_t value) noexcept {
    if (!test(t, kVoteSeen)) {
      set(t, kVoteSeen);
      vote_value[t] = value;
    } else if (value != vote_value[t]) {
      set(t, kVoteMismatch);
    }
  }

  [[nodiscard]] bool test(std::size_t t, Flag flag) const noexcept {
    return (flags[t] & flag) != 0;
  }
  void set(std::size_t t, Flag flag) noexcept {
    flags[t] = static_cast<std::uint8_t>(flags[t] | flag);
  }
  void assign(std::size_t t, Flag flag, bool on) noexcept {
    flags[t] = static_cast<std::uint8_t>(on ? (flags[t] | flag)
                                            : (flags[t] & ~flag));
  }
};

}  // namespace redund::runtime
