// Per-participant latency / availability model for the async runtime.
//
// sim/des.cpp models heterogeneous speeds only; real volunteer fleets also
// contain *stragglers* (hosts an order of magnitude slower than the median —
// the population the straggler-replication literature targets) and hosts
// that silently vanish mid-unit (power-off, detach, network loss). The
// model here is the minimal superset the runtime needs:
//
//   * base speed: lognormal with log-scale sigma, normalized to unit mean
//     so aggregate capacity is invariant in the spread (same convention as
//     sim/des.cpp);
//   * stragglers: an independent Bernoulli(straggler_fraction) coin marks a
//     participant as a straggler and divides its speed by
//     straggler_slowdown;
//   * no-reply faults: each *issue* of a unit independently never returns
//     with probability dropout_probability — the completion event is simply
//     never scheduled and only the unit's deadline fires;
//   * a fixed network delay (kNetworkDelay) added to every successful
//     round trip.
//
// Every draw is keyed off (seed, participant) or (seed, unit, attempt)
// SplitMix64 streams, so outcomes are independent of event ordering and the
// whole simulation replays bit-identically for a fixed seed.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/identity.hpp"

namespace redund::runtime {

/// Configuration of the participant latency/availability model.
struct LatencyModel {
  /// Mean task service demand; per-task demands are exponential(mean) and
  /// shared by all copies of a task (same code, same data).
  static constexpr double kMeanService = 1.0;
  /// Fixed supervisor<->participant round-trip added to each completion.
  static constexpr double kNetworkDelay = 0.0;

  /// Lognormal sigma of base participant speeds (0 = homogeneous).
  double speed_sigma = 0.0;
  /// Probability a participant is a straggler.
  double straggler_fraction = 0.0;
  /// Speed divisor applied to stragglers (>= 1).
  double straggler_slowdown = 8.0;
  /// Per-issue probability the result never comes back.
  double dropout_probability = 0.0;
};

/// Stream index of one (unit, attempt) pair, shared by every per-issue coin
/// (dropout, benign error, fault-window coins), so a draw depends on which
/// copy is issued, never on when. Attempts 64 apart share coins. Widening
/// the key would move every draw and with it every fingerprint.
[[nodiscard]] constexpr std::uint64_t unit_attempt_stream(
    std::uint64_t unit, std::int64_t attempt) noexcept {
  return unit * 64 + static_cast<std::uint64_t>(attempt & 63);
}

/// Materialized per-participant state: speeds, straggler flags, and the
/// FCFS busy-until clock used to serialize each participant's queue.
class ParticipantPool {
 public:
  /// Draws speeds and straggler flags for `count` participants from streams
  /// keyed off `seed`. Throws std::invalid_argument on bad model settings.
  ParticipantPool(const LatencyModel& model, std::int64_t count,
                  std::uint64_t seed);

  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(speed_.size());
  }
  [[nodiscard]] double speed(platform::ParticipantId id) const {
    return speed_[id];
  }
  [[nodiscard]] bool is_straggler(platform::ParticipantId id) const {
    return straggler_[id] != 0;
  }
  [[nodiscard]] std::int64_t straggler_count() const noexcept;

  /// Outcome of issuing one unit to one participant.
  struct Issue {
    bool replies = true;            ///< False: dropped, no completion event.
    double completion_time = 0.0;   ///< Valid only when replies.
  };

  /// Issues a unit of service demand `demand` to `id` at time `now`,
  /// advancing the participant's FCFS queue clock on success. The dropout
  /// coin is keyed off (unit, attempt) so replay order cannot affect it.
  Issue issue(platform::ParticipantId id, double now, double demand,
              std::uint64_t unit, std::int64_t attempt);

 private:
  const LatencyModel model_;
  const std::uint64_t seed_;
  std::vector<double> speed_;
  std::vector<char> straggler_;
  std::vector<double> free_at_;
};

}  // namespace redund::runtime
