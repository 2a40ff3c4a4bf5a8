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
//   * a fixed network_delay added to every successful round trip.
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
  double mean_service = 1.0;
  /// Deterministic demands instead of exponential (all = mean_service).
  bool deterministic_service = false;
  /// Lognormal sigma of base participant speeds (0 = homogeneous).
  double speed_sigma = 0.0;
  /// Probability a participant is a straggler.
  double straggler_fraction = 0.0;
  /// Speed divisor applied to stragglers (>= 1).
  double straggler_slowdown = 8.0;
  /// Per-issue probability the result never comes back.
  double dropout_probability = 0.0;
  /// Fixed supervisor<->participant round-trip added to each completion.
  double network_delay = 0.0;
};

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

  /// Pre-draws the dropout coins of units [0, unit_count) at `attempt`
  /// into per-unit primed slots that subsequent issue() calls at that
  /// attempt consume instead of re-deriving a stream each. The whole wave
  /// is generated by the vectorized bulk kernel (rng/bulk.hpp). A pure
  /// cache over keyed coins: outcomes are byte-identical with or without
  /// it. No-op when dropouts are disabled.
  void prime_dropout_coins(std::uint64_t unit_count, std::int64_t attempt);

  /// Wave form for mid-campaign reissue storms: pre-draws the coins of an
  /// arbitrary batch of (unit, attempt) pairs (each unit at its own next
  /// attempt). Same pure-cache contract as prime_dropout_coins; a unit's
  /// primed slot is valid only for the exact attempt it was primed at.
  void prime_dropout_coins_wave(const std::uint64_t* units,
                                const std::int32_t* attempts, std::size_t n);

 private:
  const LatencyModel model_;
  const std::uint64_t seed_;
  std::vector<double> speed_;
  std::vector<char> straggler_;
  std::vector<double> free_at_;
  void ensure_primed_storage_(std::size_t unit_count);

  // Batched dropout coins (see prime_dropout_coins): unit u's coin in
  // primed_coins_[u] is valid when primed_attempt_for_[u] matches the
  // issue's attempt. Derived cache.
  std::vector<std::uint8_t> primed_coins_;
  std::vector<std::int32_t> primed_attempt_for_;
  std::vector<std::uint64_t> draw_scratch_;
  std::vector<std::uint64_t> key_scratch_;
  std::vector<std::uint8_t> coin_scratch_;
};

}  // namespace redund::runtime
