#include "runtime/latency_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rng/bulk.hpp"
#include "rng/distributions.hpp"

namespace redund::runtime {

namespace {
constexpr std::uint64_t kSpeedSalt = 0x5EEDFACEULL;
constexpr std::uint64_t kDropoutSalt = 0xD40F0FFULL;
}  // namespace

ParticipantPool::ParticipantPool(const LatencyModel& model, std::int64_t count,
                                 std::uint64_t seed)
    : model_(model), seed_(seed) {
  if (count < 1) {
    throw std::invalid_argument("ParticipantPool: count >= 1");
  }
  if (!(model.mean_service > 0.0)) {
    throw std::invalid_argument("ParticipantPool: mean_service > 0");
  }
  if (model.straggler_fraction < 0.0 || model.straggler_fraction > 1.0 ||
      model.dropout_probability < 0.0 || model.dropout_probability > 1.0) {
    throw std::invalid_argument(
        "ParticipantPool: straggler_fraction/dropout_probability in [0, 1]");
  }
  if (!(model.straggler_slowdown >= 1.0)) {
    throw std::invalid_argument("ParticipantPool: straggler_slowdown >= 1");
  }
  if (model.network_delay < 0.0) {
    throw std::invalid_argument("ParticipantPool: network_delay >= 0");
  }

  const auto n = static_cast<std::size_t>(count);
  speed_.resize(n);
  straggler_.assign(n, 0);
  free_at_.assign(n, 0.0);

  // Unit-mean normalization as in sim/des.cpp: divide the unit-median
  // lognormal draw by exp(sigma^2/2).
  const double mean_correction =
      std::exp(0.5 * model.speed_sigma * model.speed_sigma);
  auto engine = rng::make_stream(seed ^ kSpeedSalt, 0);
  for (std::size_t p = 0; p < n; ++p) {
    double s = model.speed_sigma > 0.0
                   ? rng::lognormal_unit_median(model.speed_sigma, engine) /
                         mean_correction
                   : 1.0;
    if (model.straggler_fraction > 0.0 &&
        rng::bernoulli(model.straggler_fraction, engine)) {
      straggler_[p] = 1;
      s /= model.straggler_slowdown;
    }
    speed_[p] = s;
  }
}

std::int64_t ParticipantPool::straggler_count() const noexcept {
  return static_cast<std::int64_t>(
      std::count(straggler_.begin(), straggler_.end(), char{1}));
}

void ParticipantPool::ensure_primed_storage_(std::size_t unit_count) {
  if (primed_coins_.size() < unit_count) {
    primed_coins_.resize(unit_count, 0);
    primed_attempt_for_.resize(unit_count, -1);
  }
}

void ParticipantPool::prime_dropout_coins(std::uint64_t unit_count,
                                          std::int64_t attempt) {
  if (model_.dropout_probability <= 0.0) return;
  ensure_primed_storage_(unit_count);
  // Buffer-then-consume: each coin is the same (unit, attempt)-keyed draw
  // issue() would make on its own, so pre-filling the whole batch here in
  // one vectorized pass cannot change any outcome — only the cache
  // behaviour of the mass-issue loop that consumes it.
  const std::uint64_t lane = static_cast<std::uint64_t>(attempt & 63);
  draw_scratch_.resize(unit_count);
  rng::bulk_first_bernoulli_strided(model_.dropout_probability,
                                    seed_ ^ kDropoutSalt, lane, 64,
                                    unit_count, draw_scratch_.data(),
                                    primed_coins_.data());
  std::fill_n(primed_attempt_for_.begin(), unit_count,
              static_cast<std::int32_t>(attempt));
}

void ParticipantPool::prime_dropout_coins_wave(const std::uint64_t* units,
                                               const std::int32_t* attempts,
                                               std::size_t n) {
  if (model_.dropout_probability <= 0.0 || n == 0) return;
  std::uint64_t max_unit = 0;
  for (std::size_t i = 0; i < n; ++i) max_unit = std::max(max_unit, units[i]);
  ensure_primed_storage_(static_cast<std::size_t>(max_unit) + 1);
  key_scratch_.resize(n);
  draw_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    key_scratch_[i] =
        units[i] * 64 +
        static_cast<std::uint64_t>(
            static_cast<std::uint64_t>(attempts[i]) & 63);
  }
  // The coins land in the wave's scratch first (coin_scratch doubles as
  // the output), then scatter into the per-unit slots.
  std::vector<std::uint8_t>& coins = coin_scratch_;
  coins.resize(n);
  rng::bulk_first_bernoulli(model_.dropout_probability, seed_ ^ kDropoutSalt,
                            key_scratch_.data(), n, draw_scratch_.data(),
                            coins.data());
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(units[i]);
    primed_coins_[u] = coins[i];
    primed_attempt_for_[u] = attempts[i];
  }
}

ParticipantPool::Issue ParticipantPool::issue(platform::ParticipantId id,
                                              double now, double demand,
                                              std::uint64_t unit,
                                              std::int64_t attempt) {
  if (model_.dropout_probability > 0.0) {
    const bool dropped =
        (unit < primed_coins_.size() &&
         primed_attempt_for_[unit] == static_cast<std::int32_t>(attempt))
            ? primed_coins_[unit] != 0
            : rng::first_bernoulli(
                  model_.dropout_probability, seed_ ^ kDropoutSalt,
                  unit * 64 + static_cast<std::uint64_t>(attempt & 63));
    if (dropped) return {false, 0.0};
  }
  const double service = demand / speed_[id];
  const double start = std::max(now, free_at_[id]);
  const double finish = start + service + model_.network_delay;
  free_at_[id] = finish;
  return {true, finish};
}

}  // namespace redund::runtime
