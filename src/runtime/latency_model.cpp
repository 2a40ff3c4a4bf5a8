#include "runtime/latency_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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
  // Written so that NaN fails every range test.
  if (!(model.straggler_fraction >= 0.0 && model.straggler_fraction <= 1.0) ||
      !(model.dropout_probability >= 0.0 &&
        model.dropout_probability <= 1.0)) {
    throw std::invalid_argument(
        "ParticipantPool: straggler_fraction/dropout_probability in [0, 1]");
  }
  if (!(model.straggler_slowdown >= 1.0) ||
      !std::isfinite(model.straggler_slowdown)) {
    throw std::invalid_argument(
        "ParticipantPool: straggler_slowdown must be finite and >= 1");
  }
  // Unit-mean normalization as in sim/des.cpp: divide the unit-median
  // lognormal draw by exp(sigma^2/2). A correction that overflows would
  // turn every speed into NaN.
  const double mean_correction =
      std::exp(0.5 * model.speed_sigma * model.speed_sigma);
  if (!(model.speed_sigma >= 0.0) || !std::isfinite(mean_correction)) {
    throw std::invalid_argument(
        "ParticipantPool: speed_sigma must be >= 0 with exp(sigma^2/2) "
        "finite");
  }

  const auto n = static_cast<std::size_t>(count);
  speed_.resize(n);
  free_at_.assign(n, 0.0);

  auto engine = rng::make_stream(seed ^ kSpeedSalt, 0);
  for (std::size_t p = 0; p < n; ++p) {
    double s = model.speed_sigma > 0.0
                   ? rng::lognormal_unit_median(model.speed_sigma, engine) /
                         mean_correction
                   : 1.0;
    if (model.straggler_fraction > 0.0 &&
        rng::bernoulli(model.straggler_fraction, engine)) {
      ++straggler_count_;
      s /= model.straggler_slowdown;
    }
    speed_[p] = s;
  }
}

ParticipantPool::Issue ParticipantPool::issue(platform::ParticipantId id,
                                              double now, double demand,
                                              std::uint64_t unit,
                                              std::int64_t attempt) {
  if (model_.dropout_probability > 0.0 &&
      rng::first_bernoulli(model_.dropout_probability, seed_ ^ kDropoutSalt,
                           unit_attempt_stream(unit, attempt))) {
    return {false, 0.0};
  }
  const double service = demand / speed_[id];
  const double start = std::max(now, free_at_[id]);
  const double finish = start + service + LatencyModel::kNetworkDelay;
  free_at_[id] = finish;
  return {true, finish};
}

}  // namespace redund::runtime
