// Deterministic pseudo-random engines for reproducible parallel simulation.
//
// The Monte Carlo driver (redund_sim) runs thousands of independent
// simulation replicas, possibly spread across a thread pool. Results must be
// bit-reproducible regardless of thread count, so each replica derives its
// own engine deterministically from (master seed, replica index) via
// SplitMix64 — the standard seeding construction recommended by the xoshiro
// authors — rather than sharing a sequential stream.
//
// Engines satisfy std::uniform_random_bit_generator and so compose with the
// samplers in rng/distributions.hpp.
#pragma once

#include <array>
#include <cstdint>

namespace redund::rng {

/// SplitMix64: a tiny, high-quality 64-bit generator used here primarily as a
/// seed sequence / stream splitter. Passes BigCrush; period 2^64.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  constexpr result_type operator()() noexcept {
    state_ += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna): the library's workhorse generator.
/// Period 2^256 - 1, passes BigCrush, four 64-bit words of state, ~1 ns/draw.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds all four state words from SplitMix64(seed) per the authors'
  /// recommendation (guarantees a non-zero state).
  constexpr explicit Xoshiro256StarStar(std::uint64_t seed = 0xC0FFEE123456789ULL) noexcept {
    SplitMix64 mixer(seed);
    for (auto& word : state_) word = mixer();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl_(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl_(state_[3], 45);
    return result;
  }

 private:
  static constexpr std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Derives the engine for stream `stream_index` of a run keyed by
/// `master_seed`. Deterministic, collision-resistant (distinct streams get
/// statistically independent seeds through the SplitMix64 avalanche), and
/// independent of thread scheduling.
[[nodiscard]] constexpr Xoshiro256StarStar make_stream(std::uint64_t master_seed,
                                                       std::uint64_t stream_index) noexcept {
  SplitMix64 mixer(master_seed ^ (0x9E3779B97F4A7C15ULL * (stream_index + 1)));
  // Burn one output so stream 0 with seed 0 is not the raw SplitMix64 of 0.
  const std::uint64_t derived = mixer() ^ mixer();
  return Xoshiro256StarStar(derived);
}

/// The first output of make_stream(master_seed, stream_index)'s engine,
/// without constructing it. xoshiro256**'s first draw reads only
/// state_[1] — rotl(s1 * 5, 7) * 9 — so two steps of the seeding
/// SplitMix64 (after the two derivation steps) suffice: roughly half the
/// work of building and stepping the full 256-bit engine. Bit-identical
/// to make_stream(master_seed, stream_index)() by construction; most of
/// the runtime's keyed coins (dropout, fault windows, cheat activation)
/// consume exactly one draw per stream and take this path.
[[nodiscard]] constexpr std::uint64_t first_draw(
    std::uint64_t master_seed, std::uint64_t stream_index) noexcept {
  SplitMix64 mixer(master_seed ^ (0x9E3779B97F4A7C15ULL * (stream_index + 1)));
  const std::uint64_t derived = mixer() ^ mixer();
  SplitMix64 seeder(derived);
  (void)seeder();                      // state_[0]: unused by draw one.
  const std::uint64_t s1 = seeder();   // state_[1]: the whole first draw.
  const std::uint64_t scaled = s1 * 5;
  return ((scaled << 7) | (scaled >> 57)) * 9;
}

}  // namespace redund::rng
