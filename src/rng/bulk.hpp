// Bulk draws over keyed streams.
//
// Every coin the async runtime burns is keyed: stream k of master seed s
// yields a draw that depends only on (s, k), never on call order (see
// rng/engines.hpp first_draw). That independence is what makes *bulk*
// generation legal — a whole wave's draws can be filled into one
// contiguous buffer up front and consumed later, and the outcome is
// byte-identical to issuing each scalar draw at its natural call site.
//
// The kernels below are plain loops over the first_draw closed form (four
// SplitMix64 steps + the xoshiro** output scramble), which skips building
// a full engine per stream. On top of the raw draws sit wave samplers for
// the single-uniform inversion distributions (Bernoulli, hypergeometric):
// element i is drawn from stream keys[i] off its bulk-generated first
// uniform — bit-identical to the scalar keyed call, pinned by
// tests/test_bulk_rng.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rng/distributions.hpp"
#include "rng/engines.hpp"

namespace redund::rng {

/// out[i] = first_draw(master_seed, keys[i]) for i in [0, n).
inline void bulk_first_draw(std::uint64_t master_seed,
                            const std::uint64_t* keys, std::size_t n,
                            std::uint64_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = first_draw(master_seed, keys[i]);
  }
}

/// The canonical draw-to-uniform conversion (see uniform01).
[[nodiscard]] constexpr double draw_to_uniform01(std::uint64_t draw) noexcept {
  return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

/// out[i] = first_bernoulli(p, master_seed, keys[i]) as 0/1 bytes.
inline void bulk_first_bernoulli(double p, std::uint64_t master_seed,
                                 const std::uint64_t* keys, std::size_t n,
                                 std::uint64_t* draw_scratch,
                                 std::uint8_t* out) noexcept {
  bulk_first_draw(master_seed, keys, n, draw_scratch);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = draw_to_uniform01(draw_scratch[i]) < p ? 1 : 0;
  }
}

/// out[i] = hypergeometric(population, marked, sample,
/// make_stream(master_seed, keys[i])). The mode-anchored inversion always
/// consumes exactly one uniform, so the whole wave runs off the bulk draw.
inline void bulk_hypergeometric(std::int64_t population, std::int64_t marked,
                                std::int64_t sample,
                                std::uint64_t master_seed,
                                const std::uint64_t* keys, std::size_t n,
                                std::uint64_t* draw_scratch,
                                std::int64_t* out) noexcept {
  bulk_first_draw(master_seed, keys, n, draw_scratch);
  for (std::size_t i = 0; i < n; ++i) {
    struct OneDraw {
      using result_type = std::uint64_t;
      std::uint64_t draw;
      static constexpr result_type min() noexcept { return 0; }
      static constexpr result_type max() noexcept {
        return ~std::uint64_t{0};
      }
      result_type operator()() noexcept { return draw; }
    } engine{draw_scratch[i]};
    out[i] = hypergeometric(population, marked, sample, engine);
  }
}

}  // namespace redund::rng
