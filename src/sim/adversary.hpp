// Adversary models (paper Section 2).
//
// The global intelligent adversary controls a proportion p of the
// computation's assignments (via any number of colluding volunteer
// identities), knows the distribution scheme in use, and cheats on a task by
// returning one identical wrong result on every copy she holds. She does
// *not* know a task's true multiplicity — only how many copies of it landed
// in her hands — so her strategy is a function of that held count k.
#pragma once

#include <cstdint>
#include <string>

namespace redund::sim {

/// What the adversary does with a task of which she holds k >= 1 copies.
enum class CheatStrategy {
  kHonest,        ///< Control only; never cheats.
  kAlwaysCheat,   ///< Cheats on every task she touches (the naive saboteur).
  kExactTuple,    ///< Cheats only when k == tuple_size (probing one P_{k,p}).
  kAtLeastTuple,  ///< Cheats whenever k >= tuple_size.
  kSingletons,    ///< Cheats only on k == 1 — optimal vs Golle-Stubblebine,
                  ///< whose P_k increases with k (Section 3.1).
};

[[nodiscard]] std::string to_string(CheatStrategy strategy);

/// Adversary configuration for one simulated computation.
struct AdversaryConfig {
  /// Proportion of all assignments she controls, in [0, 1).
  double proportion = 0.0;
  CheatStrategy strategy = CheatStrategy::kAlwaysCheat;
  /// Tuple size for kExactTuple / kAtLeastTuple.
  std::int64_t tuple_size = 1;

  /// Decision function: cheat on a task of which she holds `held` copies?
  [[nodiscard]] bool should_cheat(std::int64_t held) const noexcept {
    if (held < 1) return false;
    switch (strategy) {
      case CheatStrategy::kHonest: return false;
      case CheatStrategy::kAlwaysCheat: return true;
      case CheatStrategy::kExactTuple: return held == tuple_size;
      case CheatStrategy::kAtLeastTuple: return held >= tuple_size;
      case CheatStrategy::kSingletons: return held == 1;
    }
    return false;
  }
};

}  // namespace redund::sim
