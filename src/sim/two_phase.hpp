// The two-phase simple-redundancy model of Appendix A.
//
// Each of N tasks is assigned exactly twice, once per phase (the "only one
// copy outstanding at a time" variant of simple redundancy from Section 1).
// An adversary controlling proportion p of the participants receives
// w = pN assignments in each phase; a task is *fully controlled* (cheatable
// with impunity) when she draws it in both phases. Appendix A shows the
// expected number of fully controlled tasks is ~ w^2/N = p^2 N (the overlap
// is Hypergeometric(N, w, w), well approximated by Binomial(w, w/N)), so she
// expects at least one cheatable task as soon as p >= 1/sqrt(N).
//
// The closed forms live here; sim::run_two_phase_monte_carlo
// (sim/monte_carlo.hpp) simulates the rounds.
#pragma once

#include <cstdint>

namespace redund::sim {

/// Expected number of fully controlled tasks: exact hypergeometric mean
/// w^2 / N (which is also the paper's p^2 N approximation when w = pN).
[[nodiscard]] double two_phase_expected_overlap(std::int64_t task_count,
                                                std::int64_t adversary_work) noexcept;

/// The paper's cheating threshold: the adversary proportion at which she
/// expects one fully controlled task, 1/sqrt(N).
[[nodiscard]] double two_phase_threshold(std::int64_t task_count) noexcept;

}  // namespace redund::sim
