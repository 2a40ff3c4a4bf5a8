// Volunteer campaign: run the full platform loop — enrollment (including
// cheap Sybil identities), scheduling under the one-copy-per-identity rule,
// computation, verification, and the supervisor's reactive measures — and
// watch how the redundancy scheme changes the outcome.
//
//   $ volunteer_campaign [task_count] [honest] [sybils]
//
// Three campaigns on the same population:
//   1. simple redundancy, passive supervisor (2005 status quo),
//   2. Balanced distribution, passive supervisor,
//   3. Balanced distribution, reactive supervisor (blacklist + requeue).
#include <cstdlib>
#include <iostream>

#include "core/realize.hpp"
#include "core/schemes/balanced.hpp"
#include "platform/campaign.hpp"
#include "report/table.hpp"

namespace core = redund::core;
namespace plat = redund::platform;
namespace rep = redund::report;

namespace {

void report_row(rep::Table& table, const std::string& label,
                const plat::CampaignReport& report) {
  table.add_row({label, rep::with_commas(report.units),
                 rep::with_commas(report.adversary_cheat_attempts),
                 rep::with_commas(report.mismatches_detected + report.ringer_catches),
                 report.alarm_fired() ? "YES" : "no",
                 rep::with_commas(report.blacklisted_identities),
                 rep::with_commas(report.requeued_units),
                 rep::with_commas(report.final_corrupt_tasks),
                 rep::fixed(100.0 * report.corruption_rate(), 3) + "%"});
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t task_count = argc > 1 ? std::atoll(argv[1]) : 5000;
  const std::int64_t honest = argc > 2 ? std::atoll(argv[2]) : 80;
  const std::int64_t sybils = argc > 3 ? std::atoll(argv[3]) : 20;
  const double epsilon = 0.5;

  std::cout << "Volunteer campaign: " << rep::with_commas(task_count)
            << " tasks, " << honest << " honest identities, " << sybils
            << " Sybil identities (one colluding principal)\n\n";

  plat::CampaignConfig base;
  base.honest_participants = honest;
  base.sybil_identities = sybils;
  base.strategy = redund::sim::CheatStrategy::kAlwaysCheat;

  rep::Table table({"campaign", "units dealt", "cheat attempts",
                    "detections", "ALARM", "blacklisted", "requeued",
                    "corrupt tasks", "corruption"});

  // 1. Simple redundancy, passive (status quo) — adversary cheats only on
  //    fully-held pairs, the risk-free channel.
  {
    plat::CampaignConfig config = base;
    config.plan =
        core::realize(core::make_simple_redundancy(
                          static_cast<double>(task_count), 2),
                      task_count, epsilon, {.add_ringers = false});
    config.strategy = redund::sim::CheatStrategy::kExactTuple;
    config.tuple_size = 2;
    config.reactive = false;
    report_row(table, "simple, passive, cautious adv.",
               plat::run_campaign(config));
  }

  const core::RealizedPlan balanced_plan = core::realize(
      core::make_balanced(static_cast<double>(task_count), epsilon,
                          {.truncate_below = 1e-9}),
      task_count, epsilon);

  // 2. Balanced, passive supervisor.
  {
    plat::CampaignConfig config = base;
    config.plan = balanced_plan;
    config.reactive = false;
    report_row(table, "balanced, passive", plat::run_campaign(config));
  }

  // 3. Balanced, reactive supervisor.
  {
    plat::CampaignConfig config = base;
    config.plan = balanced_plan;
    config.reactive = true;
    report_row(table, "balanced, reactive", plat::run_campaign(config));
  }

  table.print(std::cout);

  // 4. The arms race: a reactive supervisor over several rounds, with the
  //    adversary replacing blacklisted Sybils each round (identities are
  //    cheap — paper footnote 1).
  {
    plat::CampaignConfig config = base;
    config.plan = balanced_plan;
    config.reactive = true;
    const auto rounds = plat::run_campaign_series(config, 5, sybils);

    std::cout << "\nArms race (balanced, reactive, " << sybils
              << " fresh Sybils enrolled each round):\n";
    rep::Table race({"round", "cheat attempts", "detections", "blacklisted",
                     "corrupt tasks", "supervisor recomputes"});
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      const auto& r = rounds[i];
      race.add_row({std::to_string(i + 1),
                    rep::with_commas(r.adversary_cheat_attempts),
                    rep::with_commas(r.mismatches_detected + r.ringer_catches),
                    rep::with_commas(r.blacklisted_identities),
                    rep::with_commas(r.final_corrupt_tasks),
                    rep::with_commas(r.supervisor_recomputes)});
    }
    race.print(std::cout);
    std::cout << "Each wave of Sybils is caught and purged within its own "
                 "round; the adversary burns identities for essentially "
                 "nothing.\n";
  }

  std::cout
      << "\nStory: under simple redundancy the cautious adversary corrupts "
         "the output with zero detections — the supervisor never learns an "
         "attack happened. Under the Balanced distribution the alarm fires "
         "almost surely; a reactive supervisor then blacklists the caught "
         "Sybils, requeues their work, and drives residual corruption to "
         "(near) zero — at ~30% fewer assignments than simple redundancy.\n";
  return 0;
}
