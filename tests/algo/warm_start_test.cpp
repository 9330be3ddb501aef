// Warm-start capability: repair_hint feasibility under arbitrary churn,
// hinted-solve determinism, and run_and_validate with a hint.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "algo/greedy.h"
#include "algo/hjtora.h"
#include "algo/local_search.h"
#include "algo/multi_start.h"
#include "algo/scheduler.h"
#include "algo/tsajs.h"
#include "jtora/utility.h"
#include "mec/availability.h"
#include "mec/scenario_builder.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_scenario(std::size_t users, std::size_t servers,
                            std::size_t subchannels, std::uint64_t seed) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

TEST(RepairHintTest, FeasibleUnderArbitraryChurn) {
  // Property: whatever the hint was solved against — more users, fewer
  // users, different server/sub-channel dimensions — the repaired
  // assignment is feasible on the *new* scenario (constraints 12b-12d,
  // enforced by check_consistency) and keeps every hint slot that still
  // exists and is claimed first.
  const std::size_t dims[][3] = {
      {12, 3, 2}, {5, 2, 3}, {20, 4, 1}, {8, 1, 1}, {3, 5, 4}};
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    const auto& old_dim = dims[trial % 5];
    const auto& new_dim = dims[(trial + 1 + trial / 5) % 5];
    const mec::Scenario old_scenario =
        make_scenario(old_dim[0], old_dim[1], old_dim[2], 100 + trial);
    const mec::Scenario new_scenario =
        make_scenario(new_dim[0], new_dim[1], new_dim[2], 200 + trial);
    Rng rng(300 + trial);
    const jtora::Assignment hint =
        random_feasible_assignment(old_scenario, rng, 0.8);

    const jtora::Assignment repaired = repair_hint(new_scenario, hint);
    repaired.check_consistency();
    EXPECT_EQ(repaired.num_users(), new_scenario.num_users());
    // Every kept slot must come from the hint; users beyond the hint's
    // population enter local.
    const std::size_t shared =
        std::min(hint.num_users(), new_scenario.num_users());
    for (std::size_t u = 0; u < new_scenario.num_users(); ++u) {
      const auto slot = repaired.slot_of(u);
      if (u >= shared) {
        EXPECT_FALSE(slot.has_value());
        continue;
      }
      if (slot.has_value()) {
        ASSERT_TRUE(hint.slot_of(u).has_value());
        EXPECT_EQ(slot->server, hint.slot_of(u)->server);
        EXPECT_EQ(slot->subchannel, hint.slot_of(u)->subchannel);
      }
    }
  }

  // Pinned inputs for the carry rule behind repair_hint (jtora::carry_slot,
  // shared with the simulators' warm hints), on a cloud-enabled 3x2 grid
  // whose slot (2, 1) is blacked out and whose server-1 backhaul is dead.
  Rng cloud_rng(400);
  const mec::Scenario cloudy = mec::ScenarioBuilder()
                                   .num_users(6)
                                   .num_servers(3)
                                   .num_subchannels(2)
                                   .cloud(100e9, 200e6, 0.005)
                                   .build(cloud_rng);
  mec::Availability mask(3, 2);
  mask.block_slot(2, 1);
  mask.fail_backhaul(1);
  const mec::Scenario faulted = cloudy.with_availability(mask);
  jtora::Assignment hint(cloudy);
  hint.offload(0, 0, 0);  // forwarded over a live backhaul: kept as is
  hint.offload(1, 1, 0);  // forwarded over the dead backhaul
  hint.offload(2, 2, 1);  // on the masked slot
  hint.set_forwarded(0, true);
  hint.set_forwarded(1, true);
  hint.set_forwarded(2, true);
  jtora::Assignment repaired = repair_hint(faulted, hint);
  repaired.check_consistency();
  EXPECT_EQ(repaired.slot_of(0), (jtora::Slot{0, 0}));
  EXPECT_TRUE(repaired.is_forwarded(0));
  // Dead backhaul: the slot survives, the cloud placement is recalled.
  EXPECT_EQ(repaired.slot_of(1), (jtora::Slot{1, 0}));
  EXPECT_FALSE(repaired.is_forwarded(1));
  // Masked slot: evicted to local.
  EXPECT_FALSE(repaired.is_offloaded(2));
  // Contested slot: two carried users claim (1, 1); the lower index wins.
  jtora::carry_slot(repaired, 3, jtora::Slot{1, 1}, false);
  jtora::carry_slot(repaired, 4, jtora::Slot{1, 1}, false);
  repaired.check_consistency();
  EXPECT_EQ(repaired.slot_of(3), (jtora::Slot{1, 1}));
  EXPECT_FALSE(repaired.is_offloaded(4));
}

TEST(RepairHintTest, IdentityWhenNothingChanged) {
  // Same scenario, feasible hint: the repair is a no-op.
  const mec::Scenario scenario = make_scenario(10, 3, 2, 7);
  Rng rng(8);
  const jtora::Assignment hint = random_feasible_assignment(scenario, rng, 1.0);
  const jtora::Assignment repaired = repair_hint(scenario, hint);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    EXPECT_EQ(repaired.slot_of(u).has_value(), hint.slot_of(u).has_value());
  }
  EXPECT_EQ(repaired.num_offloaded(), hint.num_offloaded());
}

TEST(WarmStartTest, ScheduleFromIsDeterministic) {
  const mec::Scenario scenario = make_scenario(12, 3, 2, 11);
  Rng hint_rng(5);
  const jtora::Assignment hint =
      random_feasible_assignment(scenario, hint_rng, 0.6);
  TsajsConfig config;
  config.chain_length = 8;
  const TsajsScheduler scheduler(config);
  Rng rng_a(21);
  Rng rng_b(21);
  const jtora::CompiledProblem problem(scenario);
  const ScheduleResult a =
      scheduler.solve({.problem = &problem, .hint = &hint, .rng = &rng_a});
  const ScheduleResult b =
      scheduler.solve({.problem = &problem, .hint = &hint, .rng = &rng_b});
  EXPECT_DOUBLE_EQ(a.system_utility, b.system_utility);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    EXPECT_EQ(a.assignment.slot_of(u), b.assignment.slot_of(u));
  }
}

TEST(WarmStartTest, WarmResultNeverBelowRepairedHint) {
  // TSAJS returns its best-visited state, LocalSearch only climbs, and
  // Greedy's fill/prune steps each require strict improvement — so every
  // WarmStartable scheduler dominates the (repaired) hint it was given.
  const mec::Scenario scenario = make_scenario(14, 3, 2, 31);
  Rng hint_rng(9);
  const jtora::Assignment hint =
      random_feasible_assignment(scenario, hint_rng, 0.7);
  const jtora::CompiledProblem problem(scenario);
  const jtora::UtilityEvaluator evaluator(problem);
  const double hint_utility =
      evaluator.system_utility(repair_hint(scenario, hint));

  TsajsConfig tsajs_config;
  tsajs_config.chain_length = 6;
  const TsajsScheduler tsajs(tsajs_config);
  const LocalSearchScheduler local_search;
  const GreedyScheduler greedy;
  for (const Scheduler* scheduler :
       {static_cast<const Scheduler*>(&tsajs),
        static_cast<const Scheduler*>(&local_search),
        static_cast<const Scheduler*>(&greedy)}) {
    Rng rng(77);
    const ScheduleResult result = run_and_validate(
        *scheduler, {.problem = &problem, .hint = &hint, .rng = &rng});
    EXPECT_GE(result.system_utility, hint_utility - 1e-9)
        << scheduler->name();
  }
}

TEST(WarmStartTest, RunAndValidateFallsBackForColdSchedulers) {
  // hJTORA lacks kWarmStart: a hinted request must silently produce
  // exactly the cold-path result.
  const mec::Scenario scenario = make_scenario(10, 3, 2, 13);
  Rng hint_rng(3);
  const jtora::Assignment hint =
      random_feasible_assignment(scenario, hint_rng, 0.5);
  const HjtoraScheduler scheduler;
  Rng rng_hint(55);
  Rng rng_cold(55);
  const jtora::CompiledProblem problem(scenario);
  const ScheduleResult with_hint = run_and_validate(
      scheduler, {.problem = &problem, .hint = &hint, .rng = &rng_hint});
  const ScheduleResult cold =
      run_and_validate(scheduler, {.problem = &problem, .rng = &rng_cold});
  EXPECT_DOUBLE_EQ(with_hint.system_utility, cold.system_utility);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    EXPECT_EQ(with_hint.assignment.slot_of(u), cold.assignment.slot_of(u));
  }
}

TEST(WarmStartTest, MultiStartForwardsHintToRestartZero) {
  // Restart 0 anneals from the repaired hint and the reduction keeps the
  // best restart, so the hinted multi-start dominates the hint; it must
  // also stay deterministic per seed.
  const mec::Scenario scenario = make_scenario(12, 3, 2, 17);
  Rng hint_rng(4);
  const jtora::Assignment hint =
      random_feasible_assignment(scenario, hint_rng, 0.6);
  const jtora::CompiledProblem problem(scenario);
  const double hint_utility = jtora::UtilityEvaluator(problem).system_utility(
      repair_hint(scenario, hint));
  TsajsConfig config;
  config.chain_length = 5;
  const MultiStartScheduler scheduler(std::make_unique<TsajsScheduler>(config),
                                      3);
  Rng rng_a(91);
  Rng rng_b(91);
  const ScheduleResult a =
      scheduler.solve({.problem = &problem, .hint = &hint, .rng = &rng_a});
  const ScheduleResult b =
      scheduler.solve({.problem = &problem, .hint = &hint, .rng = &rng_b});
  EXPECT_GE(a.system_utility, hint_utility - 1e-9);
  EXPECT_DOUBLE_EQ(a.system_utility, b.system_utility);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    EXPECT_EQ(a.assignment.slot_of(u), b.assignment.slot_of(u));
  }
}

}  // namespace
}  // namespace tsajs::algo
