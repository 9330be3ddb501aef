// Tests of the PSO and Tabu-search extension schedulers.
#include <gtest/gtest.h>

#include "algo/pso.h"
#include "algo/random_scheduler.h"
#include "algo/registry.h"
#include "algo/tabu.h"
#include "common/error.h"
#include "mec/scenario_builder.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_scenario(std::uint64_t seed, std::size_t users = 8) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(3)
      .num_subchannels(2)
      .task_megacycles(2000.0)
      .build(rng);
}

TEST(PsoTest, ConfigValidation) {
  PsoConfig config;
  config.particles = 1;
  EXPECT_THROW(PsoScheduler{config}, InvalidArgumentError);
  config = PsoConfig{};
  config.c1 = 0.8;
  config.c2 = 0.5;  // c1 + c2 > 1
  EXPECT_THROW(PsoScheduler{config}, InvalidArgumentError);
  config = PsoConfig{};
  config.iterations = 0;
  EXPECT_THROW(PsoScheduler{config}, InvalidArgumentError);
  EXPECT_NO_THROW(PsoScheduler{PsoConfig{}});
}

TEST(PsoTest, ProducesFeasibleScoredResult) {
  const mec::Scenario scenario = make_scenario(1);
  Rng rng(2);
  const jtora::CompiledProblem problem(scenario);
  const auto result = PsoScheduler().solve({.problem = &problem, .rng = &rng});
  result.assignment.check_consistency();
  const jtora::UtilityEvaluator evaluator(problem);
  EXPECT_NEAR(result.system_utility,
              evaluator.system_utility(result.assignment), 1e-9);
}

TEST(PsoTest, BeatsRandomOnAverage) {
  double pso_total = 0.0;
  double random_total = 0.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const mec::Scenario scenario = make_scenario(seed + 20);
    Rng rng_a(seed);
    Rng rng_b(seed);
    const jtora::CompiledProblem problem(scenario);
    pso_total += PsoScheduler().solve(
        {.problem = &problem, .rng = &rng_a}).system_utility;
    random_total +=
        RandomScheduler().solve(
            {.problem = &problem, .rng = &rng_b}).system_utility;
  }
  EXPECT_GT(pso_total, random_total);
}

TEST(PsoTest, PersonalBestNeverRegressesWithMoreIterations) {
  const mec::Scenario scenario = make_scenario(3);
  PsoConfig short_run;
  short_run.iterations = 10;
  PsoConfig long_run;
  long_run.iterations = 80;
  Rng rng_a(7);
  Rng rng_b(7);
  const jtora::CompiledProblem problem(scenario);
  const double short_utility = PsoScheduler(short_run).solve(
      {.problem = &problem, .rng = &rng_a}).system_utility;
  const double long_utility = PsoScheduler(long_run).solve(
      {.problem = &problem, .rng = &rng_b}).system_utility;
  EXPECT_GE(long_utility, short_utility - 1e-12);
}

TEST(PsoTest, DeterministicGivenSeed) {
  const mec::Scenario scenario = make_scenario(4);
  Rng rng_a(11);
  Rng rng_b(11);
  const jtora::CompiledProblem problem(scenario);
  const ScheduleResult a =
      PsoScheduler().solve({.problem = &problem, .rng = &rng_a});
  const ScheduleResult b =
      PsoScheduler().solve({.problem = &problem, .rng = &rng_b});
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(TabuTest, ConfigValidation) {
  TabuConfig config;
  config.pool = 0;
  EXPECT_THROW(TabuScheduler{config}, InvalidArgumentError);
  config = TabuConfig{};
  config.tenure = 0;
  EXPECT_THROW(TabuScheduler{config}, InvalidArgumentError);
  EXPECT_NO_THROW(TabuScheduler{TabuConfig{}});
}

TEST(TabuTest, ProducesFeasibleScoredResult) {
  const mec::Scenario scenario = make_scenario(5);
  Rng rng(6);
  const jtora::CompiledProblem problem(scenario);
  const auto result = TabuScheduler().solve({.problem = &problem, .rng = &rng});
  result.assignment.check_consistency();
  const jtora::UtilityEvaluator evaluator(problem);
  EXPECT_NEAR(result.system_utility,
              evaluator.system_utility(result.assignment), 1e-9);
}

TEST(TabuTest, StartsLocalSoUtilityNonNegative) {
  // best-ever tracking from an all-local start can never go below 0.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const mec::Scenario scenario = make_scenario(seed + 40);
    Rng rng(seed);
    const jtora::CompiledProblem problem(scenario);
    const ScheduleResult result =
        TabuScheduler().solve({.problem = &problem, .rng = &rng});
    EXPECT_GE(result.system_utility, 0.0);
  }
}

TEST(TabuTest, BeatsRandomOnAverage) {
  double tabu_total = 0.0;
  double random_total = 0.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const mec::Scenario scenario = make_scenario(seed + 60);
    Rng rng_a(seed);
    Rng rng_b(seed);
    const jtora::CompiledProblem problem(scenario);
    tabu_total += TabuScheduler().solve(
        {.problem = &problem, .rng = &rng_a}).system_utility;
    random_total +=
        RandomScheduler().solve(
            {.problem = &problem, .rng = &rng_b}).system_utility;
  }
  EXPECT_GT(tabu_total, random_total);
}

TEST(TabuTest, DeterministicGivenSeed) {
  const mec::Scenario scenario = make_scenario(8);
  Rng rng_a(13);
  Rng rng_b(13);
  const jtora::CompiledProblem problem(scenario);
  const ScheduleResult a =
      TabuScheduler().solve({.problem = &problem, .rng = &rng_a});
  const ScheduleResult b =
      TabuScheduler().solve({.problem = &problem, .rng = &rng_b});
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(MetaheuristicRegistryTest, NewNamesResolve) {
  EXPECT_EQ(make_scheduler("pso")->name(), "pso");
  EXPECT_EQ(make_scheduler("tabu")->name(), "tabu");
}

}  // namespace
}  // namespace tsajs::algo
