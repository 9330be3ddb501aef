#include "algo/sharded.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algo/greedy.h"
#include "algo/registry.h"
#include "algo/tsajs.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "geo/partition.h"
#include "geo/point.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/sharded_problem.h"
#include "jtora/utility.h"
#include "mec/scenario_builder.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_scenario(std::uint64_t seed, std::size_t users = 45,
                            std::size_t servers = 9,
                            std::size_t subchannels = 3) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

TsajsConfig small_tsajs() {
  TsajsConfig config;
  config.chain_length = 10;
  return config;
}

TEST(ShardedSchedulerTest, OneShardBitIdenticalToInner) {
  const mec::Scenario scenario = make_scenario(1);
  const jtora::CompiledProblem problem(scenario);
  // Reach wider than the deployment -> one shard -> pure passthrough.
  ShardedConfig config;
  config.reach_m = 1e7;
  const ShardedScheduler sharded(std::make_unique<TsajsScheduler>(small_tsajs()),
                                 config);
  const TsajsScheduler inner(small_tsajs());
  Rng rng_a(42);
  Rng rng_b(42);
  const ScheduleResult a = sharded.solve({.problem = &problem, .rng = &rng_a});
  const ScheduleResult b = inner.solve({.problem = &problem, .rng = &rng_b});
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);  // bitwise
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(ShardedSchedulerTest, SingleSiteFallsThrough) {
  const mec::Scenario scenario = make_scenario(2, 10, 1, 3);
  const jtora::CompiledProblem problem(scenario);
  const ShardedScheduler sharded(std::make_unique<GreedyScheduler>());
  const GreedyScheduler inner;
  Rng rng_a(7);
  Rng rng_b(7);
  EXPECT_EQ(sharded.solve({.problem = &problem, .rng = &rng_a}).assignment,
            inner.solve({.problem = &problem, .rng = &rng_b}).assignment);
}

TEST(ShardedSchedulerTest, MultiShardSolveValidatesAndIsDeterministic) {
  const mec::Scenario scenario = make_scenario(3, 60);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig config;
  config.reach_m = 2000.0;
  const ShardedScheduler scheduler(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);

  Rng rng_a(5);
  // run_and_validate audits feasibility, availability, and the reported
  // utility against an independent evaluation.
  const ScheduleResult a =
      run_and_validate(scheduler, {.problem = &problem, .rng = &rng_a});
  EXPECT_GT(a.evaluations, 0u);

  Rng rng_b(5);
  const ScheduleResult b =
      run_and_validate(scheduler, {.problem = &problem, .rng = &rng_b});
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);
}

TEST(ShardedSchedulerTest, ThreadCountDoesNotChangeTheResult) {
  const mec::Scenario scenario = make_scenario(4, 50);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig sequential;
  sequential.reach_m = 2000.0;
  sequential.threads = 1;
  ShardedConfig pooled = sequential;
  pooled.threads = 4;
  const ShardedScheduler one(std::make_unique<GreedyScheduler>(), sequential);
  const ShardedScheduler four(std::make_unique<GreedyScheduler>(), pooled);
  Rng rng_a(9);
  Rng rng_b(9);
  const ScheduleResult a = one.solve({.problem = &problem, .rng = &rng_a});
  const ScheduleResult b = four.solve({.problem = &problem, .rng = &rng_b});
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);
}

// The boundary fixup only keeps strict improvements, so the sharded result
// can never fall below the plain merge of its own shard solves. The inner
// GreedyScheduler is RNG-free, so solving each shard of a public
// ShardedProblem over the same partition reproduces the shard phase
// exactly; the fixup is the only difference.
TEST(ShardedSchedulerTest, FixupNeverWorseThanPlainMerge) {
  const mec::Scenario scenario = make_scenario(6, 70);
  const jtora::CompiledProblem problem(scenario);
  constexpr double kReach = 2000.0;
  std::vector<geo::Point> sites;
  for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
    sites.push_back(scenario.server(s).position);
  }
  const geo::InterferencePartition partition(sites, kReach);
  const jtora::ShardedProblem sliced(problem, partition);
  ASSERT_GT(sliced.num_shards(), 1u);
  ASSERT_FALSE(sliced.boundary_users().empty());

  const GreedyScheduler greedy;
  jtora::Assignment merged(scenario);
  for (std::size_t k = 0; k < sliced.num_shards(); ++k) {
    const jtora::ShardedProblem::Shard& shard = sliced.shard(k);
    if (shard.problem == nullptr) continue;
    Rng unused(0);
    const ScheduleResult local =
        greedy.solve({.problem = shard.problem.get(), .rng = &unused});
    sliced.merge_into(k, local.assignment, merged);
  }
  const double plain = jtora::UtilityEvaluator(problem).system_utility(merged);

  ShardedConfig config;
  config.reach_m = kReach;
  const ShardedScheduler scheduler(std::make_unique<GreedyScheduler>(),
                                   config);
  Rng rng(11);
  const ScheduleResult result =
      run_and_validate(scheduler, {.problem = &problem, .rng = &rng});
  EXPECT_GE(result.system_utility, plain - 1e-9);
}

TEST(ShardedSchedulerTest, TinyWallClockBudgetStillFeasible) {
  const mec::Scenario scenario = make_scenario(7, 40);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig config;
  config.reach_m = 2000.0;
  config.budget.max_seconds = 1e-9;  // fires before any fixup round
  const ShardedScheduler scheduler(std::make_unique<GreedyScheduler>(),
                                   config);
  Rng rng(13);
  // The merged shard solution is feasible on its own, so validation holds
  // even when the budget cancels the fixup.
  const ScheduleResult result =
      run_and_validate(scheduler, {.problem = &problem, .rng = &rng});
  result.assignment.check_consistency();
}

// The tentpole acceptance golden: the parallel shard path — solves, budget
// split, reclaim, colored fixup — must be bit-identical to the sequential
// one at every thread count, for a stochastic inner scheme.
TEST(ShardedSchedulerTest, ParallelSolveBitIdenticalAt1_2_8Threads) {
  const mec::Scenario scenario = make_scenario(21, 60);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig base;
  base.reach_m = 2000.0;
  base.threads = 1;
  const ShardedScheduler sequential(
      std::make_unique<TsajsScheduler>(small_tsajs()), base);
  Rng rng_ref(31);
  const ScheduleResult reference =
      sequential.solve({.problem = &problem, .rng = &rng_ref});
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads: " + std::to_string(threads));
    ShardedConfig pooled = base;
    pooled.threads = threads;
    const ShardedScheduler parallel(
        std::make_unique<TsajsScheduler>(small_tsajs()), pooled);
    Rng rng(31);
    const ScheduleResult result =
        parallel.solve({.problem = &problem, .rng = &rng});
    EXPECT_EQ(result.assignment, reference.assignment);
    EXPECT_EQ(result.system_utility, reference.system_utility);  // bitwise
    EXPECT_EQ(result.evaluations, reference.evaluations);
  }
}

// Iteration budgets split across mixed-size shards must stay a pure
// function of (problem, seed): the cap forces truncation (so the reclaim
// pass runs) and the outcome is identical at 1 and 4 threads, bit for bit.
TEST(ShardedSchedulerTest, IterationBudgetSplitIsDeterministicAcrossThreads) {
  // 60 users over 9 servers, reach 2000 -> several shards of uneven size.
  const mec::Scenario scenario = make_scenario(22, 60);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig config;
  config.reach_m = 2000.0;
  // Small enough that shards exhaust their slices (TSAJS runs thousands of
  // evaluations unbudgeted), large enough that every shard solves.
  config.budget.max_iterations = 200;
  config.threads = 1;
  const ShardedScheduler one(std::make_unique<TsajsScheduler>(small_tsajs()),
                             config);
  config.threads = 4;
  const ShardedScheduler four(std::make_unique<TsajsScheduler>(small_tsajs()),
                              config);
  Rng rng_a(17);
  Rng rng_b(17);
  const ScheduleResult a =
      run_and_validate(one, {.problem = &problem, .rng = &rng_a});
  const ScheduleResult b =
      run_and_validate(four, {.problem = &problem, .rng = &rng_b});
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);
  EXPECT_EQ(a.evaluations, b.evaluations);
  // The cap bit: effort is far below the ~20k evaluations of an unbudgeted
  // solve on this instance. The total may legitimately exceed the nominal
  // 200 — each shard overshoots by up to one plateau in both the first
  // pass and the reclaim pass, and the boundary-fixup previews count as
  // evaluations too — so only a loose ceiling is asserted.
  EXPECT_GT(a.evaluations, 0u);
  EXPECT_LE(a.evaluations, 20 * config.budget.max_iterations);
}

// Warm start: a global hint routes through per-shard slices to the inner
// scheme. The warm solve must be deterministic, feasible under the full
// audit, and bit-identical across thread counts.
TEST(ShardedSchedulerTest, WarmStartIsDeterministicAndThreadInvariant) {
  const mec::Scenario scenario = make_scenario(23, 55);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig config;
  config.reach_m = 2000.0;
  const ShardedScheduler scheduler(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);

  Rng cold_rng(41);
  const ScheduleResult cold =
      scheduler.solve({.problem = &problem, .rng = &cold_rng});

  Rng rng_a(43);
  const ScheduleResult warm_a = run_and_validate(
      scheduler, {.problem = &problem,
                  .hint = &cold.assignment,
                  .rng = &rng_a});
  Rng rng_b(43);
  const ScheduleResult warm_b = run_and_validate(
      scheduler, {.problem = &problem,
                  .hint = &cold.assignment,
                  .rng = &rng_b});
  EXPECT_EQ(warm_a.assignment, warm_b.assignment);
  EXPECT_EQ(warm_a.system_utility, warm_b.system_utility);

  config.threads = 4;
  const ShardedScheduler pooled(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);
  Rng rng_c(43);
  const ScheduleResult warm_c = run_and_validate(
      pooled, {.problem = &problem, .hint = &cold.assignment, .rng = &rng_c});
  EXPECT_EQ(warm_c.assignment, warm_a.assignment);
  EXPECT_EQ(warm_c.system_utility, warm_a.system_utility);
}

// The epoch cache (partition, coloring, per-shard compilations held across
// solve() calls) must be bitwise-invisible: a scheduler that solved
// other scenarios first returns exactly what a fresh instance returns.
TEST(ShardedSchedulerTest, EpochCacheReuseIsBitwiseInvisible) {
  const mec::Scenario first = make_scenario(24, 40);
  const mec::Scenario second = make_scenario(25, 48);
  const jtora::CompiledProblem problem_a(first);
  const jtora::CompiledProblem problem_b(second);
  ShardedConfig config;
  config.reach_m = 2000.0;
  const ShardedScheduler reused(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);
  const ShardedScheduler fresh(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);

  Rng warmup(3);
  // Populate the cache.
  (void)reused.solve({.problem = &problem_a, .rng = &warmup});

  Rng rng_a(55);
  Rng rng_b(55);
  const ScheduleResult cached =
      reused.solve({.problem = &problem_b, .rng = &rng_a});
  const ScheduleResult cold =
      fresh.solve({.problem = &problem_b, .rng = &rng_b});
  EXPECT_EQ(cached.assignment, cold.assignment);
  EXPECT_EQ(cached.system_utility, cold.system_utility);
  EXPECT_EQ(cached.evaluations, cold.evaluations);
}

// Single-shard passthrough still applies the budget and the hint: the
// wrapper must match the inner scheme's own BudgetAware / WarmStartable
// entry points bit for bit.
TEST(ShardedSchedulerTest, SingleShardPassthroughAppliesBudgetAndHint) {
  const mec::Scenario scenario = make_scenario(26);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig config;
  config.reach_m = 1e7;  // one shard
  config.budget.max_iterations = 40;
  const ShardedScheduler sharded(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);
  const TsajsScheduler inner(small_tsajs());

  Rng rng_a(61);
  Rng rng_b(61);
  const ScheduleResult a = sharded.solve({.problem = &problem, .rng = &rng_a});
  const ScheduleResult b = inner.solve(
      {.problem = &problem, .budget = &config.budget, .rng = &rng_b});
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.evaluations, b.evaluations);

  const jtora::Assignment hint(scenario);  // all-local
  Rng rng_c(62);
  Rng rng_d(62);
  const ScheduleResult c =
      sharded.solve({.problem = &problem, .hint = &hint, .rng = &rng_c});
  const ScheduleResult d = inner.solve(
      {.problem = &problem,
       .hint = &hint,
       .budget = &config.budget,
       .rng = &rng_d});
  EXPECT_EQ(c.assignment, d.assignment);
  EXPECT_EQ(c.evaluations, d.evaluations);
}

// Registry wiring: --shard-threads drives the wrapper, and the inner
// scheme is built with its budget cleared (the wrapper owns the split), so
// a budgeted sharded:tsajs does not double-cap.
TEST(ShardedSchedulerTest, RegistryShardThreadsAreBitwiseInvisible) {
  const mec::Scenario scenario = make_scenario(27, 50);
  const jtora::CompiledProblem problem(scenario);
  RegistryOptions options;
  options.chain_length = 10;
  options.shard_reach_m = 2000.0;
  options.budget.max_iterations = 300;
  const auto sequential = make_scheduler("sharded:tsajs", options);
  options.shard_threads = 4;
  const auto pooled = make_scheduler("sharded:tsajs", options);
  Rng rng_a(71);
  Rng rng_b(71);
  const ScheduleResult a =
      sequential->solve({.problem = &problem, .rng = &rng_a});
  const ScheduleResult b = pooled->solve({.problem = &problem, .rng = &rng_b});
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// FNV-1a over every user's slot and forwarding bit: pins a whole
// assignment in one golden value.
std::uint64_t fingerprint(const jtora::Assignment& x) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (std::size_t u = 0; u < x.num_users(); ++u) {
    const auto slot = x.slot_of(u);
    mix(slot.has_value()
            ? slot->server * x.num_subchannels() + slot->subchannel + 1
            : 0);
    mix(x.is_forwarded(u) ? 1 : 0);
  }
  return h;
}

// Hexfloat golden for the budgeted warm path on a capped cloud tier: the
// hint is a coarse 200-iteration solve, and the 6000-iteration warm solve
// truncates one of its three shards, so the reclaim pass re-solves it. The
// per-shard cloud caps (7 over 27/22/11 users: 3/3/1), the warm hint
// slicing, the budget split and the reclaim all feed these bits, at 1 and 4
// shard threads alike.
TEST(ShardedSchedulerTest, BudgetedWarmCloudSolveMatchesGoldenAt1And4Threads) {
  Rng env(91);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(60)
                                     .num_servers(9)
                                     .num_subchannels(3)
                                     .server_cpu_hz(2e9)
                                     .cloud(100e9, 200e6, 0.01,
                                            /*max_forwarded=*/7)
                                     .build(env);
  const jtora::CompiledProblem problem(scenario);
  RegistryOptions options;
  options.chain_length = 10;
  options.shard_reach_m = 2000.0;
  options.budget.max_iterations = 200;
  Rng coarse_rng(93);
  const ScheduleResult coarse =
      make_scheduler("sharded:tsajs", options)
          ->solve({.problem = &problem, .rng = &coarse_rng});
  EXPECT_EQ(coarse.system_utility, 0x1.0f15ec22c6f2ap+2);
  EXPECT_EQ(coarse.evaluations, 2440u);
  EXPECT_EQ(fingerprint(coarse.assignment), 7634342250445534765ull);

  options.budget.max_iterations = 6000;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads: " + std::to_string(threads));
    options.shard_threads = threads;
    const auto scheduler = make_scheduler("sharded:tsajs", options);
    Rng rng(95);
    const ScheduleResult warm = run_and_validate(
        *scheduler,
        {.problem = &problem, .hint = &coarse.assignment, .rng = &rng});
    EXPECT_EQ(warm.system_utility, 0x1.aae144e141a23p+2);
    EXPECT_EQ(warm.evaluations, 7671u);
    EXPECT_EQ(warm.assignment.num_offloaded(), 13u);
    EXPECT_EQ(warm.assignment.num_forwarded(), 6u);
    EXPECT_EQ(fingerprint(warm.assignment), 753292196941247670ull);
  }
}

// Hexfloat golden for a cold solve on a saturated many-shard drop: 400
// users over 50 slots (25 servers x 2 sub-channels), 17 shards at reach
// 1200 m. Every slot ends up held, so most boundary users find each halo
// sub-channel full apart from the slot they were lifted out of: the fixup
// skips those rows unpriced and scores the rest from the occupant signal
// cache. Neither may change a bit of the result, at 1 and 4 shard threads.
TEST(ShardedSchedulerTest, SaturatedManyShardColdSolveMatchesGoldenAt1And4Threads) {
  Rng env(101);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(400)
                                     .num_servers(25)
                                     .num_subchannels(2)
                                     .build(env);
  const jtora::CompiledProblem problem(scenario);
  std::vector<geo::Point> sites;
  for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
    sites.push_back(scenario.server(s).position);
  }
  ASSERT_EQ(geo::InterferencePartition(sites, 1200.0).num_shards(), 17u);
  RegistryOptions options;
  options.chain_length = 10;
  options.shard_reach_m = 1200.0;
  options.budget.max_iterations = 4000;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads: " + std::to_string(threads));
    options.shard_threads = threads;
    const auto scheduler = make_scheduler("sharded:tsajs", options);
    Rng rng(103);
    const ScheduleResult result =
        run_and_validate(*scheduler, {.problem = &problem, .rng = &rng});
    EXPECT_EQ(result.system_utility, 0x1.42d80d30b76aap+5);
    EXPECT_EQ(result.evaluations, 4996u);
    EXPECT_EQ(result.assignment.num_offloaded(), 50u);
    EXPECT_EQ(fingerprint(result.assignment), 12237006874060301944ull);
  }
}

// Hexfloat golden for a cold many-shard solve with the downlink on: every
// user returns a 100 KB result, so each priced slot carries its downlink
// time, and 200 users compete for 50 slots (25 servers x 2 sub-channels).
// The fixup's row bound must cover the downlink term too; no bit of the
// result may move, at 1 and 4 shard threads.
TEST(ShardedSchedulerTest, DownlinkManyShardColdSolveMatchesGoldenAt1And4Threads) {
  Rng env(107);
  const mec::Scenario scenario =
      mec::ScenarioBuilder()
          .num_users(200)
          .num_servers(25)
          .num_subchannels(2)
          .customize_users([](std::size_t, mec::UserEquipment& ue) {
            ue.task.output_bits = units::kilobytes_to_bits(100.0);
          })
          .build(env);
  const jtora::CompiledProblem problem(scenario);
  ASSERT_TRUE(problem.has_downlink());
  std::vector<geo::Point> sites;
  for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
    sites.push_back(scenario.server(s).position);
  }
  ASSERT_EQ(geo::InterferencePartition(sites, 1200.0).num_shards(), 17u);
  RegistryOptions options;
  options.chain_length = 10;
  options.shard_reach_m = 1200.0;
  options.budget.max_iterations = 3000;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads: " + std::to_string(threads));
    options.shard_threads = threads;
    const auto scheduler = make_scheduler("sharded:tsajs", options);
    Rng rng(109);
    const ScheduleResult result =
        run_and_validate(*scheduler, {.problem = &problem, .rng = &rng});
    EXPECT_EQ(result.system_utility, 0x1.1e3947d49d3afp+5);
    EXPECT_EQ(result.evaluations, 3668u);
    EXPECT_EQ(result.assignment.num_offloaded(), 50u);
    EXPECT_EQ(fingerprint(result.assignment), 9411742464189840600ull);
  }
}

TEST(ShardedSchedulerTest, RegistryBuildsShardedWrappers) {
  const auto scheduler = make_scheduler("sharded:greedy");
  ASSERT_NE(scheduler, nullptr);
  EXPECT_EQ(scheduler->name(), "sharded:greedy");
  const auto tsajs = make_scheduler("sharded:tsajs");
  EXPECT_EQ(tsajs->name(), "sharded:tsajs");
  EXPECT_THROW((void)make_scheduler("sharded:nope"), NotFoundError);
  EXPECT_THROW((void)make_scheduler("sharded:sharded:greedy"),
               InvalidArgumentError);
}

TEST(ShardedSchedulerTest, ConfigValidation) {
  ShardedConfig bad_reach;
  bad_reach.reach_m = -1.0;
  EXPECT_THROW(
      ShardedScheduler(std::make_unique<GreedyScheduler>(), bad_reach),
      InvalidArgumentError);
  EXPECT_THROW(ShardedScheduler(nullptr), InvalidArgumentError);
}

}  // namespace
}  // namespace tsajs::algo
