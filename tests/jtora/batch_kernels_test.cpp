#include "jtora/batch_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "algo/scheduler.h"
#include "common/error.h"
#include "common/rng.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/incremental.h"
#include "jtora/utility.h"
#include "mec/availability.h"
#include "mec/scenario_builder.h"

namespace tsajs::jtora {
namespace {

mec::Scenario make_scenario(std::uint64_t seed, std::size_t users = 30,
                            std::size_t servers = 9,
                            std::size_t subchannels = 3) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

/// Compares batch output against a scalar reference: bitwise with default
/// flags, 1e-12 relative under the opt-in reassociation build mode.
void expect_equivalent(double batch_value, double scalar_value) {
  if (batch::reassociation_enabled()) {
    const double tol = 1e-12 * std::max(1.0, std::fabs(scalar_value));
    EXPECT_NEAR(batch_value, scalar_value, tol);
  } else {
    EXPECT_EQ(batch_value, scalar_value);
  }
}

TEST(AccumulateRowsTest, MatchesSequentialRowAdditionBitwise) {
  Rng rng(3);
  const std::size_t n = 37;  // odd length exercises any vector remainder
  std::vector<std::vector<double>> storage;
  for (std::size_t r = 0; r < 20; ++r) {
    std::vector<double> row(n);
    for (double& v : row) v = rng.uniform(1e-12, 1e-6);
    storage.push_back(std::move(row));
  }
  // Every row count from 0 to 20 covers the 8-row blocks plus each
  // remainder branch.
  for (std::size_t num_rows = 0; num_rows <= storage.size(); ++num_rows) {
    std::vector<const double*> rows;
    for (std::size_t r = 0; r < num_rows; ++r) {
      rows.push_back(storage[r].data());
    }
    std::vector<double> got(n, 0.5);
    std::vector<double> want(n, 0.5);
    batch::accumulate_rows(got.data(), rows.data(), num_rows, n);
    for (std::size_t r = 0; r < num_rows; ++r) {
      batch::add_row_scaled(want.data(), rows[r], 1.0, n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "rows=" << num_rows << " lane=" << i;
    }
  }
}

TEST(OccupantListsTest, GathersAscendingServerOrderPerSubchannel) {
  const mec::Scenario scenario = make_scenario(21, 12, 4, 2);
  Assignment x(scenario);
  x.offload(3, 2, 0);
  x.offload(7, 0, 0);
  x.offload(1, 3, 1);
  batch::OccupantLists lists;
  lists.gather(x, scenario.num_servers(), scenario.num_subchannels());
  ASSERT_EQ(lists.start.size(), scenario.num_subchannels() + 1);
  // Sub-channel 0: servers 0 (user 7) then 2 (user 3), ascending.
  ASSERT_EQ(lists.start[1] - lists.start[0], 2u);
  EXPECT_EQ(lists.server[lists.start[0]], 0u);
  EXPECT_EQ(lists.user[lists.start[0]], 7u);
  EXPECT_EQ(lists.server[lists.start[0] + 1], 2u);
  EXPECT_EQ(lists.user[lists.start[0] + 1], 3u);
  // Sub-channel 1: just user 1 on server 3.
  ASSERT_EQ(lists.start[2] - lists.start[1], 1u);
  EXPECT_EQ(lists.user[lists.start[1]], 1u);
  EXPECT_EQ(lists.server[lists.start[1]], 3u);
}

TEST(InterferenceSumsTest, BatchMatchesScalarReference) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const mec::Scenario scenario = make_scenario(seed);
    const CompiledProblem problem(scenario);
    Rng rng(seed * 100 + 9);
    const Assignment x =
        algo::random_feasible_assignment(scenario, rng, 0.7);
    std::vector<double> got;
    std::vector<double> want;
    batch::interference_sums(problem, x, got);
    batch::interference_sums_scalar(problem, x, want);
    ASSERT_EQ(got.size(), x.num_offloaded());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_equivalent(got[i], want[i]);
    }
  }
}

// Golden pin (captured with the scalar occupant() walk on the seed drop
// below): the batch interference kernel must keep reproducing the
// historical values exactly — see expect_equivalent for the documented
// reassociation tolerance mode.
TEST(InterferenceSumsTest, GoldenValuesPinned) {
  const mec::Scenario scenario = make_scenario(2026, 12, 4, 2);
  const CompiledProblem problem(scenario);
  Rng rng(99);
  const Assignment x = algo::random_feasible_assignment(scenario, rng, 0.6);
  std::vector<double> sums;
  batch::interference_sums(problem, x, sums);
  ASSERT_EQ(sums.size(), 8u);
  const double golden[] = {
      0x1.bde1d016daca6p-52, 0x1.7cf91a6f7a1d1p-46, 0x1.24a591fb24c1ap-36,
      0x1.7ae27f7f6495ap-47, 0x1.e29c99a093187p-52, 0x1.42c3b74cb66d8p-52,
      0x1.b63038461d5ap-45,  0x1.99754c2236de7p-48,
  };
  for (std::size_t i = 0; i < sums.size(); ++i) {
    expect_equivalent(sums[i], golden[i]);
  }
}

TEST(BatchDispatchTest, UtilityEvaluatorIdenticalWithBatchOnAndOff) {
  const mec::Scenario scenario = make_scenario(5, 40, 9, 3);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    Rng rng(seed);
    const Assignment x =
        algo::random_feasible_assignment(scenario, rng, 0.8);
    expect_equivalent(evaluator.system_utility(x),
                      evaluator.system_utility_reference(x));
  }
}

TEST(BatchDispatchTest, IncrementalRebuildIdenticalWithBatchOnAndOff) {
  const mec::Scenario scenario = make_scenario(6, 50, 9, 3);
  const CompiledProblem problem(scenario);
  Rng rng(77);
  const Assignment x = algo::random_feasible_assignment(scenario, rng, 0.7);
  // The batch rebuild folds each sub-channel's received power with
  // accumulate_rows, bit-identical to the per-user add_row_scaled chain it
  // replaced (AccumulateRowsTest pins the kernel). Golden captured from that
  // scalar chain; self_check cross-checks against the plain evaluator.
  const IncrementalEvaluator eval(problem, x);
  expect_equivalent(eval.utility(), -0x1.405be533220ap+21);
  eval.self_check();
}

std::vector<std::size_t> all_servers(std::size_t num_servers) {
  std::vector<std::size_t> ids(num_servers);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  return ids;
}

TEST(BatchPreviewTest, SubchannelRowMatchesScalarPreviews) {
  const mec::Scenario scenario = make_scenario(8, 25, 6, 3);
  const CompiledProblem problem(scenario);
  Rng rng(13);
  Assignment x = algo::random_feasible_assignment(scenario, rng, 0.5);
  // Make sure at least one user is local so the batch preview has a mover.
  if (x.is_offloaded(0)) x.make_local(0);
  const IncrementalEvaluator eval(problem, x);
  const std::vector<std::size_t> servers = all_servers(scenario.num_servers());
  std::vector<double> row(scenario.num_servers());
  for (std::size_t j = 0; j < scenario.num_subchannels(); ++j) {
    eval.preview_offload_subchannel(0, j, servers, row);
    for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
      if (x.occupant(s, j).has_value() || !scenario.slot_available(s, j)) {
        EXPECT_TRUE(std::isnan(row[s])) << "s=" << s << " j=" << j;
      } else {
        expect_equivalent(row[s], eval.preview_offload(0, s, j));
      }
    }
  }
}

// The candidate-scoped contract on a cloud drop: sub-channel 0 carries a
// forwarded occupant (its forward penalty rides the occupant delta) and a
// masked slot. Each free, available candidate matches the scalar preview
// bit for bit, in candidate order; occupied and masked candidates are NaN;
// and a candidate list with no free slot returns false without writing.
TEST(BatchPreviewTest, CandidateScopedPreviewContract) {
  Rng env(17);
  const mec::Scenario base = mec::ScenarioBuilder()
                                 .num_users(12)
                                 .num_servers(6)
                                 .num_subchannels(2)
                                 .cloud(100e9, 200e6, 0.01,
                                        /*max_forwarded=*/3)
                                 .build(env);
  mec::Availability mask(base.num_servers(), base.num_subchannels());
  mask.block_slot(4, 0);
  const mec::Scenario scenario = base.with_availability(mask);
  const CompiledProblem problem(scenario);
  Assignment x(scenario);
  x.offload(1, 0, 0);
  x.set_forwarded(1, true);
  x.offload(2, 2, 0);
  x.offload(3, 1, 1);
  x.offload(4, 5, 1);
  const IncrementalEvaluator eval(problem, x);
  ASSERT_TRUE(eval.is_forwarded(1));

  // Unsorted on purpose: out[i] belongs to candidates[i], whatever the order.
  const std::vector<std::size_t> candidates = {5, 0, 3, 4, 1, 2};
  std::vector<double> out(candidates.size());
  ASSERT_TRUE(eval.preview_offload_subchannel(0, 0, candidates, out));
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::size_t s = candidates[i];
    if (x.occupant(s, 0).has_value() || !scenario.slot_available(s, 0)) {
      EXPECT_TRUE(std::isnan(out[i])) << "s=" << s;
    } else {
      EXPECT_FALSE(std::isnan(out[i])) << "s=" << s;
      expect_equivalent(out[i], eval.preview_offload(0, s, 0));
    }
  }
  EXPECT_TRUE(std::isnan(out[1]));  // server 0: the forwarded occupant
  EXPECT_TRUE(std::isnan(out[3]));  // server 4: masked

  // Occupied (0, 2) and masked (4) only: nothing to price, nothing written.
  const std::vector<std::size_t> taken = {0, 2, 4};
  std::vector<double> untouched(taken.size(), 7.0);
  EXPECT_FALSE(eval.preview_offload_subchannel(0, 0, taken, untouched));
  for (const double v : untouched) EXPECT_EQ(v, 7.0);
  // One free candidate is enough to price the row.
  const std::vector<std::size_t> one_free = {0, 3};
  std::vector<double> pair(one_free.size(), 7.0);
  EXPECT_TRUE(eval.preview_offload_subchannel(0, 0, one_free, pair));
  EXPECT_TRUE(std::isnan(pair[0]));
  expect_equivalent(pair[1], eval.preview_offload(0, 3, 0));
  // Sub-channel 1 is held only at servers 1 and 5.
  EXPECT_FALSE(eval.preview_offload_subchannel(
      0, 1, std::vector<std::size_t>{1, 5}, untouched));
  for (const double v : untouched) EXPECT_EQ(v, 7.0);
}

TEST(BatchPreviewTest, RequiresLocalMover) {
  const mec::Scenario scenario = make_scenario(9, 6, 3, 2);
  const CompiledProblem problem(scenario);
  Assignment x(scenario);
  x.offload(2, 1, 0);
  const IncrementalEvaluator eval(problem, x);
  std::vector<double> row(scenario.num_servers());
  EXPECT_THROW(eval.preview_offload_subchannel(
                   2, 0, all_servers(scenario.num_servers()), row),
               InvalidArgumentError);
}

}  // namespace
}  // namespace tsajs::jtora
