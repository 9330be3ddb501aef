#include "jtora/batch_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "algo/scheduler.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
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

/// Incumbent that asks the row preview for every exact value.
constexpr double kExact = -std::numeric_limits<double>::infinity();

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
    eval.preview_offload_subchannel(0, j, servers, kExact, row);
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
  ASSERT_TRUE(eval.preview_offload_subchannel(0, 0, candidates, kExact, out));
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
  EXPECT_FALSE(eval.preview_offload_subchannel(0, 0, taken, kExact, untouched));
  for (const double v : untouched) EXPECT_EQ(v, 7.0);
  // One free candidate is enough to price the row.
  const std::vector<std::size_t> one_free = {0, 3};
  std::vector<double> pair(one_free.size(), 7.0);
  EXPECT_TRUE(eval.preview_offload_subchannel(0, 0, one_free, kExact, pair));
  EXPECT_TRUE(std::isnan(pair[0]));
  expect_equivalent(pair[1], eval.preview_offload(0, 3, 0));
  // Sub-channel 1 is held only at servers 1 and 5.
  EXPECT_FALSE(eval.preview_offload_subchannel(
      0, 1, std::vector<std::size_t>{1, 5}, kExact, untouched));
  for (const double v : untouched) EXPECT_EQ(v, 7.0);
}

// The incumbent contract on random states of a cloud drop with the
// downlink on, masked slots and a forwarded occupant, from empty to
// saturated. For every incumbent tried — below, at and above each row's
// true maximum, then bisected down to the lowest one that skips the row —
// a skipped row (-inf at every free candidate) holds no exact value above
// the incumbent, a priced row is bit-equal to the scalar previews, -inf
// never skips, occupied and masked candidates stay NaN, and a row with
// nothing free returns false without writing whatever the incumbent.
TEST(BatchPreviewTest, RowBoundSkipsOnlyRowsThatCannotWin) {
  Rng env(23);
  const mec::Scenario base =
      mec::ScenarioBuilder()
          .num_users(40)
          .num_servers(9)
          .num_subchannels(3)
          .cloud(100e9, 200e6, 0.01, /*max_forwarded=*/4)
          .customize_users([](std::size_t, mec::UserEquipment& ue) {
            ue.task.output_bits = units::kilobytes_to_bits(50.0);
          })
          .build(env);
  mec::Availability mask(base.num_servers(), base.num_subchannels());
  mask.block_slot(2, 1);
  mask.block_slot(6, 0);
  const mec::Scenario scenario = base.with_availability(mask);
  const CompiledProblem problem(scenario);
  ASSERT_TRUE(problem.has_downlink());
  const std::size_t num_servers = scenario.num_servers();
  const std::vector<std::size_t> servers = all_servers(num_servers);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> exact(num_servers);
  std::vector<double> row(num_servers);
  std::size_t skipped = 0;
  std::size_t priced = 0;
  std::size_t full = 0;
  std::size_t forwarded_rows = 0;
  constexpr std::uint64_t kTrials = 24;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    Rng rng(200 + trial);
    Assignment x = algo::random_feasible_assignment(
        scenario, rng,
        static_cast<double>(trial) / static_cast<double>(kTrials - 1));
    if (x.is_offloaded(0)) x.make_local(0);
    for (const std::size_t u : x.offloaded_users()) {
      if (x.can_forward(u)) {
        x.set_forwarded(u, true);
        break;
      }
    }
    const IncrementalEvaluator eval(problem, x);
    for (std::size_t j = 0; j < scenario.num_subchannels(); ++j) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " j " +
                   std::to_string(j));
      const auto can_take = [&](std::size_t s) {
        return !x.occupant(s, j).has_value() && scenario.slot_available(s, j);
      };
      std::vector<double> untouched(num_servers, 7.0);
      if (!eval.preview_offload_subchannel(0, j, servers, kExact, exact)) {
        ++full;
        for (const double incumbent : {-inf, 0.0, inf}) {
          EXPECT_FALSE(eval.preview_offload_subchannel(0, j, servers,
                                                       incumbent, untouched));
        }
        for (const double v : untouched) EXPECT_EQ(v, 7.0);
        continue;
      }
      for (std::size_t s = 0; s < num_servers; ++s) {
        const auto occ = x.occupant(s, j);
        if (occ.has_value() && x.is_forwarded(*occ)) ++forwarded_rows;
      }
      // -inf prices the row exactly.
      double top = -inf;
      for (std::size_t s = 0; s < num_servers; ++s) {
        if (!can_take(s)) {
          EXPECT_TRUE(std::isnan(exact[s])) << "s=" << s;
          continue;
        }
        ASSERT_TRUE(std::isfinite(exact[s])) << "s=" << s;
        expect_equivalent(exact[s], eval.preview_offload(0, s, j));
        top = std::max(top, exact[s]);
      }
      // Checks the contract at one incumbent; returns whether it skipped.
      const auto check = [&](double incumbent) {
        EXPECT_TRUE(
            eval.preview_offload_subchannel(0, j, servers, incumbent, row));
        bool row_skipped = false;
        for (std::size_t s = 0; s < num_servers; ++s) {
          if (can_take(s) && row[s] == -inf) row_skipped = true;
        }
        for (std::size_t s = 0; s < num_servers; ++s) {
          if (!can_take(s)) {
            EXPECT_TRUE(std::isnan(row[s])) << "s=" << s;
          } else if (row_skipped) {
            EXPECT_EQ(row[s], -inf) << "s=" << s;
            EXPECT_LE(exact[s], incumbent) << "s=" << s;
          } else {
            EXPECT_EQ(row[s], exact[s]) << "s=" << s;
          }
        }
        ++(row_skipped ? skipped : priced);
        return row_skipped;
      };
      EXPECT_FALSE(check(-inf));
      const double scale = std::max(1.0, std::fabs(top));
      for (const double incumbent :
           {top - scale, std::nextafter(top, -inf), top,
            std::nextafter(top, inf), eval.utility()}) {
        check(incumbent);
      }
      // Bisect to the lowest incumbent that skips the row: the row's
      // maximum must not lie above it.
      double lo = top - scale;
      double hi = top + scale;
      for (int grow = 0; grow < 1000 && !check(hi); ++grow) {
        hi = top + 2.0 * (hi - top);
      }
      for (int step = 0; step < 64; ++step) {
        const double mid = lo + 0.5 * (hi - lo);
        if (mid <= lo || mid >= hi) break;
        (check(mid) ? hi : lo) = mid;
      }
    }
  }
  // Every branch of the contract ran.
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(priced, 0u);
  EXPECT_GT(full, 0u);
  EXPECT_GT(forwarded_rows, 0u);
}

TEST(BatchPreviewTest, RequiresLocalMover) {
  const mec::Scenario scenario = make_scenario(9, 6, 3, 2);
  const CompiledProblem problem(scenario);
  Assignment x(scenario);
  x.offload(2, 1, 0);
  const IncrementalEvaluator eval(problem, x);
  std::vector<double> row(scenario.num_servers());
  EXPECT_THROW(eval.preview_offload_subchannel(
                   2, 0, all_servers(scenario.num_servers()), kExact, row),
               InvalidArgumentError);
}

}  // namespace
}  // namespace tsajs::jtora
