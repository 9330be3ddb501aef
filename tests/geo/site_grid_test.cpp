#include "geo/site_grid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "geo/hex_layout.h"
#include "geo/point.h"

namespace tsajs::geo {
namespace {

/// The reference: a scan over every site in index order, keeping the first
/// strictly closer one (lowest index on ties).
std::size_t brute_nearest(const std::vector<Point>& sites, Point p) {
  std::size_t best = 0;
  double best_sq = distance_squared(p, sites[0]);
  for (std::size_t s = 1; s < sites.size(); ++s) {
    const double d_sq = distance_squared(p, sites[s]);
    if (d_sq < best_sq) {
      best = s;
      best_sq = d_sq;
    }
  }
  return best;
}

std::vector<Point> hex_sites(std::size_t n, double isd) {
  const HexLayout layout(n, isd);
  std::vector<Point> sites;
  for (std::size_t s = 0; s < n; ++s) sites.push_back(layout.site(s));
  return sites;
}

TEST(SiteGridTest, RejectsBadSites) {
  EXPECT_THROW(SiteGrid(std::vector<Point>{}), InvalidArgumentError);
  EXPECT_THROW(
      SiteGrid({{0.0, 0.0}, {std::numeric_limits<double>::infinity(), 1.0}}),
      InvalidArgumentError);
}

TEST(SiteGridTest, MatchesScanInsideAndFarOutsideTheBox) {
  const std::vector<Point> sites = hex_sites(400, 500.0);
  const SiteGrid grid(sites);
  Rng rng(3);
  // Queries over three times the deployment's span: most land outside the
  // site bounding box, some far outside.
  for (int q = 0; q < 5000; ++q) {
    const Point p{rng.uniform(-15000.0, 15000.0),
                  rng.uniform(-15000.0, 15000.0)};
    ASSERT_EQ(grid.nearest(p), brute_nearest(sites, p))
        << "p=(" << p.x << ", " << p.y << ")";
  }
}

TEST(SiteGridTest, ExactTiesGoToTheLowestIndex) {
  // A 3 x 3 lattice listed in scrambled order, plus duplicates of two
  // sites: lattice midpoints and the duplicated sites themselves are exact
  // ties between two or four sites.
  const std::vector<Point> sites = {
      {100.0, 100.0}, {0.0, 0.0},   {200.0, 0.0},   {0.0, 200.0},
      {200.0, 200.0}, {100.0, 0.0}, {0.0, 100.0},   {200.0, 100.0},
      {100.0, 200.0}, {0.0, 0.0},   {100.0, 100.0}};
  const SiteGrid grid(sites);
  for (double x = -50.0; x <= 250.0; x += 25.0) {
    for (double y = -50.0; y <= 250.0; y += 25.0) {
      const Point p{x, y};
      ASSERT_EQ(grid.nearest(p), brute_nearest(sites, p))
          << "p=(" << x << ", " << y << ")";
    }
  }
  EXPECT_EQ(grid.nearest({50.0, 50.0}), 0u);   // four-way tie, 0 lowest
  EXPECT_EQ(grid.nearest({0.0, 0.0}), 1u);     // duplicate of site 9
  EXPECT_EQ(grid.nearest({100.0, 100.0}), 0u);  // duplicate of site 10
}

TEST(SiteGridTest, DegenerateLayouts) {
  // One site, all sites on one point, and a line: a single row of cells.
  const SiteGrid single({{5.0, -5.0}});
  EXPECT_EQ(single.nearest({1e6, 1e6}), 0u);
  const std::vector<Point> stacked(4, Point{1.0, 1.0});
  EXPECT_EQ(SiteGrid(stacked).nearest({0.0, 0.0}), 0u);
  std::vector<Point> line;
  for (int i = 0; i < 50; ++i) line.push_back({10.0 * i, 3.0});
  const SiteGrid on_line(line);
  EXPECT_EQ(on_line.rows(), 1u);
  for (double x = -100.0; x <= 600.0; x += 7.0) {
    ASSERT_EQ(on_line.nearest({x, -40.0}), brute_nearest(line, {x, -40.0}));
  }
}

TEST(SiteGridTest, ThinDeploymentKeepsTheGridSmall) {
  // 1 km by 1 mm: cells sized by area alone would be millimetres wide.
  std::vector<Point> sites;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    sites.push_back({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1e-3)});
  }
  const SiteGrid grid(sites);
  EXPECT_LE(grid.columns() * grid.rows(), 3 * sites.size() + 2);
  for (int q = 0; q < 500; ++q) {
    const Point p{rng.uniform(-100.0, 1100.0), rng.uniform(-1.0, 1.0)};
    ASSERT_EQ(grid.nearest(p), brute_nearest(sites, p));
  }
}

TEST(SiteGridTest, NonFiniteQueriesMatchTheScan) {
  const std::vector<Point> sites = hex_sites(19, 1000.0);
  const SiteGrid grid(sites);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Point p : {Point{nan, 0.0}, Point{0.0, nan}, Point{inf, 0.0},
                        Point{-inf, inf}}) {
    EXPECT_EQ(grid.nearest(p), brute_nearest(sites, p));
  }
}

}  // namespace
}  // namespace tsajs::geo
