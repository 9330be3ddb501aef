#include "geo/site_grid.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.h"

namespace tsajs::geo {

SiteGrid::SiteGrid(const std::vector<Point>& sites) : sites_(sites) {
  TSAJS_REQUIRE(!sites.empty(), "site grid needs at least one site");
  double max_x = sites[0].x;
  double max_y = sites[0].y;
  min_x_ = sites[0].x;
  min_y_ = sites[0].y;
  for (const Point& site : sites) {
    TSAJS_REQUIRE(std::isfinite(site.x) && std::isfinite(site.y),
                  "site coordinates must be finite");
    min_x_ = std::min(min_x_, site.x);
    min_y_ = std::min(min_y_, site.y);
    max_x = std::max(max_x, site.x);
    max_y = std::max(max_y, site.y);
  }
  // About one site per cell over the bounding box, but never narrower than
  // extent / n, so a long thin deployment cannot ask for more than n + 1
  // cells along either side (at most about 3n + 1 cells in all).
  const double width = max_x - min_x_;
  const double height = max_y - min_y_;
  const auto n = static_cast<double>(sites.size());
  const double extent = std::max(width, height);
  cell_m_ = std::max(std::sqrt(width * height / n), extent / n);
  if (!(cell_m_ > 0.0)) cell_m_ = 1.0;  // all sites on one point
  columns_ = static_cast<std::size_t>(width / cell_m_) + 1;
  rows_ = static_cast<std::size_t>(height / cell_m_) + 1;

  // Counting sort into cells; ascending site order within each cell.
  std::vector<std::size_t> cell_of(sites.size());
  cell_start_.assign(columns_ * rows_ + 1, 0);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    cell_of[i] = cell_index(sites[i].y - min_y_, rows_) * columns_ +
                 cell_index(sites[i].x - min_x_, columns_);
    ++cell_start_[cell_of[i] + 1];
  }
  for (std::size_t c = 0; c < columns_ * rows_; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  cell_sites_.resize(sites.size());
  std::vector<std::size_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    cell_sites_[fill[cell_of[i]]++] = i;
  }
}

std::size_t SiteGrid::cell_index(double v, std::size_t n) const {
  const double cell = v / cell_m_;
  if (!(cell > 0.0)) return 0;
  if (cell >= static_cast<double>(n - 1)) return n - 1;
  return static_cast<std::size_t>(cell);
}

std::size_t SiteGrid::nearest(Point p) const {
  // A NaN coordinate makes every distance NaN, and the plain scan then
  // keeps its first site.
  if (std::isnan(p.x) || std::isnan(p.y)) return 0;
  const auto cx = static_cast<std::int64_t>(cell_index(p.x - min_x_, columns_));
  const auto cy = static_cast<std::int64_t>(cell_index(p.y - min_y_, rows_));
  const auto cols = static_cast<std::int64_t>(columns_);
  const auto rows = static_cast<std::int64_t>(rows_);
  std::size_t best = sites_.size();
  double best_sq = 0.0;
  const auto visit = [&](std::int64_t col, std::int64_t row) {
    const auto c = static_cast<std::size_t>(row * cols + col);
    for (std::size_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
      const std::size_t i = cell_sites_[k];
      const double d_sq = distance_squared(p, sites_[i]);
      if (best == sites_.size() || d_sq < best_sq ||
          (d_sq == best_sq && i < best)) {
        best = i;
        best_sq = d_sq;
      }
    }
  };
  for (std::int64_t r = 0;; ++r) {
    // Ring r: the cells at Chebyshev distance exactly r from (cx, cy).
    const std::int64_t lo_row = std::max<std::int64_t>(cy - r, 0);
    const std::int64_t hi_row = std::min(cy + r, rows - 1);
    const std::int64_t lo_col = std::max<std::int64_t>(cx - r, 0);
    const std::int64_t hi_col = std::min(cx + r, cols - 1);
    for (std::int64_t row = lo_row; row <= hi_row; ++row) {
      if (row == cy - r || row == cy + r) {
        for (std::int64_t col = lo_col; col <= hi_col; ++col) visit(col, row);
      } else {
        if (cx - r >= 0) visit(cx - r, row);
        if (cx + r < cols) visit(cx + r, row);
      }
    }
    // Every cell visited: the scan is complete.
    if (cx - r <= 0 && cy - r <= 0 && cx + r >= cols - 1 &&
        cy + r >= rows - 1) {
      break;
    }
    // A site in ring r + 1 or beyond is at least r cells from the query
    // along one axis (more when the query lies outside the box). Stopping
    // only once r - 1 cells already exceed the best distance leaves a full
    // cell for rounding, so no unvisited site can be closer or tied.
    if (best != sites_.size() && r >= 1) {
      const double reach = static_cast<double>(r - 1) * cell_m_;
      if (reach * reach > best_sq) break;
    }
  }
  return best;
}

}  // namespace tsajs::geo
