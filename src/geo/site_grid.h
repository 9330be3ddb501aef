// Exact nearest-site lookup over a uniform grid.
//
// Every user of a city-scale drop is homed at its nearest cell site. A
// plain scan costs O(S) distance computations per user; `SiteGrid` buckets
// the sites into square cells of about one site each (over the sites'
// bounding box) and searches outward from the query's cell ring by ring,
// so a query touches a handful of nearby sites. The answer is the same
// as the scan's bit for bit: distances are `distance_squared`, ties go to
// the lowest site index, and the search stops only once every unvisited
// ring is provably farther than the best site found — with a whole ring
// of margin, so rounding in the cell assignment can never hide a closer
// (or tied) site. Queries outside the bounding box start from the nearest
// border cell.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/point.h"

namespace tsajs::geo {

class SiteGrid {
 public:
  /// Buckets `sites` (indexed as given). Requires at least one site, all
  /// with finite coordinates.
  explicit SiteGrid(const std::vector<Point>& sites);

  /// Index of the site nearest to `p` by distance_squared, lowest index on
  /// ties — exactly the argmin of a scan over all sites in index order.
  [[nodiscard]] std::size_t nearest(Point p) const;

  [[nodiscard]] std::size_t columns() const noexcept { return columns_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

 private:
  /// Cell coordinate of `v` (offset from the box corner, in cells),
  /// clamped to [0, n); NaN maps to 0.
  [[nodiscard]] std::size_t cell_index(double v, std::size_t n) const;

  std::vector<Point> sites_;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double cell_m_ = 1.0;
  std::size_t columns_ = 1;
  std::size_t rows_ = 1;
  /// Sites of cell (col, row) are cell_sites_[cell_start_[c] ..
  /// cell_start_[c + 1]) with c = row * columns_ + col, ascending index.
  std::vector<std::size_t> cell_start_;
  std::vector<std::size_t> cell_sites_;
};

}  // namespace tsajs::geo
