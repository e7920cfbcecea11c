#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "geometry/grid.h"

namespace craqr {
namespace geom {
namespace {

Grid MakeGrid(double size, std::uint32_t h) {
  auto grid = Grid::Make(Rect(0, 0, size, size), h);
  EXPECT_TRUE(grid.ok());
  return grid.MoveValue();
}

TEST(GridTest, MakeValidatesInputs) {
  EXPECT_FALSE(Grid::Make(Rect(), 9).ok());
  EXPECT_FALSE(Grid::Make(Rect(0, 0, 3, 3), 0).ok());
  // Not a perfect square.
  EXPECT_FALSE(Grid::Make(Rect(0, 0, 3, 3), 8).ok());
  EXPECT_TRUE(Grid::Make(Rect(0, 0, 3, 3), 9).ok());
  EXPECT_TRUE(Grid::Make(Rect(0, 0, 3, 3), 1).ok());
}

TEST(GridTest, DimensionsAndCellArea) {
  const Grid grid = MakeGrid(3.0, 9);
  EXPECT_EQ(grid.CellsPerSide(), 3u);
  EXPECT_EQ(grid.NumCells(), 9u);
  EXPECT_DOUBLE_EQ(grid.CellArea(), 1.0);
}

TEST(GridTest, CellRectsTileTheRegion) {
  // 6/4 is exact in binary; 10/9 and 10/15 are not, which is where a far
  // edge derived as `left + width` misses the next cell's left edge.
  for (const auto& [side_km, h] : {std::pair<double, std::uint32_t>{6.0, 16},
                                   {10.0, 81},
                                   {10.0, 225}}) {
    const Grid grid = MakeGrid(side_km, h);
    const std::uint32_t side = grid.CellsPerSide();
    double total = 0.0;
    for (std::uint32_t q = 0; q < side; ++q) {
      for (std::uint32_t r = 0; r < side; ++r) {
        const Rect cell = grid.CellRect(CellIndex{q, r});
        total += cell.Area();
        EXPECT_TRUE(grid.region().ContainsRect(cell));
        // Neighbours share bit-identical seams; the outer cells end on
        // the region's own edges.
        const Rect right = grid.CellRect(CellIndex{q + 1 < side ? q + 1 : q, r});
        const Rect up = grid.CellRect(CellIndex{q, r + 1 < side ? r + 1 : r});
        EXPECT_EQ(cell.x_max(), q + 1 < side ? right.x_min()
                                             : grid.region().x_max())
            << side_km << "/" << h << " q=" << q;
        EXPECT_EQ(cell.y_max(), r + 1 < side ? up.y_min()
                                             : grid.region().y_max())
            << side_km << "/" << h << " r=" << r;
      }
    }
    // Paper Eq. (2): area(R) = sum of cell areas.
    EXPECT_NEAR(total, grid.region().Area(), 1e-9);
  }
}

TEST(GridTest, CellContainingRoundTrips) {
  const Grid grid = MakeGrid(3.0, 9);
  const auto cell = grid.CellContaining(1.5, 2.5);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(*cell, (CellIndex{1u, 2u}));
  EXPECT_TRUE(grid.CellRect(*cell).Contains(1.5, 2.5));
  EXPECT_FALSE(grid.CellContaining(3.5, 1.0).has_value());
  EXPECT_FALSE(grid.CellContaining(-0.1, 1.0).has_value());
}

TEST(GridTest, CellContainingOnBoundaries) {
  const Grid grid = MakeGrid(3.0, 9);
  // Interior cell boundary belongs to the upper cell (half-open).
  const auto cell = grid.CellContaining(1.0, 0.0);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->q, 1u);
  EXPECT_EQ(cell->r, 0u);
}

TEST(GridTest, OverlapsSingleInteriorCell) {
  const Grid grid = MakeGrid(3.0, 9);
  const auto overlaps = grid.Overlaps(Rect(1.0, 1.0, 2.0, 2.0));
  ASSERT_TRUE(overlaps.ok());
  ASSERT_EQ(overlaps->size(), 1u);
  EXPECT_EQ(overlaps->front().cell, (CellIndex{1u, 1u}));
  EXPECT_TRUE(overlaps->front().covers_cell);
  EXPECT_NEAR(overlaps->front().fraction, 1.0, 1e-12);
}

TEST(GridTest, OverlapsPartialRegion) {
  const Grid grid = MakeGrid(3.0, 9);
  // Covers cell (0,0) fully and half of (1,0).
  const auto overlaps = grid.Overlaps(Rect(0.0, 0.0, 1.5, 1.0));
  ASSERT_TRUE(overlaps.ok());
  ASSERT_EQ(overlaps->size(), 2u);
  double fractions[2] = {0.0, 0.0};
  for (const auto& overlap : *overlaps) {
    fractions[overlap.cell.q] = overlap.fraction;
    if (overlap.cell.q == 0) {
      EXPECT_TRUE(overlap.covers_cell);
    } else {
      EXPECT_FALSE(overlap.covers_cell);
    }
  }
  EXPECT_NEAR(fractions[0], 1.0, 1e-12);
  EXPECT_NEAR(fractions[1], 0.5, 1e-12);
}

TEST(GridTest, OverlapsClipsToRegion) {
  const Grid grid = MakeGrid(3.0, 9);
  const auto overlaps = grid.Overlaps(Rect(-5.0, -5.0, 0.5, 0.5));
  ASSERT_TRUE(overlaps.ok());
  ASSERT_EQ(overlaps->size(), 1u);
  EXPECT_EQ(overlaps->front().cell, (CellIndex{0u, 0u}));
  EXPECT_NEAR(overlaps->front().fraction, 0.25, 1e-12);
}

TEST(GridTest, OverlapsErrorsOutsideRegion) {
  const Grid grid = MakeGrid(3.0, 9);
  EXPECT_FALSE(grid.Overlaps(Rect(10.0, 10.0, 12.0, 12.0)).ok());
}

TEST(GridTest, OverlapAreasSumToClippedQueryArea) {
  const Grid grid = MakeGrid(4.0, 16);
  const Rect query(0.3, 0.7, 3.9, 2.2);
  const auto overlaps = grid.Overlaps(query);
  ASSERT_TRUE(overlaps.ok());
  double total = 0.0;
  for (const auto& overlap : *overlaps) {
    total += overlap.region.Area();
  }
  EXPECT_NEAR(total, query.Area(), 1e-9);
}

TEST(GridTest, ValidateQueryRegionEnforcesMinimumArea) {
  const Grid grid = MakeGrid(3.0, 9);  // cell area 1 km^2
  EXPECT_TRUE(grid.ValidateQueryRegion(Rect(0, 0, 1, 1)).ok());
  EXPECT_TRUE(grid.ValidateQueryRegion(Rect(0, 0, 2, 2)).ok());
  // Area below one cell: rejected (paper Section IV).
  EXPECT_EQ(grid.ValidateQueryRegion(Rect(0, 0, 0.5, 0.5)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(grid.ValidateQueryRegion(Rect()).ok());
}

/// Every seam of a side [lo, hi) cut at `edges`, and one ulp either side.
std::vector<double> SeamProbes(const std::vector<double>& edges) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> probes;
  for (const double seam : edges) {
    probes.push_back(std::nextafter(seam, -inf));
    probes.push_back(seam);
    probes.push_back(std::nextafter(seam, inf));
  }
  return probes;
}

TEST(GridTest, LookupIsExactAtSeams) {
  // 2/3 km and 8/9 km cells are inexact in binary; a division lookup put
  // x = 4.666666666666666, seam 7 of the 15 x 15 grid, in column 6. On
  // the 35 x 35 grid, -3 + 35 * w falls short of 7.1, so a point just below
  // the far edge must not step past the last cell.
  const std::pair<Rect, std::uint32_t> grids[] = {
      {Rect(0, 0, 10, 10), 15 * 15},
      {Rect(0, 0, 8, 8), 16 * 16},
      {Rect(0, 0, 10, 10), 9 * 9},
      {Rect(-3, 2, 5, 4.5), 7 * 7},
      {Rect(-3, -3, 7.1, 7.1), 35 * 35}};
  for (const auto& [region, h] : grids) {
    SCOPED_TRACE(region.ToString() + " h=" + std::to_string(h));
    const Grid grid = Grid::Make(region, h).MoveValue();
    const std::uint32_t side = grid.CellsPerSide();
    std::vector<double> x_edges, y_edges;
    for (std::uint32_t i = 0; i < side; ++i) {
      x_edges.push_back(grid.CellRect({i, 0}).x_min());
      y_edges.push_back(grid.CellRect({0, i}).y_min());
    }
    x_edges.push_back(region.x_max());
    y_edges.push_back(region.y_max());
    const std::vector<double> xs = SeamProbes(x_edges);
    const std::vector<double> ys = SeamProbes(y_edges);
    std::vector<SpaceTimePoint> points;
    std::vector<std::uint32_t> want_flat;
    for (const double x : xs) {
      for (const double y : ys) {
        // The one cell whose rect holds (x, y), by scanning them all.
        std::optional<CellIndex> want;
        for (std::uint32_t q = 0; q < side; ++q) {
          for (std::uint32_t r = 0; r < side; ++r) {
            if (grid.CellRect({q, r}).Contains(x, y)) {
              ASSERT_FALSE(want.has_value()) << "cells overlap";
              want = CellIndex{q, r};
            }
          }
        }
        const auto got = grid.CellContaining(x, y);
        ASSERT_EQ(got.has_value(), want.has_value()) << x << "," << y;
        if (want.has_value()) {
          ASSERT_EQ(*got, *want) << std::setprecision(17) << x << "," << y;
          ASSERT_EQ(grid.ClampedColumn(x), want->q) << std::setprecision(17)
                                                    << x;
          ASSERT_EQ(grid.ClampedRow(y), want->r) << std::setprecision(17)
                                                 << y;
        }
        points.push_back(SpaceTimePoint{0.0, x, y});
        want_flat.push_back(want.has_value() ? grid.FlatIndex(*want)
                                             : grid.NumCells());
      }
    }
    std::vector<std::uint32_t> flat(points.size());
    grid.FillFlatCells({points.data(), points.size()}, flat.data(),
                       grid.NumCells());
    EXPECT_EQ(flat, want_flat);
  }
}

TEST(GridTest, ClampedLookupsClampOutsideTheRegion) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Grid grid = Grid::Make(Rect(-3, 2, 5, 4.5), 16).MoveValue();
  for (const double low : {-inf, -1e300, -3.5, -3.0, nan}) {
    EXPECT_EQ(grid.ClampedColumn(low), 0u) << low;
  }
  for (const double high : {5.0, 5.5, 1e300, inf}) {
    EXPECT_EQ(grid.ClampedColumn(high), 3u) << high;
  }
  for (const double low : {-inf, 0.0, 2.0, nan}) {
    EXPECT_EQ(grid.ClampedRow(low), 0u) << low;
  }
  for (const double high : {4.5, 7.0, inf}) {
    EXPECT_EQ(grid.ClampedRow(high), 3u) << high;
  }
}

/// Parameterized sweep over grid granularities.
class GridGranularityTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GridGranularityTest, EveryPointMapsToExactlyOneCell) {
  const std::uint32_t h = GetParam();
  const Grid grid = MakeGrid(5.0, h);
  for (double x = 0.05; x < 5.0; x += 0.52) {
    for (double y = 0.05; y < 5.0; y += 0.52) {
      const auto cell = grid.CellContaining(x, y);
      ASSERT_TRUE(cell.has_value());
      int containing = 0;
      for (std::uint32_t q = 0; q < grid.CellsPerSide(); ++q) {
        for (std::uint32_t r = 0; r < grid.CellsPerSide(); ++r) {
          if (grid.CellRect(CellIndex{q, r}).Contains(x, y)) {
            ++containing;
          }
        }
      }
      EXPECT_EQ(containing, 1);
      EXPECT_TRUE(grid.CellRect(*cell).Contains(x, y));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, GridGranularityTest,
                         ::testing::Values(1u, 4u, 9u, 25u, 64u));

}  // namespace
}  // namespace geom
}  // namespace craqr
