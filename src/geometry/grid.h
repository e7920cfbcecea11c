#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "geometry/rect.h"

/// \file grid.h
/// \brief The paper's logical sqrt(h) x sqrt(h) grid over the region R
/// (Section IV): cell addressing, point-to-cell mapping, and query-region
/// overlap computation.

namespace craqr {
namespace geom {

/// \brief Grid-cell coordinates (q, r); the paper's R_(q,r). Zero-based.
struct CellIndex {
  std::uint32_t q = 0;
  std::uint32_t r = 0;

  bool operator==(const CellIndex& o) const { return q == o.q && r == o.r; }

  /// Debug representation "(q,r)".
  std::string ToString() const;
};

/// \brief Hash functor so CellIndex can key the fabricator's hashmap
/// (paper Section V "a hashmap is constructed where the keys ... are the
/// xy-coordinates of grid cells").
struct CellIndexHash {
  std::size_t operator()(const CellIndex& c) const {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(c.q) << 32) | c.r);
  }
};

/// \brief The overlap of a query region with one grid cell.
struct CellOverlap {
  CellIndex cell;
  /// The intersection rectangle (clipped to the cell).
  Rect region;
  /// overlap area / cell area, in (0, 1].
  double fraction = 0.0;
  /// True when the query region covers the whole cell (no Partition
  /// operator needed for this cell).
  bool covers_cell = false;
};

/// \brief Uniform logical grid over a region.
///
/// `h` is the paper's user-defined granularity parameter: the region is
/// partitioned into a sqrt(h) x sqrt(h) grid, so `h` must be a perfect
/// square. The partitioning is logical — only cells touched by queries are
/// ever materialized by the fabricator.
class Grid {
 public:
  /// Creates a grid of `h` cells (perfect square >= 1) over `region`.
  static Result<Grid> Make(const Rect& region, std::uint32_t h);

  /// The full region R.
  const Rect& region() const { return region_; }

  /// Cells per side, i.e. sqrt(h).
  std::uint32_t CellsPerSide() const { return side_; }

  /// Total number of cells h.
  std::uint32_t NumCells() const { return side_ * side_; }

  /// Geometry of cell (q, r). Requires q, r < CellsPerSide(). Neighbouring
  /// cells share bit-identical edges and the outer cells end exactly on
  /// the region's edges, so the half-open cells tile the region with no
  /// gap or overlap.
  Rect CellRect(const CellIndex& index) const;

  /// Area of one cell (all cells are equal size; paper Section IV-A).
  double CellArea() const;

  /// The cell containing (x, y); std::nullopt when outside the region.
  /// Exact at seams: the result is the one cell c with
  /// `CellRect(c).Contains(x, y)`.
  std::optional<CellIndex> CellContaining(double x, double y) const {
    if (!region_.Contains(x, y)) {
      return std::nullopt;
    }
    return CellIndex{
        SideIndex(x, side_, region_.x_min(), cell_width_, inv_cell_width_),
        SideIndex(y, side_, region_.y_min(), cell_height_, inv_cell_height_)};
  }

  /// Column of `x`, clamped: the q whose CellRect x-range holds x when x
  /// lies in the region's x-range; 0 before it (NaN too) and the last
  /// column at or past its far edge. Monotone in x, so a rect's edge
  /// columns bound the columns of every point it contains.
  std::uint32_t ClampedColumn(double x) const;

  /// Row of `y`, clamped; ClampedColumn along y.
  std::uint32_t ClampedRow(double y) const;

  /// Flat row-major index of a cell: `q * CellsPerSide() + r`, in
  /// `[0, NumCells())`. The key the histogram routers' dense lookup
  /// tables are built over.
  std::uint32_t FlatIndex(const CellIndex& index) const {
    return index.q * side_ + index.r;
  }

  /// \brief Column sweep of CellContaining: writes the flat cell index of
  /// every point to `out`, or `invalid_value` for points outside the
  /// region. Classification is bit-identical to CellContaining (same
  /// half-open region test, same seam-exact lookup), and the loop body is
  /// branch-free: the seam steps and the choice of `invalid_value` are
  /// selects. `out` must hold `points.size()` entries.
  void FillFlatCells(Span<const SpaceTimePoint> points, std::uint32_t* out,
                     std::uint32_t invalid_value) const;

  /// \brief All cells with non-zero overlap with `query_region`, with the
  /// clipped rectangles and overlap fractions (paper Section V "Query
  /// Insertions": "we compute the amount of overlap that it has with each
  /// grid cell").
  ///
  /// Returns an error when the query region does not intersect the grid
  /// region at all.
  Result<std::vector<CellOverlap>> Overlaps(const Rect& query_region) const;

  /// \brief Validates the paper's minimum-query-size rule: "A
  /// single-attribute query should be on a region with area at least
  /// area(R_(q,r))".
  Status ValidateQueryRegion(const Rect& query_region) const;

 private:
  Grid(Rect region, std::uint32_t side);

  /// Index i of the cell [Seam(i), Seam(i + 1)) holding `v`, for v in
  /// [lo, hi) of a side cut into `side` cells of width `w`, where Seam(i) =
  /// lo + i * w below `side` and hi at it: the half-open edges CellRect
  /// draws. `inv_w` is 1 / w. Scaling by it lands on i except within a few
  /// ulps of a seam, where it can be one cell off (on 10 km / 15 x 15,
  /// x = 4.666666666666666 is seam 7, but even the exact division gives
  /// 6.999999999999999); one comparison with each of the cell's seams
  /// steps it back. The last cell never steps up, as its far seam is hi.
  /// Only selects, so a lookup has no data-dependent branch: choosing hi
  /// as the last cell's far seam compiled to a branch that mispredicted
  /// about once in `side` lookups.
  static std::uint32_t SideIndex(double v, std::uint32_t side, double lo,
                                 double w, double inv_w) {
    std::uint32_t i = static_cast<std::uint32_t>((v - lo) * inv_w);
    i = i < side - 1 ? i : side - 1;  // v just below hi can scale to side
    // i < side <= 65535 (h is 32-bit), so the signed conversion is exact
    // and cheaper; di + 1 is i + 1 exactly.
    const double di = static_cast<double>(static_cast<std::int32_t>(i));
    const bool down = v < lo + di * w;                      // v < Seam(i)
    const bool up = (v >= lo + (di + 1.0) * w) & (i + 1 < side);
    return i - (down ? 1u : 0u) + (up ? 1u : 0u);
  }

  Rect region_;
  std::uint32_t side_ = 1;
  double cell_width_ = 0.0;
  double cell_height_ = 0.0;
  /// 1 / cell_width_ and 1 / cell_height_: the cell lookups' first guess.
  double inv_cell_width_ = 0.0;
  double inv_cell_height_ = 0.0;
};

}  // namespace geom
}  // namespace craqr
