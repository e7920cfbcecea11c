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
  std::optional<CellIndex> CellContaining(double x, double y) const;

  /// Flat row-major index of a cell: `q * CellsPerSide() + r`, in
  /// `[0, NumCells())`. The key the histogram routers' dense lookup
  /// tables are built over.
  std::uint32_t FlatIndex(const CellIndex& index) const {
    return index.q * side_ + index.r;
  }

  /// \brief Column sweep of CellContaining: writes the flat cell index of
  /// every point to `out`, or `invalid_value` for points outside the
  /// region. Classification is bit-identical to CellContaining (same
  /// half-open region test, same division, same far-edge clamp), and the
  /// loop is branch-free — the select of `invalid_value` if-converts —
  /// so the routers' per-row cell resolution auto-vectorizes. `out` must
  /// hold `points.size()` entries.
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

  Rect region_;
  std::uint32_t side_ = 1;
  double cell_width_ = 0.0;
  double cell_height_ = 0.0;
};

}  // namespace geom
}  // namespace craqr
