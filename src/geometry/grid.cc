#include "geometry/grid.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace craqr {
namespace geom {

std::string CellIndex::ToString() const {
  std::ostringstream os;
  os << "(" << q << "," << r << ")";
  return os.str();
}

Grid::Grid(Rect region, std::uint32_t side)
    : region_(region),
      side_(side),
      cell_width_(region.Width() / static_cast<double>(side)),
      cell_height_(region.Height() / static_cast<double>(side)),
      inv_cell_width_(1.0 / cell_width_),
      inv_cell_height_(1.0 / cell_height_) {}

Result<Grid> Grid::Make(const Rect& region, std::uint32_t h) {
  if (region.IsEmpty()) {
    return Status::InvalidArgument("grid region must have positive area");
  }
  if (h == 0) {
    return Status::InvalidArgument("grid granularity h must be >= 1");
  }
  const auto side =
      static_cast<std::uint32_t>(std::llround(std::sqrt(static_cast<double>(h))));
  if (side * side != h) {
    std::ostringstream msg;
    msg << "grid granularity h=" << h
        << " must be a perfect square (the region is partitioned into a "
           "sqrt(h) x sqrt(h) grid)";
    return Status::InvalidArgument(msg.str());
  }
  return Grid(region, side);
}

namespace {

/// Seam `i` of a side [lo, hi) cut into `side` cells of width `w`. Each
/// seam is computed once from its own index, and the far seam is `hi`
/// itself, so neighbouring cells share bit-identical edges: deriving a
/// cell's far edge as `lo + i * w + w` instead misses `lo + (i + 1) * w`
/// by an ulp on some seams, and the cells then overlap or leave a gap.
double Seam(std::uint32_t i, std::uint32_t side, double lo, double hi,
            double w) {
  return i == side ? hi : lo + i * w;
}

}  // namespace

Rect Grid::CellRect(const CellIndex& index) const {
  const double x_lo = region_.x_min(), x_hi = region_.x_max();
  const double y_lo = region_.y_min(), y_hi = region_.y_max();
  return Rect(Seam(index.q, side_, x_lo, x_hi, cell_width_),
              Seam(index.r, side_, y_lo, y_hi, cell_height_),
              Seam(index.q + 1, side_, x_lo, x_hi, cell_width_),
              Seam(index.r + 1, side_, y_lo, y_hi, cell_height_));
}

double Grid::CellArea() const { return cell_width_ * cell_height_; }

std::uint32_t Grid::ClampedColumn(double x) const {
  if (!(x > region_.x_min())) {
    return 0;
  }
  if (!(x < region_.x_max())) {
    return side_ - 1;
  }
  return SideIndex(x, side_, region_.x_min(), cell_width_, inv_cell_width_);
}

std::uint32_t Grid::ClampedRow(double y) const {
  if (!(y > region_.y_min())) {
    return 0;
  }
  if (!(y < region_.y_max())) {
    return side_ - 1;
  }
  return SideIndex(y, side_, region_.y_min(), cell_height_,
                   inv_cell_height_);
}

void Grid::FillFlatCells(Span<const SpaceTimePoint> points, std::uint32_t* out,
                         std::uint32_t invalid_value) const {
  const double x0 = region_.x_min(), x1 = region_.x_max();
  const double y0 = region_.y_min(), y1 = region_.y_max();
  const double cw = cell_width_, ch = cell_height_;
  const double icw = inv_cell_width_, ich = inv_cell_height_;
  const std::uint32_t side = side_;
  const std::size_t n = points.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double x = points[i].x;
    const double y = points[i].y;
    // Same half-open test as Rect::Contains, combined without
    // short-circuiting so the row has no data-dependent branch.
    const bool valid = (x >= x0) & (x < x1) & (y >= y0) & (y < y1);
    // SideIndex is defined only for in-region coordinates; out-of-region
    // (or NaN) rows look up the region's corner instead, and their result
    // is discarded by the final select.
    const std::uint32_t q = SideIndex(valid ? x : x0, side, x0, cw, icw);
    const std::uint32_t r = SideIndex(valid ? y : y0, side, y0, ch, ich);
    out[i] = valid ? q * side + r : invalid_value;
  }
}

Result<std::vector<CellOverlap>> Grid::Overlaps(
    const Rect& query_region) const {
  const auto clipped = region_.Intersection(query_region);
  if (!clipped.has_value()) {
    return Status::InvalidArgument("query region " + query_region.ToString() +
                                   " does not intersect the grid region " +
                                   region_.ToString());
  }
  // Index range of candidate cells.
  const auto clamp_cell = [this](double v, double origin, double size) {
    const auto idx = static_cast<std::int64_t>(std::floor((v - origin) / size));
    return static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(side_) - 1));
  };
  const std::uint32_t q_lo =
      clamp_cell(clipped->x_min(), region_.x_min(), cell_width_);
  const std::uint32_t q_hi =
      clamp_cell(std::nexttoward(clipped->x_max(), clipped->x_min()),
                 region_.x_min(), cell_width_);
  const std::uint32_t r_lo =
      clamp_cell(clipped->y_min(), region_.y_min(), cell_height_);
  const std::uint32_t r_hi =
      clamp_cell(std::nexttoward(clipped->y_max(), clipped->y_min()),
                 region_.y_min(), cell_height_);

  std::vector<CellOverlap> overlaps;
  const double cell_area = CellArea();
  for (std::uint32_t q = q_lo; q <= q_hi; ++q) {
    for (std::uint32_t r = r_lo; r <= r_hi; ++r) {
      const CellIndex index{q, r};
      const Rect cell = CellRect(index);
      const auto overlap = cell.Intersection(*clipped);
      if (!overlap.has_value()) {
        continue;
      }
      const double fraction = overlap->Area() / cell_area;
      if (fraction <= 0.0) {
        continue;
      }
      overlaps.push_back(CellOverlap{
          index, *overlap, fraction,
          /*covers_cell=*/fraction >= 1.0 - 1e-9});
    }
  }
  if (overlaps.empty()) {
    return Status::InvalidArgument(
        "query region has zero-area overlap with every grid cell");
  }
  return overlaps;
}

Status Grid::ValidateQueryRegion(const Rect& query_region) const {
  if (query_region.IsEmpty()) {
    return Status::InvalidArgument("query region must have positive area");
  }
  const double min_area = CellArea();
  if (query_region.Area() + 1e-12 < min_area) {
    std::ostringstream msg;
    msg << "query region area " << query_region.Area()
        << " km^2 is below the grid-cell area " << min_area
        << " km^2 (a single-attribute query should cover at least one "
           "cell's area; paper Section IV)";
    return Status::InvalidArgument(msg.str());
  }
  return Status::OK();
}

}  // namespace geom
}  // namespace craqr
