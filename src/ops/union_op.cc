#include "ops/union_op.h"

#include <algorithm>
#include <sstream>

namespace craqr {
namespace ops {

Result<std::unique_ptr<UnionOperator>> UnionOperator::Make(
    std::string name, std::vector<geom::Rect> input_regions) {
  if (input_regions.size() < 2) {
    return Status::InvalidArgument("union requires at least two regions");
  }
  // Exact tiling check — the k-way generalisation of the paper's "adjacent
  // with a common side of equal length" rule. The distinct piece edges cut
  // the bounding box into elementary cells; each must belong to exactly one
  // piece. Compares only, no area arithmetic, so it is exact: the
  // half-open pieces then partition the box point for point.
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < input_regions.size(); ++i) {
    const auto& region = input_regions[i];
    // Negated compares also reject NaN corners.
    if (!(region.x_min() < region.x_max()) ||
        !(region.y_min() < region.y_max())) {
      return Status::InvalidArgument("union region " + std::to_string(i) +
                                     " must have positive area");
    }
    xs.insert(xs.end(), {region.x_min(), region.x_max()});
    ys.insert(ys.end(), {region.y_min(), region.y_max()});
  }
  for (auto* edges : {&xs, &ys}) {
    std::sort(edges->begin(), edges->end());
    edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
  }
  const auto edge_index = [](const std::vector<double>& edges, double v) {
    return static_cast<std::size_t>(
        std::lower_bound(edges.begin(), edges.end(), v) - edges.begin());
  };
  const std::size_t rows = ys.size() - 1;
  constexpr std::size_t kFree = ~static_cast<std::size_t>(0);
  std::vector<std::size_t> owner((xs.size() - 1) * rows, kFree);
  for (std::size_t i = 0; i < input_regions.size(); ++i) {
    const auto& region = input_regions[i];
    const std::size_t cx_end = edge_index(xs, region.x_max());
    const std::size_t cy_begin = edge_index(ys, region.y_min());
    const std::size_t cy_end = edge_index(ys, region.y_max());
    for (std::size_t cx = edge_index(xs, region.x_min()); cx < cx_end; ++cx) {
      for (std::size_t cy = cy_begin; cy < cy_end; ++cy) {
        std::size_t& cell_owner = owner[cx * rows + cy];
        if (cell_owner != kFree) {
          std::ostringstream msg;
          msg << "union input regions must be disjoint; "
              << input_regions[cell_owner].ToString() << " overlaps "
              << region.ToString();
          return Status::FailedPrecondition(msg.str());
        }
        cell_owner = i;
      }
    }
  }
  const geom::Rect bbox(xs.front(), ys.front(), xs.back(), ys.back());
  if (std::find(owner.begin(), owner.end(), kFree) != owner.end()) {
    return Status::FailedPrecondition(
        "union input regions must tile a rectangle (adjacent with common "
        "sides); pieces leave a hole in bounding box " +
        bbox.ToString());
  }
  return std::unique_ptr<UnionOperator>(
      new UnionOperator(std::move(name), std::move(input_regions), bbox));
}

Status UnionOperator::Push(const Tuple& tuple) {
  CountIn();
  // The pieces tile output_region_ exactly (Make), so "inside some piece"
  // is "inside the box".
  if (!output_region_.Contains(tuple.point.x, tuple.point.y)) {
    ++out_of_region_;
  }
  return Emit(tuple);
}

Status UnionOperator::PushBatch(TupleBatch& batch) {
  const std::size_t active = batch.size();
  CountIn(active);
  // One branch-free containment sweep against the box over the raw point
  // column, then count the active rows left outside. Husk rows are masked
  // too but never counted.
  const Span<const geom::SpaceTimePoint> points = batch.RawPoints();
  const std::size_t raw_n = batch.raw_size();
  inside_mask_.resize(raw_n);
  output_region_.ContainsMask(points, inside_mask_.data());
  out_of_region_ +=
      active - batch.CountActiveWhere({inside_mask_.data(), raw_n});
  return Emit(batch);
}

}  // namespace ops
}  // namespace craqr
