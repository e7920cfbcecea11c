#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "geometry/point.h"

/// \file rect.h
/// \brief Axis-aligned rectangles and the region algebra needed by the
/// PMAT Partition and Union operators (paper Section IV-B-1).

namespace craqr {
namespace geom {

/// \brief A half-open axis-aligned rectangle [x_min, x_max) x [y_min, y_max)
/// in kilometres.
///
/// Half-open semantics make grid cells tile a region without double-counting
/// boundary tuples, matching the Partition operator's requirement that its
/// output regions be disjoint.
class Rect {
 public:
  /// Constructs the empty rectangle at the origin.
  Rect() = default;

  /// Constructs a rectangle from its corner coordinates without validation;
  /// prefer Make() in fallible contexts.
  Rect(double x_min, double y_min, double x_max, double y_max)
      : x_min_(x_min), y_min_(y_min), x_max_(x_max), y_max_(y_max) {}

  /// Validating factory: requires x_min < x_max and y_min < y_max.
  static Result<Rect> Make(double x_min, double y_min, double x_max,
                           double y_max);

  double x_min() const { return x_min_; }
  double y_min() const { return y_min_; }
  double x_max() const { return x_max_; }
  double y_max() const { return y_max_; }

  /// Width along x (km).
  double Width() const { return x_max_ - x_min_; }

  /// Height along y (km).
  double Height() const { return y_max_ - y_min_; }

  /// Area in km^2; 0 for degenerate rectangles. Paper's `area(.)`.
  double Area() const;

  /// True when the rectangle has zero area.
  bool IsEmpty() const { return x_max_ <= x_min_ || y_max_ <= y_min_; }

  /// True when (x, y) lies inside the half-open extent.
  /// Half-open membership test; inline because the batch-native
  /// Partition/Union sweeps call it once per tuple.
  bool Contains(double x, double y) const {
    return x >= x_min_ && x < x_max_ && y >= y_min_ && y < y_max_;
  }

  /// True when the point lies inside the half-open extent.
  bool Contains(const SpacePoint& p) const { return Contains(p.x, p.y); }

  /// \brief Branch-free containment sweep over a space-time point column:
  /// `out[i] = Contains(points[i].x, points[i].y)` as a 0/1 byte. The
  /// four bounds compares combine with non-short-circuiting `&`, so the
  /// loop has no data-dependent branches and auto-vectorizes — this is
  /// the Partition/Union batch kernel. Edge semantics are identical to
  /// `Contains` (half-open; asserted in tests/ops_vectorized_test.cc).
  /// `out` must hold `points.size()` bytes.
  void ContainsMask(Span<const SpaceTimePoint> points,
                    std::uint8_t* out) const;

  /// True when `other` is fully inside this rectangle (closed comparison on
  /// the max edges so a rectangle contains itself).
  bool ContainsRect(const Rect& other) const;

  /// The geometric centre.
  SpacePoint Center() const;

  /// Intersection with `other`; std::nullopt when the overlap has zero
  /// area.
  std::optional<Rect> Intersection(const Rect& other) const;

  /// Area of the overlap with `other` (0 when disjoint).
  double OverlapArea(const Rect& other) const;

  /// True when the interiors are disjoint.
  bool IsDisjoint(const Rect& other) const {
    return OverlapArea(other) == 0.0;
  }

  /// \brief True when `other` can be unioned with this rectangle under the
  /// paper's Union-operator rule: the rectangles must be adjacent and share
  /// a full common side of equal length.
  bool IsUnionCompatible(const Rect& other, double tol = 1e-9) const;

  /// \brief The union rectangle when IsUnionCompatible(); error otherwise.
  Result<Rect> UnionWith(const Rect& other, double tol = 1e-9) const;

  /// Debug representation, e.g. "[0,0;2,3)".
  std::string ToString() const;

  bool operator==(const Rect& o) const {
    return x_min_ == o.x_min_ && y_min_ == o.y_min_ && x_max_ == o.x_max_ &&
           y_max_ == o.y_max_;
  }

  /// \brief Decomposes `outer \ inner` into at most four disjoint
  /// rectangles (left/right strips and top/bottom caps). Used by the
  /// fabricator's Partition placement to carve a query's overlap out of a
  /// grid cell. Returns an empty vector when `inner` covers `outer`;
  /// returns `{outer}` when they are disjoint.
  static std::vector<Rect> Subtract(const Rect& outer, const Rect& inner);

 private:
  double x_min_ = 0.0;
  double y_min_ = 0.0;
  double x_max_ = 0.0;
  double y_max_ = 0.0;
};

}  // namespace geom
}  // namespace craqr
