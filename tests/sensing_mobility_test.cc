#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "sensing/mobility.h"

namespace craqr {
namespace sensing {
namespace {

const geom::Rect kRegion(0, 0, 5, 5);

TEST(ReflectTest, InsideIsUnchanged) {
  const auto p = ReflectIntoRect({2.0, 3.0}, kRegion);
  EXPECT_DOUBLE_EQ(p.x, 2.0);
  EXPECT_DOUBLE_EQ(p.y, 3.0);
}

TEST(ReflectTest, MirrorsAcrossBoundaries) {
  const auto p = ReflectIntoRect({-1.0, 6.0}, kRegion);
  EXPECT_DOUBLE_EQ(p.x, 1.0);
  EXPECT_DOUBLE_EQ(p.y, 4.0);
}

TEST(ReflectTest, HandlesLargeExcursions) {
  // Multiple folds still land inside.
  const auto p = ReflectIntoRect({23.7, -18.2}, kRegion);
  EXPECT_TRUE(kRegion.Contains(p));
}

/// The general fold, with `fmod` on every call and `nexttoward` for the
/// far edge: the reference ReflectIntoRect must equal bit for bit.
double ReferenceReflect(double v, double lo, double hi) {
  const double span = hi - lo;
  if (span <= 0.0) {
    return lo;
  }
  double offset = std::fmod(v - lo, 2.0 * span);
  if (offset < 0.0) {
    offset += 2.0 * span;
  }
  if (offset > span) {
    offset = 2.0 * span - offset;
  }
  return std::min(lo + offset, std::nexttoward(hi, lo));
}

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(ReflectTest, MatchesGeneralFoldBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto up = [inf](double v) { return std::nextafter(v, inf); };
  const auto down = [inf](double v) { return std::nextafter(v, -inf); };
  const geom::Rect regions[] = {kRegion, geom::Rect(-3, 2, 5, 4.5),
                                geom::Rect(1e6, -1e-3, 1e6 + 7, 1e-3),
                                geom::Rect(1, 1, 1, 3)};
  Rng rng(11);
  for (const geom::Rect& region : regions) {
    SCOPED_TRACE(region.ToString());
    // Probe values along x; y reuses them shifted onto its own side.
    const auto probes = [&](double lo, double hi) {
      const double span = hi - lo;
      std::vector<double> v = {lo, hi, -0.0, 0.0, lo + span, lo + 2 * span,
                               lo - 2 * span, lo + 3 * span, -1e17, -1e300,
                               1e300, -inf, inf, nan, -nan};
      for (const double edge : {lo, hi, lo + 2 * span, lo - span}) {
        v.push_back(up(edge));
        v.push_back(down(edge));
      }
      for (int i = 0; i < 64; ++i) {
        v.push_back(rng.Uniform(lo - 5 * span, hi + 5 * span));
      }
      return v;
    };
    const std::vector<double> xs = probes(region.x_min(), region.x_max());
    const std::vector<double> ys = probes(region.y_min(), region.y_max());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      for (std::size_t j = 0; j < ys.size(); ++j) {
        const geom::SpacePoint got = ReflectIntoRect({xs[i], ys[j]}, region);
        const double want_x =
            ReferenceReflect(xs[i], region.x_min(), region.x_max());
        const double want_y =
            ReferenceReflect(ys[j], region.y_min(), region.y_max());
        ASSERT_EQ(Bits(got.x), Bits(want_x)) << "x=" << xs[i];
        ASSERT_EQ(Bits(got.y), Bits(want_y)) << "y=" << ys[j];
      }
    }
  }
}

TEST(StaticMobilityTest, NeverMoves) {
  StaticMobility model;
  Rng rng(1);
  geom::SpacePoint p{1.0, 2.0};
  for (int i = 0; i < 10; ++i) {
    p = model.Step(&rng, p, 1.0, kRegion);
  }
  EXPECT_DOUBLE_EQ(p.x, 1.0);
  EXPECT_DOUBLE_EQ(p.y, 2.0);
}

TEST(GaussianWalkTest, Validation) {
  EXPECT_FALSE(GaussianWalkMobility::Make(-1.0).ok());
  EXPECT_TRUE(GaussianWalkMobility::Make(0.0).ok());
}

TEST(GaussianWalkTest, StaysInRegionOverManySteps) {
  auto model = GaussianWalkMobility::Make(0.8).MoveValue();
  Rng rng(2);
  geom::SpacePoint p{2.5, 2.5};
  for (int i = 0; i < 2000; ++i) {
    p = model->Step(&rng, p, 1.0, kRegion);
    ASSERT_TRUE(kRegion.Contains(p)) << "step " << i;
  }
}

TEST(GaussianWalkTest, DisplacementScalesWithSigma) {
  Rng rng_small(3);
  Rng rng_large(3);
  auto small = GaussianWalkMobility::Make(0.01).MoveValue();
  auto large = GaussianWalkMobility::Make(0.5).MoveValue();
  double small_total = 0.0;
  double large_total = 0.0;
  geom::SpacePoint ps{2.5, 2.5};
  geom::SpacePoint pl{2.5, 2.5};
  for (int i = 0; i < 200; ++i) {
    const auto ns = small->Step(&rng_small, ps, 1.0, kRegion);
    const auto nl = large->Step(&rng_large, pl, 1.0, kRegion);
    small_total += std::hypot(ns.x - ps.x, ns.y - ps.y);
    large_total += std::hypot(nl.x - pl.x, nl.y - pl.y);
    ps = ns;
    pl = nl;
  }
  EXPECT_GT(large_total, 10.0 * small_total);
}

TEST(RandomWaypointTest, Validation) {
  EXPECT_FALSE(RandomWaypointMobility::Make(0.0, 1.0).ok());
  EXPECT_FALSE(RandomWaypointMobility::Make(2.0, 1.0).ok());
  EXPECT_TRUE(RandomWaypointMobility::Make(0.5, 1.5).ok());
}

TEST(RandomWaypointTest, SpeedBoundsDisplacement) {
  auto model = RandomWaypointMobility::Make(0.1, 0.3).MoveValue();
  Rng rng(4);
  geom::SpacePoint p{2.5, 2.5};
  for (int i = 0; i < 500; ++i) {
    const auto next = model->Step(&rng, p, 1.0, kRegion);
    const double moved = std::hypot(next.x - p.x, next.y - p.y);
    // One minute at <= 0.3 km/min; allow epsilon for waypoint turns.
    EXPECT_LE(moved, 0.3 + 1e-9);
    ASSERT_TRUE(kRegion.Contains(next));
    p = next;
  }
}

TEST(RandomWaypointTest, EventuallyTraversesTheRegion) {
  auto model = RandomWaypointMobility::Make(0.5, 1.0).MoveValue();
  Rng rng(5);
  geom::SpacePoint p{0.1, 0.1};
  bool visited_far_half = false;
  for (int i = 0; i < 2000 && !visited_far_half; ++i) {
    p = model->Step(&rng, p, 1.0, kRegion);
    visited_far_half = p.x > 2.5 && p.y > 2.5;
  }
  EXPECT_TRUE(visited_far_half);
}

TEST(RandomWaypointTest, CloneStartsFresh) {
  auto model = RandomWaypointMobility::Make(0.5, 1.0).MoveValue();
  Rng rng(6);
  geom::SpacePoint p{2.5, 2.5};
  p = model->Step(&rng, p, 1.0, kRegion);
  auto clone = model->Clone();
  // Independent state: stepping the clone never dereferences the parent's
  // waypoint; both stay in-region.
  Rng rng2(7);
  geom::SpacePoint q{1.0, 1.0};
  for (int i = 0; i < 100; ++i) {
    q = clone->Step(&rng2, q, 1.0, kRegion);
    ASSERT_TRUE(kRegion.Contains(q));
  }
}

TEST(LevyFlightTest, Validation) {
  EXPECT_FALSE(LevyFlightMobility::Make(0.0, 1.0, 1.0).ok());
  EXPECT_FALSE(LevyFlightMobility::Make(1.0, 0.0, 1.0).ok());
  EXPECT_FALSE(LevyFlightMobility::Make(1.0, 1.0, 0.5).ok());
  EXPECT_TRUE(LevyFlightMobility::Make(0.05, 1.5, 2.0).ok());
}

TEST(LevyFlightTest, StaysInRegionAndStepsAreTruncated) {
  auto model = LevyFlightMobility::Make(0.05, 1.2, 1.0).MoveValue();
  Rng rng(8);
  geom::SpacePoint p{2.5, 2.5};
  for (int i = 0; i < 2000; ++i) {
    const auto next = model->Step(&rng, p, 1.0, kRegion);
    ASSERT_TRUE(kRegion.Contains(next));
    p = next;
  }
}

TEST(LevyFlightTest, HasHeavyTailRelativeToMedian) {
  auto model = LevyFlightMobility::Make(0.05, 1.2, 10.0).MoveValue();
  Rng rng(9);
  std::vector<double> steps;
  geom::SpacePoint p{2.5, 2.5};
  const geom::Rect huge(-1000, -1000, 1000, 1000);
  for (int i = 0; i < 5000; ++i) {
    const auto next = model->Step(&rng, p, 1.0, huge);
    steps.push_back(std::hypot(next.x - p.x, next.y - p.y));
    p = next;
  }
  std::sort(steps.begin(), steps.end());
  const double median = steps[steps.size() / 2];
  const double p99 = steps[steps.size() * 99 / 100];
  // Heavy tail: the 99th percentile dwarfs the median.
  EXPECT_GT(p99, 10.0 * median);
}

TEST(MobilityTest, ToStringIsDescriptive) {
  EXPECT_EQ(StaticMobility().ToString(), "Static");
  EXPECT_NE(GaussianWalkMobility::Make(0.1)
                .MoveValue()
                ->ToString()
                .find("GaussianWalk"),
            std::string::npos);
  EXPECT_NE(RandomWaypointMobility::Make(0.1, 0.2)
                .MoveValue()
                ->ToString()
                .find("RandomWaypoint"),
            std::string::npos);
  EXPECT_NE(LevyFlightMobility::Make(0.1, 1.0, 1.0)
                .MoveValue()
                ->ToString()
                .find("LevyFlight"),
            std::string::npos);
}

}  // namespace
}  // namespace sensing
}  // namespace craqr
