#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geometry/grid.h"
#include "pointprocess/intensity.h"
#include "sensing/population.h"

namespace craqr {
namespace sensing {
namespace {

const geom::Rect kRegion(0, 0, 10, 10);

PopulationConfig BaseConfig(std::size_t n) {
  PopulationConfig config;
  config.region = kRegion;
  config.num_sensors = n;
  return config;
}

TEST(PopulationTest, Validation) {
  Rng rng(1);
  EXPECT_FALSE(SensorPopulation::Make(BaseConfig(0), &rng).ok());
  EXPECT_FALSE(SensorPopulation::Make(BaseConfig(10), nullptr).ok());
  PopulationConfig bad = BaseConfig(10);
  bad.region = geom::Rect();
  EXPECT_FALSE(SensorPopulation::Make(bad, &rng).ok());
  bad = BaseConfig(10);
  bad.placement = PlacementKind::kIntensity;  // missing intensity
  EXPECT_FALSE(SensorPopulation::Make(bad, &rng).ok());
  bad = BaseConfig(10);
  bad.responsiveness_sigma = -1.0;
  EXPECT_FALSE(SensorPopulation::Make(bad, &rng).ok());
}

TEST(PopulationTest, UniformPlacementInsideRegion) {
  Rng rng(2);
  const auto population = SensorPopulation::Make(BaseConfig(500), &rng);
  ASSERT_TRUE(population.ok());
  EXPECT_EQ(population->size(), 500u);
  for (std::size_t i = 0; i < population->size(); ++i) {
    EXPECT_TRUE(kRegion.Contains(population->sensor(i).position));
    EXPECT_EQ(population->sensor(i).id, i);
  }
}

TEST(PopulationTest, HotspotPlacementConcentratesSensors) {
  Rng rng(3);
  pp::GaussianBump hotspot;
  hotspot.amplitude = 50.0;
  hotspot.x0 = 2.0;
  hotspot.y0 = 2.0;
  hotspot.sigma = 1.0;
  PopulationConfig config = BaseConfig(1000);
  config.placement = PlacementKind::kIntensity;
  config.placement_intensity =
      pp::GaussianBumpIntensity::Make(1.0, {hotspot}).MoveValue();
  const auto population = SensorPopulation::Make(config, &rng);
  ASSERT_TRUE(population.ok());
  // The 4x4 box around the hotspot holds 16% of the area; with the bump it
  // must hold far more than 16% of the crowd.
  const std::size_t near_hotspot =
      population->CountIn(geom::Rect(0, 0, 4, 4));
  EXPECT_GT(near_hotspot, 400u);
}

TEST(PopulationTest, ResponsivenessBiasHasSpread) {
  Rng rng(4);
  PopulationConfig config = BaseConfig(300);
  config.responsiveness_sigma = 1.0;
  const auto population = SensorPopulation::Make(config, &rng);
  ASSERT_TRUE(population.ok());
  double min_bias = 1e9;
  double max_bias = -1e9;
  for (std::size_t i = 0; i < population->size(); ++i) {
    min_bias = std::min(min_bias, population->sensor(i).responsiveness_bias);
    max_bias = std::max(max_bias, population->sensor(i).responsiveness_bias);
  }
  EXPECT_LT(min_bias, -0.5);
  EXPECT_GT(max_bias, 0.5);
}

TEST(PopulationTest, AdvanceMovesMobileSensors) {
  Rng rng(5);
  PopulationConfig config = BaseConfig(50);
  const auto mobility = GaussianWalkMobility::Make(0.5).MoveValue();
  config.mobility_prototype = mobility.get();
  auto population = SensorPopulation::Make(config, &rng);
  ASSERT_TRUE(population.ok());
  std::vector<geom::SpacePoint> before;
  for (std::size_t i = 0; i < population->size(); ++i) {
    before.push_back(population->sensor(i).position);
  }
  population->Advance(&rng, 1.0);
  int moved = 0;
  for (std::size_t i = 0; i < population->size(); ++i) {
    const auto& now = population->sensor(i).position;
    if (now.x != before[i].x || now.y != before[i].y) {
      ++moved;
    }
    EXPECT_TRUE(kRegion.Contains(now));
  }
  EXPECT_EQ(moved, 50);
}

TEST(PopulationTest, StaticWithoutMobilityPrototype) {
  Rng rng(6);
  auto population = SensorPopulation::Make(BaseConfig(20), &rng);
  ASSERT_TRUE(population.ok());
  const auto before = population->sensor(7).position;
  population->Advance(&rng, 10.0);
  EXPECT_EQ(population->sensor(7).position, before);
}

TEST(PopulationTest, SensorsInFindsOnlyContained) {
  Rng rng(7);
  auto population = SensorPopulation::Make(BaseConfig(200), &rng);
  ASSERT_TRUE(population.ok());
  const geom::Rect box(0, 0, 5, 5);
  std::vector<std::uint32_t> scratch;
  const Span<const std::uint32_t> inside =
      population->SensorsIn(box, &scratch);
  EXPECT_EQ(inside.size(), population->CountIn(box));
  for (const auto index : inside) {
    EXPECT_TRUE(box.Contains(population->sensor(index).position));
  }
  // Complement check.
  std::size_t outside = 0;
  for (std::size_t i = 0; i < population->size(); ++i) {
    if (!box.Contains(population->sensor(i).position)) {
      ++outside;
    }
  }
  EXPECT_EQ(inside.size() + outside, population->size());
}

/// The linear scan SensorsIn and CountIn must agree with: every sensor, in
/// index order, tested with Rect::Contains.
std::vector<std::size_t> ScanSensorsIn(const SensorPopulation& population,
                                       const geom::Rect& rect) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < population.size(); ++i) {
    if (rect.Contains(population.sensor(i).position)) {
      indices.push_back(i);
    }
  }
  return indices;
}

/// SensorsIn's answer, copied out of its view for comparison.
std::vector<std::size_t> ListSensorsIn(const SensorPopulation& population,
                                       const geom::Rect& rect) {
  std::vector<std::uint32_t> scratch;
  const Span<const std::uint32_t> got = population.SensorsIn(rect, &scratch);
  return std::vector<std::size_t>(got.begin(), got.end());
}

/// Query rectangles over `region` for a population of `m` sensors: random
/// ones, grid cells, rects on the index's bucket edges (and one ulp either
/// side), rects covering or missing the region, and degenerate ones.
std::vector<geom::Rect> ProbeRects(const geom::Rect& region, std::size_t m,
                                   Rng* rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double x0 = region.x_min(), y0 = region.y_min();
  const double x1 = region.x_max(), y1 = region.y_max();
  const double w = region.Width(), h = region.Height();
  std::vector<geom::Rect> rects;
  for (int i = 0; i < 120; ++i) {
    const double ax = rng->Uniform(x0 - 0.2 * w, x1 + 0.2 * w);
    const double bx = rng->Uniform(x0 - 0.2 * w, x1 + 0.2 * w);
    const double ay = rng->Uniform(y0 - 0.2 * h, y1 + 0.2 * h);
    const double by = rng->Uniform(y0 - 0.2 * h, y1 + 0.2 * h);
    rects.emplace_back(std::min(ax, bx), std::min(ay, by), std::max(ax, bx),
                       std::max(ay, by));
  }
  for (const std::uint32_t cells : {16u * 16u, 15u * 15u}) {
    const geom::Grid grid = geom::Grid::Make(region, cells).MoveValue();
    for (std::uint32_t q = 0; q < grid.CellsPerSide(); ++q) {
      for (std::uint32_t r = 0; r < grid.CellsPerSide(); ++r) {
        rects.push_back(grid.CellRect({q, r}));
      }
    }
  }
  // Bucket edges at the index's resolution (about 8 sensors a bucket).
  const auto side = static_cast<std::size_t>(
      std::max(1.0, std::floor(std::sqrt(static_cast<double>(m) / 8.0))));
  const auto edge = [side](double lo, double len, std::size_t k) {
    return lo + len * static_cast<double>(k) / static_cast<double>(side);
  };
  for (std::size_t i = 0; i < side; ++i) {
    const double ex = edge(x0, w, i), fx = edge(x0, w, i + 1);
    const double ey = edge(y0, h, i), fy = edge(y0, h, i + 1);
    rects.emplace_back(ex, ey, fx, fy);
    rects.emplace_back(std::nextafter(ex, -inf), std::nextafter(ey, inf),
                       std::nextafter(fx, inf), std::nextafter(fy, -inf));
    rects.emplace_back(std::nextafter(ex, inf), y0, std::nextafter(fx, -inf),
                       y1);
  }
  // Larger than, outside, zero-width, inverted, non-finite.
  rects.emplace_back(x0 - w, y0 - h, x1 + w, y1 + h);
  rects.emplace_back(-inf, -inf, inf, inf);
  rects.emplace_back(x0, y0, x1, y1);
  rects.emplace_back(x1, y0, x1 + w, y1);
  rects.emplace_back(x0 - w, y0 - h, x0, y0);
  rects.emplace_back(x0 + 0.5 * w, y0, x0 + 0.5 * w, y1);
  rects.emplace_back(x0, y0 + 0.3 * h, x1, y0 + 0.3 * h);
  rects.emplace_back(x1, y1, x0, y0);
  rects.emplace_back(x0 + 0.7 * w, y0, x0 + 0.2 * w, y1);
  rects.emplace_back(nan, y0, x1, y1);
  rects.emplace_back(x0, nan, x1, y1);
  rects.emplace_back(x0, y0, nan, y1);
  rects.emplace_back(x0, y0, x1, nan);
  rects.emplace_back(nan, nan, nan, nan);
  rects.emplace_back(-inf, y0, x0 + 0.4 * w, inf);
  rects.emplace_back(x0 + 0.6 * w, -inf, inf, y0 + 0.5 * h);
  rects.emplace_back(inf, y0, inf, y1);
  rects.emplace_back(-inf, -inf, -inf, y1);
  return rects;
}

TEST(PopulationTest, SensorsInMatchesLinearScan) {
  pp::GaussianBump hotspot;
  hotspot.amplitude = 60.0;
  hotspot.sigma = 0.8;
  const auto walker = RandomWaypointMobility::Make(0.05, 2.0).MoveValue();
  const auto walk = GaussianWalkMobility::Make(0.7).MoveValue();
  const geom::Rect regions[] = {kRegion, geom::Rect(-3, 2, 5, 4.5)};
  for (const geom::Rect& region : regions) {
    for (const std::size_t m : {1u, 7u, 200u, 500u, 20000u}) {
      for (const auto& [placement, mobile] :
           {std::pair{PlacementKind::kUniform, true},
            std::pair{PlacementKind::kIntensity, true},
            std::pair{PlacementKind::kUniform, false}}) {
        SCOPED_TRACE(region.ToString() + " m=" + std::to_string(m) +
                     (placement == PlacementKind::kUniform ? " uniform"
                                                           : " hotspot") +
                     (mobile ? "" : " static"));
        PopulationConfig config = BaseConfig(m);
        config.region = region;
        config.placement = placement;
        if (placement == PlacementKind::kIntensity) {
          hotspot.x0 = region.x_min() + 0.25 * region.Width();
          hotspot.y0 = region.y_min() + 0.25 * region.Height();
          config.placement_intensity =
              pp::GaussianBumpIntensity::Make(0.5, {hotspot}).MoveValue();
          config.mobility_prototype = walk.get();
        } else if (mobile) {
          config.mobility_prototype = walker.get();
        }
        Rng rng(m * 31 + static_cast<std::size_t>(placement));
        auto population = SensorPopulation::Make(config, &rng);
        ASSERT_TRUE(population.ok());
        const std::vector<geom::Rect> rects = ProbeRects(region, m, &rng);
        for (int round = 0; round < 3; ++round) {
          for (const geom::Rect& rect : rects) {
            const std::vector<std::size_t> want =
                ScanSensorsIn(*population, rect);
            ASSERT_EQ(ListSensorsIn(*population, rect), want)
                << "round " << round << " rect " << rect.ToString();
            ASSERT_EQ(population->CountIn(rect), want.size())
                << "round " << round << " rect " << rect.ToString();
          }
          for (int step = 0; step < 3; ++step) {
            population->Advance(&rng, 1.0);
          }
        }
      }
    }
  }
}

/// Puts sensors where a test wants them: every other Step returns the next
/// spot of a list shared by all clones, the rest a uniform point in the
/// region.
class ScriptedMobility final : public MobilityModel {
 public:
  explicit ScriptedMobility(std::vector<geom::SpacePoint> spots)
      : spots_(std::make_shared<const std::vector<geom::SpacePoint>>(
            std::move(spots))),
        calls_(std::make_shared<std::size_t>(0)) {}

  geom::SpacePoint Step(Rng* rng, const geom::SpacePoint&, double,
                        const geom::Rect& region) override {
    const std::size_t call = (*calls_)++;
    if (call % 2 == 1) {
      return {rng->Uniform(region.x_min(), region.x_max()),
              rng->Uniform(region.y_min(), region.y_max())};
    }
    return (*spots_)[(call / 2) % spots_->size()];
  }
  std::unique_ptr<MobilityModel> Clone() const override {
    return std::make_unique<ScriptedMobility>(*this);
  }
  std::string ToString() const override { return "Scripted"; }

 private:
  std::shared_ptr<const std::vector<geom::SpacePoint>> spots_;
  std::shared_ptr<std::size_t> calls_;
};

/// Every seam of `grid` and one ulp either side, the region's edges
/// included (so some spots lie just outside it), crossed with each other.
std::vector<geom::SpacePoint> SeamSpots(const geom::Grid& grid) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto probes = [inf](std::vector<double> seams) {
    std::vector<double> v;
    for (const double seam : seams) {
      v.push_back(std::nextafter(seam, -inf));
      v.push_back(seam);
      v.push_back(std::nextafter(seam, inf));
    }
    return v;
  };
  std::vector<double> x_seams, y_seams;
  for (std::uint32_t i = 0; i < grid.CellsPerSide(); ++i) {
    x_seams.push_back(grid.CellRect({i, 0}).x_min());
    y_seams.push_back(grid.CellRect({0, i}).y_min());
  }
  x_seams.push_back(grid.region().x_max());
  y_seams.push_back(grid.region().y_max());
  std::vector<geom::SpacePoint> spots;
  for (const double x : probes(x_seams)) {
    for (const double y : probes(y_seams)) {
      spots.push_back({x, y});
    }
  }
  return spots;
}

TEST(PopulationTest, AlignedSensorsInMatchesLinearScan) {
  const std::pair<geom::Rect, std::uint32_t> grids[] = {
      {geom::Rect(0, 0, 8, 8), 16 * 16},
      {geom::Rect(0, 0, 10, 10), 15 * 15},
      {geom::Rect(-3, 2, 5, 4.5), 9 * 9}};
  for (const auto& [region, h] : grids) {
    const geom::Grid grid = geom::Grid::Make(region, h).MoveValue();
    const ScriptedMobility scripted(SeamSpots(grid));
    for (const std::size_t m : {500u, 5000u}) {
      for (const auto& [aligned, mobile] :
           {std::pair{true, true}, std::pair{false, true},
            std::pair{true, false}}) {
        SCOPED_TRACE(region.ToString() + " h=" + std::to_string(h) +
                     " m=" + std::to_string(m) +
                     (aligned ? " aligned" : " unaligned") +
                     (mobile ? "" : " static"));
        PopulationConfig config = BaseConfig(m);
        config.region = region;
        config.mobility_prototype = mobile ? &scripted : nullptr;
        Rng rng(m + h);
        auto population = SensorPopulation::Make(config, &rng);
        ASSERT_TRUE(population.ok());
        if (aligned) {
          ASSERT_TRUE(population->AlignTo(grid).ok());
        }
        std::vector<geom::Rect> cells;
        for (std::uint32_t q = 0; q < grid.CellsPerSide(); ++q) {
          for (std::uint32_t r = 0; r < grid.CellsPerSide(); ++r) {
            cells.push_back(grid.CellRect({q, r}));
          }
        }
        const std::vector<geom::Rect> rects = ProbeRects(region, m, &rng);
        const std::uint32_t kUntouched = 0xFFFFFFFFu;
        for (int round = 0; round < 4; ++round) {
          for (const geom::Rect& rect : cells) {
            const std::vector<std::size_t> want =
                ScanSensorsIn(*population, rect);
            // Aligned, a cell's sensors are its bucket: the scratch list
            // stays as it was.
            std::vector<std::uint32_t> scratch = {kUntouched};
            const Span<const std::uint32_t> got =
                population->SensorsIn(rect, &scratch);
            ASSERT_EQ(std::vector<std::size_t>(got.begin(), got.end()), want)
                << "round " << round << " cell " << rect.ToString();
            if (aligned) {
              ASSERT_EQ(scratch, std::vector<std::uint32_t>{kUntouched});
            }
            ASSERT_EQ(population->CountIn(rect), want.size());
          }
          for (const geom::Rect& rect : rects) {
            const std::vector<std::size_t> want =
                ScanSensorsIn(*population, rect);
            ASSERT_EQ(ListSensorsIn(*population, rect), want)
                << "round " << round << " rect " << rect.ToString();
            ASSERT_EQ(population->CountIn(rect), want.size())
                << "round " << round << " rect " << rect.ToString();
          }
          for (int step = 0; step < round + 1; ++step) {
            population->Advance(&rng, 1.0);
          }
        }
      }
    }
  }
}

TEST(PopulationTest, AlignToRequiresTheSameRegion) {
  Rng rng(4);
  auto population = SensorPopulation::Make(BaseConfig(100), &rng);
  ASSERT_TRUE(population.ok());
  for (const geom::Rect& other :
       {geom::Rect(0, 0, 10, 10.5), geom::Rect(-1, 0, 10, 10),
        geom::Rect(0, 0, 5, 5)}) {
    const geom::Grid grid = geom::Grid::Make(other, 16).MoveValue();
    EXPECT_EQ(population->AlignTo(grid).code(), StatusCode::kInvalidArgument)
        << other.ToString();
  }
  const geom::Grid same = geom::Grid::Make(kRegion, 25).MoveValue();
  EXPECT_TRUE(population->AlignTo(same).ok());
  EXPECT_EQ(population->CountIn(same.CellRect({2, 3})),
            ScanSensorsIn(*population, same.CellRect({2, 3})).size());
}

}  // namespace
}  // namespace sensing
}  // namespace craqr
