#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "pointprocess/intensity.h"
#include "sensing/mobility.h"

/// \file population.h
/// \brief The population of m mobile sensors s_1..s_m in region R
/// (paper Section II).

namespace craqr {
namespace sensing {

/// \brief How initial sensor positions are drawn.
enum class PlacementKind {
  /// Uniform over the region.
  kUniform,
  /// Rejection-sampled from a spatial intensity (hotspot placement) — the
  /// skewed crowd distribution the paper's introduction describes.
  kIntensity,
};

/// \brief Population construction parameters.
struct PopulationConfig {
  /// The region R all sensors live in.
  geom::Rect region;
  /// Number of mobile sensors m.
  std::size_t num_sensors = 100;
  /// Placement of initial positions.
  PlacementKind placement = PlacementKind::kUniform;
  /// Spatial placement density; required when placement == kIntensity
  /// (evaluated at t = 0).
  pp::IntensityPtr placement_intensity;
  /// Mobility prototype cloned for every sensor; nullptr = static sensors.
  const MobilityModel* mobility_prototype = nullptr;
  /// Stddev of per-sensor responsiveness bias (logit scale); models
  /// heterogeneous willingness to participate.
  double responsiveness_sigma = 0.5;
};

/// \brief One mobile sensor.
struct Sensor {
  std::uint64_t id = 0;
  geom::SpacePoint position;
  /// Per-sensor additive logit bias for response probability.
  double responsiveness_bias = 0.0;
  /// Per-sensor mobility state.
  std::unique_ptr<MobilityModel> mobility;
};

/// \brief Owns and advances the mobile-sensor population.
class SensorPopulation {
 public:
  /// Validating factory; see PopulationConfig. Consumes randomness from
  /// `rng` for placement and heterogeneity.
  static Result<SensorPopulation> Make(const PopulationConfig& config,
                                       Rng* rng);

  /// Number of sensors m.
  std::size_t size() const { return sensors_.size(); }

  /// The region R.
  const geom::Rect& region() const { return region_; }

  /// Sensor accessor; index < size().
  const Sensor& sensor(std::size_t index) const { return sensors_[index]; }

  /// Moves every sensor forward by `dt` minutes and rebuilds the sensor
  /// index.
  void Advance(Rng* rng, double dt);

  /// Indices of sensors currently inside `rect`, ascending: exactly the
  /// sensors a scan of every position with `rect.Contains` would find, in
  /// the order it would find them. Visits only the index buckets that
  /// `rect` covers.
  std::vector<std::size_t> SensorsIn(const geom::Rect& rect) const;

  /// Count of sensors currently inside `rect`; SensorsIn(rect).size().
  std::size_t CountIn(const geom::Rect& rect) const;

 private:
  SensorPopulation(geom::Rect region, std::vector<Sensor> sensors);

  /// Index bucket of a position.
  std::uint32_t BucketOf(const geom::SpacePoint& p) const;

  /// Counting-sorts the sensor indices into the bucket grid by current
  /// position. O(m); reuses the index storage.
  void RebuildIndex();

  /// Calls `visit(i)` for every sensor i inside `rect`, bucket by bucket.
  template <typename Visit>
  void ForEachIn(const geom::Rect& rect, Visit visit) const;

  geom::Rect region_;
  std::vector<Sensor> sensors_;

  // Sensor index: a uniform grid of side_ x side_ buckets over region_
  // (about eight sensors a bucket). Positions change only in Make and
  // Advance, and both rebuild it. Bucket b = column * side_ + row holds
  // sensor indices bucket_items_[bucket_start_[b], bucket_start_[b + 1]),
  // ascending, so a column's run of rows is one contiguous range.
  std::uint32_t side_ = 1;
  /// Buckets per km along x and y.
  double x_scale_ = 0.0;
  double y_scale_ = 0.0;
  std::vector<std::uint32_t> bucket_start_;
  std::vector<std::uint32_t> bucket_items_;
};

}  // namespace sensing
}  // namespace craqr
