#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/span.h"
#include "common/status.h"
#include "geometry/grid.h"
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
  const geom::Rect& region() const { return buckets_.region(); }

  /// Sensor accessor; index < size().
  const Sensor& sensor(std::size_t index) const { return sensors_[index]; }

  /// Moves every sensor forward by `dt` minutes and rebuilds the sensor
  /// index, unless no sensor has a mobility model.
  void Advance(Rng* rng, double dt);

  /// \brief Re-buckets the sensor index on the cells of `grid`, which must
  /// cover exactly this population's region (InvalidArgument otherwise).
  ///
  /// Afterwards a SensorsIn/CountIn rect equal to one of the grid's
  /// CellRects is answered straight from that cell's bucket. The engine
  /// aligns its world to its own grid, so every per-cell request the
  /// handler makes takes that path.
  Status AlignTo(const geom::Grid& grid);

  /// Indices of sensors currently inside `rect`, ascending: exactly the
  /// sensors a scan of every position with `rect.Contains` would find, in
  /// the order it would find them. When `rect` is exactly one bucket's
  /// CellRect the view is that bucket, with no copy; otherwise the index
  /// visits the buckets `rect` covers and fills `scratch`. The view lives
  /// until the next Advance, AlignTo or SensorsIn call on `scratch`.
  Span<const std::uint32_t> SensorsIn(
      const geom::Rect& rect, std::vector<std::uint32_t>* scratch) const;

  /// Count of sensors currently inside `rect`: the size of SensorsIn.
  std::size_t CountIn(const geom::Rect& rect) const;

 private:
  SensorPopulation(std::vector<Sensor> sensors, const geom::Grid& buckets);

  /// Counting-sorts the sensor indices into the buckets by current
  /// position. O(m); reuses the index storage.
  void RebuildIndex();

  /// The bucket whose CellRect equals `rect`, or NumCells() when none does.
  std::uint32_t BucketMatching(const geom::Rect& rect) const;

  /// Members of bucket b, ascending.
  Span<const std::uint32_t> Bucket(std::uint32_t b) const {
    return {bucket_items_.data() + bucket_start_[b],
            bucket_start_[b + 1] - bucket_start_[b]};
  }

  /// Calls `visit(i)` for every sensor i inside `rect`, bucket by bucket.
  template <typename Visit>
  void ForEachIn(const geom::Rect& rect, Visit visit) const;

  std::vector<Sensor> sensors_;

  // Sensor index: one bucket per cell of `buckets_`, a grid over R of
  // about eight sensors a cell until AlignTo puts it on the engine's grid,
  // plus one last bucket for positions outside R. A sensor's bucket is
  // exactly the cell whose CellRect contains it (Grid::CellContaining is
  // seam-exact). Positions change only in Make and Advance, and both
  // rebuild it (Advance only when some sensor has a mobility model).
  // Bucket b = FlatIndex(q, r) holds sensor indices
  // bucket_items_[bucket_start_[b], bucket_start_[b + 1]), ascending, so a
  // column's run of rows is one contiguous range.
  geom::Grid buckets_;
  std::vector<std::uint32_t> bucket_start_;
  std::vector<std::uint32_t> bucket_items_;
};

}  // namespace sensing
}  // namespace craqr
