#include "sensing/population.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace craqr {
namespace sensing {

namespace {

Result<geom::SpacePoint> SamplePlacement(const PopulationConfig& config,
                                         Rng* rng) {
  const geom::Rect& region = config.region;
  if (config.placement == PlacementKind::kUniform) {
    return geom::SpacePoint{rng->Uniform(region.x_min(), region.x_max()),
                            rng->Uniform(region.y_min(), region.y_max())};
  }
  // Rejection sampling against the placement intensity at t = 0.
  const pp::SpaceTimeWindow window{0.0, 1.0, region};
  const double bound = config.placement_intensity->UpperBound(window);
  if (!(bound > 0.0) || !std::isfinite(bound)) {
    return Status::InvalidArgument(
        "placement intensity must have a positive finite upper bound");
  }
  for (int attempt = 0; attempt < 100000; ++attempt) {
    const geom::SpacePoint candidate{
        rng->Uniform(region.x_min(), region.x_max()),
        rng->Uniform(region.y_min(), region.y_max())};
    const double rate = config.placement_intensity->Rate(
        geom::SpaceTimePoint{0.0, candidate.x, candidate.y});
    if (rng->Bernoulli(rate / bound)) {
      return candidate;
    }
  }
  return Status::Internal(
      "placement rejection sampling failed to accept after 1e5 attempts "
      "(intensity nearly zero everywhere?)");
}

/// Target sensors per index bucket.
constexpr double kBucketOccupancy = 8.0;

/// Bucket column (or row) of coordinate `v` on a side starting at `lo`
/// with `scale` buckets per km, clamped to [0, side). Monotone in `v`, so
/// a rect's edge buckets bound the buckets of every point it contains.
/// Values before the side's start, -inf and NaN take bucket 0 and values
/// past its end (+inf too) the last one, through comparisons: only a
/// finite t in (0, side) reaches the cast.
std::uint32_t BucketSlot(double v, double lo, double scale,
                         std::uint32_t side) {
  const double t = (v - lo) * scale;
  if (!(t > 0.0)) {
    return 0;
  }
  if (!(t < static_cast<double>(side))) {
    return side - 1;
  }
  return static_cast<std::uint32_t>(t);
}

/// Sorts `v` ascending; every value is below `bound`. SensorsIn gathers
/// its matches as about twenty ascending bucket runs interleaved at random,
/// on which a comparison sort mispredicts most branches: std::sort took
/// 2.7 us for 80 indices below 20 000, this LSD radix sort on 8-bit digits
/// (two passes there) 0.9 us.
void SortIndices(std::vector<std::size_t>* v, std::size_t bound) {
  std::vector<std::size_t> scratch(v->size());
  for (unsigned shift = 0; shift < 64 && ((bound - 1) >> shift) != 0;
       shift += 8) {
    std::size_t start[257] = {};
    for (const std::size_t x : *v) {
      ++start[((x >> shift) & 0xFF) + 1];
    }
    for (std::size_t d = 1; d < 257; ++d) {
      start[d] += start[d - 1];
    }
    for (const std::size_t x : *v) {
      scratch[start[(x >> shift) & 0xFF]++] = x;
    }
    v->swap(scratch);
  }
}

}  // namespace

Result<SensorPopulation> SensorPopulation::Make(const PopulationConfig& config,
                                                Rng* rng) {
  if (rng == nullptr) {
    return Status::InvalidArgument("rng must not be null");
  }
  if (config.region.IsEmpty()) {
    return Status::InvalidArgument("population region must have positive area");
  }
  if (config.num_sensors == 0) {
    return Status::InvalidArgument("population requires at least one sensor");
  }
  if (config.placement == PlacementKind::kIntensity &&
      config.placement_intensity == nullptr) {
    return Status::InvalidArgument(
        "intensity placement requires a placement_intensity");
  }
  if (!(config.responsiveness_sigma >= 0.0)) {
    return Status::InvalidArgument("responsiveness sigma must be >= 0");
  }
  if (config.num_sensors > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument("population is limited to 2^32 - 1 sensors");
  }

  std::vector<Sensor> sensors;
  sensors.reserve(config.num_sensors);
  for (std::size_t i = 0; i < config.num_sensors; ++i) {
    Sensor sensor;
    sensor.id = i;
    auto position = SamplePlacement(config, rng);
    if (!position.ok()) {
      return position.status();
    }
    sensor.position = position.MoveValue();
    sensor.responsiveness_bias =
        rng->Normal(0.0, config.responsiveness_sigma);
    if (config.mobility_prototype != nullptr) {
      sensor.mobility = config.mobility_prototype->Clone();
    }
    sensors.push_back(std::move(sensor));
  }
  return SensorPopulation(config.region, std::move(sensors));
}

SensorPopulation::SensorPopulation(geom::Rect region,
                                   std::vector<Sensor> sensors)
    : region_(region), sensors_(std::move(sensors)) {
  side_ = static_cast<std::uint32_t>(std::max(
      1.0, std::floor(std::sqrt(static_cast<double>(sensors_.size()) /
                                kBucketOccupancy))));
  x_scale_ = static_cast<double>(side_) / region_.Width();
  y_scale_ = static_cast<double>(side_) / region_.Height();
  bucket_start_.resize(static_cast<std::size_t>(side_) * side_ + 1);
  bucket_items_.resize(sensors_.size());
  RebuildIndex();
}

void SensorPopulation::Advance(Rng* rng, double dt) {
  for (auto& sensor : sensors_) {
    if (sensor.mobility != nullptr) {
      sensor.position = sensor.mobility->Step(rng, sensor.position, dt, region_);
    }
  }
  RebuildIndex();
}

std::uint32_t SensorPopulation::BucketOf(const geom::SpacePoint& p) const {
  return BucketSlot(p.x, region_.x_min(), x_scale_, side_) * side_ +
         BucketSlot(p.y, region_.y_min(), y_scale_, side_);
}

void SensorPopulation::RebuildIndex() {
  const std::size_t buckets = bucket_start_.size() - 1;
  std::fill(bucket_start_.begin(), bucket_start_.end(), 0u);
  for (const Sensor& sensor : sensors_) {
    ++bucket_start_[BucketOf(sensor.position)];
  }
  // Inclusive prefix sums leave bucket_start_[b] at the end of bucket b;
  // placing indices from the highest down then walks each back to its
  // bucket's start and leaves every bucket ascending.
  for (std::size_t b = 1; b < buckets; ++b) {
    bucket_start_[b] += bucket_start_[b - 1];
  }
  const auto m = static_cast<std::uint32_t>(sensors_.size());
  bucket_start_[buckets] = m;
  for (std::uint32_t i = m; i-- > 0;) {
    bucket_items_[--bucket_start_[BucketOf(sensors_[i].position)]] = i;
  }
}

template <typename Visit>
void SensorPopulation::ForEachIn(const geom::Rect& rect, Visit visit) const {
  const std::uint32_t x_lo =
      BucketSlot(rect.x_min(), region_.x_min(), x_scale_, side_);
  const std::uint32_t x_hi =
      BucketSlot(rect.x_max(), region_.x_min(), x_scale_, side_);
  const std::uint32_t y_lo =
      BucketSlot(rect.y_min(), region_.y_min(), y_scale_, side_);
  const std::uint32_t y_hi =
      BucketSlot(rect.y_max(), region_.y_min(), y_scale_, side_);
  for (std::uint32_t column = x_lo; column <= x_hi; ++column) {
    const std::uint32_t first = bucket_start_[column * side_ + y_lo];
    const std::uint32_t last = bucket_start_[column * side_ + y_hi + 1];
    for (std::uint32_t k = first; k < last; ++k) {
      const std::uint32_t i = bucket_items_[k];
      if (rect.Contains(sensors_[i].position)) {
        visit(i);
      }
    }
  }
}

std::vector<std::size_t> SensorPopulation::SensorsIn(
    const geom::Rect& rect) const {
  std::vector<std::size_t> indices;
  ForEachIn(rect, [&indices](std::uint32_t i) { indices.push_back(i); });
  // Buckets are visited column by column; ascending order is what makes
  // sampling from the list pick what the linear scan's list would.
  SortIndices(&indices, sensors_.size());
  return indices;
}

std::size_t SensorPopulation::CountIn(const geom::Rect& rect) const {
  std::size_t count = 0;
  ForEachIn(rect, [&count](std::uint32_t) { ++count; });
  return count;
}

}  // namespace sensing
}  // namespace craqr
