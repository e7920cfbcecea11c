#include "sensing/population.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"

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

/// Target sensors per index bucket before the index is aligned to a grid.
constexpr double kBucketOccupancy = 8.0;

/// Sorts `v` ascending; every value is below `bound`. The general
/// SensorsIn path gathers its matches as about twenty ascending bucket runs
/// interleaved at random, on which a comparison sort mispredicts most
/// branches: std::sort took 2.7 us for 80 indices below 20 000, this LSD
/// radix sort on 8-bit digits (two passes there) 0.9 us.
void SortIndices(std::vector<std::uint32_t>* v, std::size_t bound) {
  std::vector<std::uint32_t> scratch(v->size());
  for (unsigned shift = 0; shift < 32 && ((bound - 1) >> shift) != 0;
       shift += 8) {
    std::size_t start[257] = {};
    for (const std::uint32_t x : *v) {
      ++start[((x >> shift) & 0xFF) + 1];
    }
    for (std::size_t d = 1; d < 257; ++d) {
      start[d] += start[d - 1];
    }
    for (const std::uint32_t x : *v) {
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
  const auto side = static_cast<std::uint32_t>(std::max(
      1.0, std::floor(std::sqrt(static_cast<double>(config.num_sensors) /
                                kBucketOccupancy))));
  CRAQR_ASSIGN_OR_RETURN(geom::Grid buckets,
                         geom::Grid::Make(config.region, side * side));
  return SensorPopulation(std::move(sensors), buckets);
}

SensorPopulation::SensorPopulation(std::vector<Sensor> sensors,
                                   const geom::Grid& buckets)
    : sensors_(std::move(sensors)),
      buckets_(buckets),
      bucket_items_(sensors_.size()) {
  RebuildIndex();
}

void SensorPopulation::Advance(Rng* rng, double dt) {
  bool moved = false;
  for (auto& sensor : sensors_) {
    if (sensor.mobility != nullptr) {
      sensor.position =
          sensor.mobility->Step(rng, sensor.position, dt, region());
      moved = true;
    }
  }
  if (moved) {
    RebuildIndex();  // a crowd with no mobility keeps its buckets as they are
  }
}

Status SensorPopulation::AlignTo(const geom::Grid& grid) {
  if (!(grid.region() == region())) {
    return Status::InvalidArgument("cannot align the sensor index of " +
                                   region().ToString() + " to a grid over " +
                                   grid.region().ToString());
  }
  buckets_ = grid;
  RebuildIndex();
  return Status::OK();
}

void SensorPopulation::RebuildIndex() {
  // One bucket per cell, then bucket NumCells() for positions outside the
  // region, which no cell's CellRect contains.
  const std::uint32_t outside = buckets_.NumCells();
  const auto bucket_of = [this, outside](std::uint32_t i) {
    const geom::SpacePoint& p = sensors_[i].position;
    const auto cell = buckets_.CellContaining(p.x, p.y);
    return cell.has_value() ? buckets_.FlatIndex(*cell) : outside;
  };
  bucket_start_.assign(static_cast<std::size_t>(outside) + 2, 0u);
  const auto m = static_cast<std::uint32_t>(sensors_.size());
  for (std::uint32_t i = 0; i < m; ++i) {
    ++bucket_start_[bucket_of(i)];
  }
  // Inclusive prefix sums leave bucket_start_[b] at the end of bucket b;
  // placing indices from the highest down then walks each back to its
  // bucket's start and leaves every bucket ascending. Each bucket is looked
  // up again rather than kept from the first pass: keeping m keys (4 bytes
  // a sensor) read about 5% more peak RSS on a 20 000-sensor engine run.
  for (std::uint32_t b = 1; b <= outside; ++b) {
    bucket_start_[b] += bucket_start_[b - 1];
  }
  bucket_start_[outside + 1] = m;
  for (std::uint32_t i = m; i-- > 0;) {
    bucket_items_[--bucket_start_[bucket_of(i)]] = i;
  }
}

std::uint32_t SensorPopulation::BucketMatching(const geom::Rect& rect) const {
  const geom::CellIndex cell{buckets_.ClampedColumn(rect.x_min()),
                             buckets_.ClampedRow(rect.y_min())};
  return rect == buckets_.CellRect(cell) ? buckets_.FlatIndex(cell)
                                         : buckets_.NumCells();
}

template <typename Visit>
void SensorPopulation::ForEachIn(const geom::Rect& rect, Visit visit) const {
  const auto visit_contained = [&](std::uint32_t first, std::uint32_t last) {
    for (std::uint32_t k = first; k < last; ++k) {
      const std::uint32_t i = bucket_items_[k];
      if (rect.Contains(sensors_[i].position)) {
        visit(i);
      }
    }
  };
  // Clamped lookups are monotone, so the edge cells of `rect` bound the
  // cells of every in-region point it contains.
  const std::uint32_t x_lo = buckets_.ClampedColumn(rect.x_min());
  const std::uint32_t x_hi = buckets_.ClampedColumn(rect.x_max());
  const std::uint32_t y_lo = buckets_.ClampedRow(rect.y_min());
  const std::uint32_t y_hi = buckets_.ClampedRow(rect.y_max());
  for (std::uint32_t q = x_lo; q <= x_hi; ++q) {
    visit_contained(bucket_start_[buckets_.FlatIndex({q, y_lo})],
                    bucket_start_[buckets_.FlatIndex({q, y_hi}) + 1]);
  }
  const std::uint32_t outside = buckets_.NumCells();
  visit_contained(bucket_start_[outside], bucket_start_[outside + 1]);
}

Span<const std::uint32_t> SensorPopulation::SensorsIn(
    const geom::Rect& rect, std::vector<std::uint32_t>* scratch) const {
  const std::uint32_t b = BucketMatching(rect);
  if (b != buckets_.NumCells()) {
    return Bucket(b);  // exactly the sensors CellRect(b) contains
  }
  scratch->clear();
  ForEachIn(rect, [scratch](std::uint32_t i) { scratch->push_back(i); });
  // Buckets are visited column by column; ascending order is what makes
  // sampling from the list pick what the linear scan's list would.
  SortIndices(scratch, sensors_.size());
  return {scratch->data(), scratch->size()};
}

std::size_t SensorPopulation::CountIn(const geom::Rect& rect) const {
  const std::uint32_t b = BucketMatching(rect);
  if (b != buckets_.NumCells()) {
    return Bucket(b).size();
  }
  std::size_t count = 0;
  ForEachIn(rect, [&count](std::uint32_t) { ++count; });
  return count;
}

}  // namespace sensing
}  // namespace craqr
