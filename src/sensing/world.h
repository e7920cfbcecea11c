#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "geometry/rect.h"
#include "ops/tuple.h"
#include "sensing/phenomena.h"
#include "sensing/population.h"
#include "sensing/response.h"

/// \file world.h
/// \brief The crowd of mobile sensors the request/response handler talks
/// to, plus the attribute registry A<1>..A<k> (paper Section II).
///
/// The paper assumes "mobile sensors have agreed to share all the
/// information required for processing queries with a central server".
/// `CrowdWorld` simulates that central server's view: it owns the sensor
/// population, the registered attributes with their phenomena fields and
/// response behaviours, and answers acquisition requests with (possibly
/// delayed, possibly missing) crowdsensed tuples.

namespace craqr {
namespace sensing {

/// \brief A registered attribute A<j>.
struct AttributeSpec {
  ops::AttributeId id = 0;
  std::string name;
  /// Human-sensed attributes ("is it raining?") are slow and incentive-
  /// sensitive; sensor-sensed attributes ("temperature") are fast and
  /// near-certain.
  bool human_sensed = false;
  FieldPtr field;
  /// The attribute's response behaviour, validated once at registration.
  ResponseModel model;
};

/// \brief One acquisition request from the request/response handler: ask
/// `count` randomly selected sensors inside `region` to observe
/// `attribute`, offering `incentive` per response, at time `now`.
struct AcquisitionRequest {
  ops::AttributeId attribute = 0;
  geom::Rect region;
  std::size_t count = 0;
  double incentive = 0.0;
  double now = 0.0;
  /// Requests are staggered uniformly over [now, now + response_spread):
  /// the handler spaces its per-round requests across the dispatch
  /// interval instead of firing them all in one instant.
  double response_spread = 0.0;
};

/// \brief Abstract mobile-sensor network (the "crowd side" of paper
/// Fig. 1). The simulator implements it; a deployment would put a real
/// device fleet behind the same interface.
class MobileSensorNetwork {
 public:
  virtual ~MobileSensorNetwork() = default;

  /// Dispatches one acquisition request and returns the responses that
  /// will eventually arrive. Each tuple's time coordinate is its *arrival*
  /// time `now + response delay`; the caller is responsible for not
  /// consuming tuples before they arrive. Fewer tuples than `count` may be
  /// returned (non-response).
  virtual Result<std::vector<ops::Tuple>> SendRequests(
      const AcquisitionRequest& request) = 0;

  /// Number of sensors currently inside `region` (the handler uses this to
  /// decide sampling with vs without replacement).
  virtual std::size_t AvailableSensors(const geom::Rect& region) const = 0;
};

/// \brief Simulated crowd: population + attributes + response draws.
class CrowdWorld final : public MobileSensorNetwork {
 public:
  /// Creates a world over a population; `rng` seeds the world's private
  /// stream.
  static Result<CrowdWorld> Make(SensorPopulation population, Rng rng);

  /// Registers an attribute and returns its id. Names must be unique.
  Result<ops::AttributeId> RegisterAttribute(std::string name,
                                             bool human_sensed,
                                             FieldPtr field,
                                             const ResponseBehavior& behavior);

  /// Looks up an attribute id by name.
  Result<ops::AttributeId> AttributeIdByName(const std::string& name) const;

  /// Attribute metadata; id must be registered.
  Result<AttributeSpec> GetAttribute(ops::AttributeId id) const;

  /// Number of registered attributes.
  std::size_t NumAttributes() const { return attributes_.size(); }

  // MobileSensorNetwork:
  Result<std::vector<ops::Tuple>> SendRequests(
      const AcquisitionRequest& request) override;
  std::size_t AvailableSensors(const geom::Rect& region) const override;

  /// Moves the crowd forward by `dt` minutes.
  void Advance(double dt) { population_.Advance(&rng_, dt); }

  /// Aligns the population's sensor index to `grid` (see
  /// SensorPopulation::AlignTo), so a request for one of its cells reads
  /// the cell's sensors directly.
  Status AlignTo(const geom::Grid& grid) { return population_.AlignTo(grid); }

  /// The sensor population.
  const SensorPopulation& population() const { return population_; }

  /// Total acquisition requests dispatched (cost metric of experiment E7).
  std::uint64_t total_requests_sent() const { return total_requests_sent_; }

  /// Total responses produced.
  std::uint64_t total_responses() const { return total_responses_; }

 private:
  CrowdWorld(SensorPopulation population, Rng rng)
      : population_(std::move(population)), rng_(rng) {}

  SensorPopulation population_;
  Rng rng_;
  std::vector<AttributeSpec> attributes_;
  /// Per-request scratch, reused: the candidate list when a request's
  /// region is not one index bucket, and the sampled positions in it.
  std::vector<std::uint32_t> candidates_;
  std::vector<std::uint64_t> picks_;
  std::uint64_t next_tuple_id_ = 0;
  std::uint64_t total_requests_sent_ = 0;
  std::uint64_t total_responses_ = 0;
};

}  // namespace sensing
}  // namespace craqr
