#include "sensing/world.h"

#include <cmath>

#include "common/macros.h"

namespace craqr {
namespace sensing {

Result<CrowdWorld> CrowdWorld::Make(SensorPopulation population, Rng rng) {
  return CrowdWorld(std::move(population), rng);
}

Result<ops::AttributeId> CrowdWorld::RegisterAttribute(
    std::string name, bool human_sensed, FieldPtr field,
    const ResponseBehavior& behavior) {
  if (name.empty()) {
    return Status::InvalidArgument("attribute name must not be empty");
  }
  if (field == nullptr) {
    return Status::InvalidArgument("attribute requires a phenomenon field");
  }
  for (const auto& existing : attributes_) {
    if (existing.name == name) {
      return Status::AlreadyExists("attribute '" + name +
                                   "' is already registered");
    }
  }
  CRAQR_ASSIGN_OR_RETURN(ResponseModel model, ResponseModel::Make(behavior));
  attributes_.push_back(
      AttributeSpec{static_cast<ops::AttributeId>(attributes_.size()),
                    std::move(name), human_sensed, std::move(field), model});
  return attributes_.back().id;
}

Result<ops::AttributeId> CrowdWorld::AttributeIdByName(
    const std::string& name) const {
  for (const auto& spec : attributes_) {
    if (spec.name == name) {
      return spec.id;
    }
  }
  return Status::NotFound("attribute '" + name + "' is not registered");
}

Result<AttributeSpec> CrowdWorld::GetAttribute(ops::AttributeId id) const {
  if (id >= attributes_.size()) {
    return Status::NotFound("attribute id " + std::to_string(id) +
                            " is not registered");
  }
  return attributes_[id];
}

std::size_t CrowdWorld::AvailableSensors(const geom::Rect& region) const {
  return population_.CountIn(region);
}

Result<std::vector<ops::Tuple>> CrowdWorld::SendRequests(
    const AcquisitionRequest& request) {
  if (request.attribute >= attributes_.size()) {
    return Status::NotFound("attribute id " +
                            std::to_string(request.attribute) +
                            " is not registered");
  }
  const AttributeSpec& spec = attributes_[request.attribute];

  std::vector<ops::Tuple> responses;
  if (request.count == 0) {
    return responses;
  }
  const Span<const std::uint32_t> candidates =
      population_.SensorsIn(request.region, &candidates_);
  if (candidates.empty()) {
    return responses;  // nobody around to ask
  }

  // Paper Section IV-A: "Mobile sensors are sampled with or without
  // replacement, depending on the number of mobile sensors available."
  if (request.count <= candidates.size()) {
    rng_.SampleWithoutReplacement(candidates.size(), request.count, &picks_);
  } else {
    rng_.SampleWithReplacement(candidates.size(), request.count, &picks_);
  }
  total_requests_sent_ += picks_.size();

  responses.reserve(picks_.size());
  for (const std::uint64_t pick : picks_) {
    const Sensor& sensor =
        population_.sensor(candidates[static_cast<std::size_t>(pick)]);
    if (!spec.model.WillRespond(&rng_, request.incentive,
                                sensor.responsiveness_bias)) {
      continue;  // declined / ignored the request
    }
    const double delay = spec.model.ResponseDelay(&rng_);
    const double stagger = request.response_spread > 0.0
                               ? rng_.Uniform(0.0, request.response_spread)
                               : 0.0;
    const double arrival = request.now + stagger + delay;
    // The sensor may drift a little between request and response; jitter
    // its reported position accordingly and keep it inside the region R.
    const double drift_sigma = 0.02 * std::sqrt(delay);
    geom::SpacePoint reported{
        sensor.position.x + rng_.Normal(0.0, drift_sigma),
        sensor.position.y + rng_.Normal(0.0, drift_sigma)};
    reported = ReflectIntoRect(reported, population_.region());

    ops::Tuple tuple;
    tuple.id = next_tuple_id_++;
    tuple.attribute = spec.id;
    tuple.point = geom::SpaceTimePoint{arrival, reported.x, reported.y};
    // Convert the field's boundary variant into the compact payload at the
    // production edge: string observations intern into the global
    // ValuePool once, and everything downstream moves 12-byte handles.
    tuple.value = ops::MakePayload(spec.field->Observe(
        &rng_, geom::SpaceTimePoint{arrival, reported.x, reported.y}));
    tuple.sensor_id = sensor.id;
    responses.push_back(tuple);
    ++total_responses_;
  }
  return responses;
}

}  // namespace sensing
}  // namespace craqr
