#include "sensing/mobility.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace craqr {
namespace sensing {

geom::SpacePoint ReflectIntoRect(geom::SpacePoint p,
                                 const geom::Rect& region) {
  const auto reflect = [](double v, double lo, double hi) {
    const double span = hi - lo;
    if (span <= 0.0) {
      return lo;
    }
    // Fold the coordinate into a period of 2*span, then mirror. Inside the
    // first period fmod(d, 2*span) is d exactly (-0.0 included), so the
    // common case skips the call.
    const double d = v - lo;
    double offset = d >= 0.0 && d < 2.0 * span ? d : std::fmod(d, 2.0 * span);
    if (offset < 0.0) {
      offset += 2.0 * span;
    }
    if (offset > span) {
      offset = 2.0 * span - offset;
    }
    // Keep strictly inside the half-open rect: a fold landing on hi (or
    // rounding past it) takes the largest double below hi, lo < hi. That
    // is min(reflected, nextafter(hi, lo)) bit for bit, NaN included, with
    // the libm call left to the rare fold that needs it.
    const double reflected = lo + offset;
    return reflected >= hi ? std::nextafter(hi, lo) : reflected;
  };
  return geom::SpacePoint{
      reflect(p.x, region.x_min(), region.x_max()),
      reflect(p.y, region.y_min(), region.y_max())};
}

// ---------------------------------------------------------------------------
// StaticMobility

geom::SpacePoint StaticMobility::Step(Rng* rng,
                                      const geom::SpacePoint& position,
                                      double dt, const geom::Rect& region) {
  (void)rng;
  (void)dt;
  return ReflectIntoRect(position, region);
}

std::unique_ptr<MobilityModel> StaticMobility::Clone() const {
  return std::make_unique<StaticMobility>(*this);
}

// ---------------------------------------------------------------------------
// GaussianWalkMobility

Result<std::unique_ptr<MobilityModel>> GaussianWalkMobility::Make(
    double sigma) {
  if (!(sigma >= 0.0) || !std::isfinite(sigma)) {
    return Status::InvalidArgument("gaussian walk sigma must be >= 0");
  }
  return std::unique_ptr<MobilityModel>(new GaussianWalkMobility(sigma));
}

geom::SpacePoint GaussianWalkMobility::Step(Rng* rng,
                                            const geom::SpacePoint& position,
                                            double dt,
                                            const geom::Rect& region) {
  const double scale = sigma_ * std::sqrt(std::max(dt, 0.0));
  const geom::SpacePoint moved{position.x + rng->Normal(0.0, scale),
                               position.y + rng->Normal(0.0, scale)};
  return ReflectIntoRect(moved, region);
}

std::unique_ptr<MobilityModel> GaussianWalkMobility::Clone() const {
  return std::unique_ptr<MobilityModel>(new GaussianWalkMobility(*this));
}

std::string GaussianWalkMobility::ToString() const {
  std::ostringstream os;
  os << "GaussianWalk(sigma=" << sigma_ << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// RandomWaypointMobility

Result<std::unique_ptr<MobilityModel>> RandomWaypointMobility::Make(
    double v_min, double v_max) {
  if (!(v_min > 0.0) || !(v_max >= v_min) || !std::isfinite(v_max)) {
    return Status::InvalidArgument(
        "random waypoint requires 0 < v_min <= v_max");
  }
  return std::unique_ptr<MobilityModel>(
      new RandomWaypointMobility(v_min, v_max));
}

geom::SpacePoint RandomWaypointMobility::Step(
    Rng* rng, const geom::SpacePoint& position, double dt,
    const geom::Rect& region) {
  geom::SpacePoint current = ReflectIntoRect(position, region);
  double remaining = std::max(dt, 0.0);
  while (remaining > 0.0) {
    if (!has_target_) {
      target_ = geom::SpacePoint{
          rng->Uniform(region.x_min(), region.x_max()),
          rng->Uniform(region.y_min(), region.y_max())};
      speed_ = rng->Uniform(v_min_, v_max_);
      has_target_ = true;
    }
    const double dx = target_.x - current.x;
    const double dy = target_.y - current.y;
    const double distance = std::hypot(dx, dy);
    const double reachable = speed_ * remaining;
    if (reachable >= distance || distance < 1e-12) {
      // Arrive and pick a new waypoint with the leftover time.
      current = target_;
      has_target_ = false;
      remaining -= distance / std::max(speed_, 1e-12);
      if (distance < 1e-12) {
        break;  // degenerate: already at the target
      }
    } else {
      const double f = reachable / distance;
      current = geom::SpacePoint{current.x + f * dx, current.y + f * dy};
      remaining = 0.0;
    }
  }
  return ReflectIntoRect(current, region);
}

std::unique_ptr<MobilityModel> RandomWaypointMobility::Clone() const {
  auto copy =
      std::unique_ptr<RandomWaypointMobility>(new RandomWaypointMobility(*this));
  copy->has_target_ = false;  // fresh state for the new sensor
  return copy;
}

std::string RandomWaypointMobility::ToString() const {
  std::ostringstream os;
  os << "RandomWaypoint(v=" << v_min_ << ".." << v_max_ << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// LevyFlightMobility

Result<std::unique_ptr<MobilityModel>> LevyFlightMobility::Make(
    double scale, double alpha, double max_step) {
  if (!(scale > 0.0) || !(alpha > 0.0) || !(max_step >= scale)) {
    return Status::InvalidArgument(
        "levy flight requires scale > 0, alpha > 0, max_step >= scale");
  }
  return std::unique_ptr<MobilityModel>(
      new LevyFlightMobility(scale, alpha, max_step));
}

geom::SpacePoint LevyFlightMobility::Step(Rng* rng,
                                          const geom::SpacePoint& position,
                                          double dt,
                                          const geom::Rect& region) {
  const double raw = rng->Pareto(scale_, alpha_);
  const double length = std::min(raw, max_step_) * std::max(dt, 0.0);
  const double angle = rng->Uniform(0.0, 2.0 * M_PI);
  const geom::SpacePoint moved{position.x + length * std::cos(angle),
                               position.y + length * std::sin(angle)};
  return ReflectIntoRect(moved, region);
}

std::unique_ptr<MobilityModel> LevyFlightMobility::Clone() const {
  return std::unique_ptr<MobilityModel>(new LevyFlightMobility(*this));
}

std::string LevyFlightMobility::ToString() const {
  std::ostringstream os;
  os << "LevyFlight(scale=" << scale_ << ", alpha=" << alpha_ << ")";
  return os.str();
}

}  // namespace sensing
}  // namespace craqr
