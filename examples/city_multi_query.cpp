/// \file city_multi_query.cpp
/// \brief Many simultaneous acquisitional queries sharing one topology.
///
/// A city operations centre runs a mixed dashboard: city-wide temperature,
/// a downtown high-resolution temperature pane, an air-quality pane near
/// the industrial district, and a rain pane. Queries come and go at run
/// time; the fabricator shares F operators, keeps T chains sorted and
/// merged, and evicts cell topologies when the last query leaves — the
/// full Section-V life cycle.
///
///   $ ./example_city_multi_query

#include <cstdio>

#include "common/rng.h"
#include "core/cost.h"
#include "core/engine.h"

int main() {
  using namespace craqr;  // NOLINT

  const geom::Rect city(0, 0, 8, 8);
  sensing::PopulationConfig crowd;
  crowd.region = city;
  crowd.num_sensors = 1500;
  const auto mobility =
      sensing::LevyFlightMobility::Make(0.02, 1.4, 0.6).MoveValue();
  crowd.mobility_prototype = mobility.get();
  Rng rng(4242);
  auto population = sensing::SensorPopulation::Make(crowd, &rng).MoveValue();
  auto world =
      sensing::CrowdWorld::Make(std::move(population), rng.Fork()).MoveValue();

  // Three attributes.
  sensing::TemperatureField::Params temperature;
  temperature.grad_x = 0.15;
  (void)world.RegisterAttribute(
      "temp", false, sensing::TemperatureField::Make(temperature).MoveValue(),
      sensing::ResponseModel::DeviceBehavior());
  sensing::AirQualityField::Source factory;
  factory.x = 6.5;
  factory.y = 1.5;
  factory.strength = 120.0;
  factory.spread = 1.0;
  (void)world.RegisterAttribute(
      "aqi", false,
      sensing::AirQualityField::Make(25.0, {factory}).MoveValue(),
      sensing::ResponseModel::DeviceBehavior());
  sensing::RainCell shower;
  shower.x0 = 4.0;
  shower.y0 = 6.0;
  shower.radius = 1.2;
  (void)world.RegisterAttribute(
      "rain", true, sensing::RainField::Make({shower}).MoveValue(),
      sensing::ResponseModel::HumanBehavior());

  engine::EngineConfig config;
  config.grid_h = 16;  // 2x2 km cells
  config.budget.initial = 24.0;
  auto engine = engine::CraqrEngine::Make(std::move(world), config).MoveValue();

  const auto show = [&engine]() {
    const runtime::ShardedStats stats = engine->Stats();
    std::printf("  live queries=%zu, materialized cells=%zu/%u, operators=%zu, "
                "subscriptions=%zu\n",
                stats.live_queries, stats.materialized_cells,
                engine->grid().NumCells(), stats.total_operators,
                engine->handler().NumSubscriptions());
  };

  std::printf("t=0: dashboard starts with three panes\n");
  auto city_temp =
      engine
          ->SubmitText(
              "ACQUIRE temp FROM REGION(0, 0, 8, 8) RATE 0.2 PER KM2 PER MIN")
          .MoveValue();
  auto aqi_pane =
      engine
          ->SubmitText(
              "ACQUIRE aqi FROM REGION(4, 0, 8, 4) RATE 0.4 PER KM2 PER MIN")
          .MoveValue();
  auto rain_pane =
      engine
          ->SubmitText(
              "ACQUIRE rain FROM REGION(2, 4, 8, 8) RATE 0.15 PER KM2 PER MIN")
          .MoveValue();
  show();

  (void)engine->RunFor(20.0);

  std::printf("t=20: analyst zooms into downtown -> high-rate temp pane "
              "(shares the city-wide F/T chains)\n");
  auto downtown_temp =
      engine
          ->SubmitText(
              "ACQUIRE temp FROM REGION(2, 2, 6, 6) RATE 0.8 PER KM2 PER MIN")
          .MoveValue();
  show();

  (void)engine->RunFor(20.0);

  std::printf("t=40: downtown pane closed -> its T taps unwind "
              "right-to-left\n");
  // Capture totals before cancelling: a query's sink dies with the query.
  const std::uint64_t downtown_total = downtown_temp.sink->total_received();
  (void)engine->Cancel(downtown_temp.id);
  show();

  (void)engine->RunFor(20.0);

  std::printf("t=60: all panes closed -> every cell topology evicted\n");
  const std::uint64_t city_total = city_temp.sink->total_received();
  const std::uint64_t aqi_total = aqi_pane.sink->total_received();
  const std::uint64_t rain_total = rain_pane.sink->total_received();
  (void)engine->Cancel(city_temp.id);
  (void)engine->Cancel(aqi_pane.id);
  (void)engine->Cancel(rain_pane.id);
  show();

  std::printf("\n--- delivered totals ---\n");
  std::printf("%-14s %-10s %-16s\n", "pane", "tuples", "mean rate(/km2/min)");
  const struct {
    const char* name;
    std::uint64_t tuples;
    double area;
    double lifetime;
  } rows[] = {{"city temp", city_total, city_temp.region.Area(), 60.0},
              {"aqi", aqi_total, aqi_pane.region.Area(), 60.0},
              {"rain", rain_total, rain_pane.region.Area(), 60.0},
              {"downtown temp", downtown_total, downtown_temp.region.Area(),
               20.0}};
  for (const auto& row : rows) {
    std::printf("%-14s %-10llu %-16.3f\n", row.name,
                static_cast<unsigned long long>(row.tuples),
                static_cast<double>(row.tuples) / (row.area * row.lifetime));
  }
  return 0;
}
