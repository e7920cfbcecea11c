/// \file integration_test.cc
/// \brief Cross-module integration tests: parser -> engine -> fabricated
/// streams, query churn under load, trace-driven engines, determinism, and
/// statistical verification of the end-to-end rate guarantee.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/naive.h"
#include "pointprocess/gof.h"
#include "sensing/trace.h"

namespace craqr {
namespace {

const geom::Rect kRegion(0, 0, 6, 6);

sensing::CrowdWorld BuildWorld(std::uint64_t seed, std::size_t sensors = 500) {
  sensing::PopulationConfig pc;
  pc.region = kRegion;
  pc.num_sensors = sensors;
  Rng rng(seed);
  auto population = sensing::SensorPopulation::Make(pc, &rng).MoveValue();
  auto world =
      sensing::CrowdWorld::Make(std::move(population), rng.Fork()).MoveValue();
  sensing::TemperatureField::Params tp;
  EXPECT_TRUE(world
                  .RegisterAttribute(
                      "temp", false,
                      sensing::TemperatureField::Make(tp).MoveValue(),
                      sensing::ResponseModel::DeviceBehavior())
                  .ok());
  sensing::RainCell cell;
  cell.x0 = 3.0;
  cell.y0 = 3.0;
  cell.radius = 2.0;
  sensing::ResponseBehavior human = sensing::ResponseModel::HumanBehavior();
  human.base_logit = 2.0;
  human.delay_mu = -1.0;
  EXPECT_TRUE(world
                  .RegisterAttribute(
                      "rain", true,
                      sensing::RainField::Make({cell}).MoveValue(), human)
                  .ok());
  return world;
}

engine::EngineConfig BuildConfig() {
  engine::EngineConfig config;
  config.grid_h = 9;
  config.fabric.flatten_batch_size = 48;
  config.budget.initial = 24.0;
  config.budget.delta = 8.0;
  config.budget.max = 256.0;
  return config;
}

TEST(IntegrationTest, FabricatedStreamIsApproximatelyHomogeneous) {
  // The headline end-to-end property: whatever the crowd's skew, the
  // fabricated stream passes spatial and temporal homogeneity tests at the
  // requested rate.
  auto world = BuildWorld(101, 700);
  auto craqr_engine =
      engine::CraqrEngine::Make(std::move(world), BuildConfig()).MoveValue();
  const auto stream =
      craqr_engine
          ->SubmitText(
              "ACQUIRE temp FROM REGION(0, 0, 6, 6) RATE 0.4 PER KM2 PER MIN")
          .MoveValue();
  ASSERT_TRUE(craqr_engine->RunFor(90.0).ok());

  // Evaluate the steady-state half of the stream.
  std::vector<geom::SpaceTimePoint> points;
  for (const auto& tuple : stream.sink->tuples()) {
    if (tuple.point.t > 45.0 && tuple.point.t <= 90.0) {
      points.push_back(tuple.point);
    }
  }
  ASSERT_GT(points.size(), 200u);
  const pp::SpaceTimeWindow window{45.0, 90.0, kRegion};
  const auto spatial =
      pp::TestSpatialHomogeneity(points, window, 3, 3).MoveValue();
  EXPECT_GT(spatial.p_value, 1e-3)
      << "fabricated stream should be approximately homogeneous";
  const auto temporal = pp::TestTemporalUniformity(points, window).MoveValue();
  EXPECT_GT(temporal.p_value, 1e-3);
  // Rate within 25% of the request at steady state.
  EXPECT_NEAR(spatial.empirical_rate, 0.4, 0.1);
}

TEST(IntegrationTest, QueryChurnUnderLoad) {
  // Insert and cancel queries while the engine runs; topology surgery must
  // never wedge the pipeline or leak cells.
  auto world = BuildWorld(102);
  auto craqr_engine =
      engine::CraqrEngine::Make(std::move(world), BuildConfig()).MoveValue();
  Rng rng(103);
  std::vector<query::QueryId> live;
  for (int round = 0; round < 30; ++round) {
    if (live.size() < 5 || rng.Bernoulli(0.5)) {
      const double x = rng.Uniform(0.0, 3.9);
      const double y = rng.Uniform(0.0, 3.9);
      query::AcquisitionQuery q;
      q.attribute = rng.Bernoulli(0.3) ? "rain" : "temp";
      q.region = geom::Rect(x, y, x + 2.0, y + 2.0);
      q.rate = rng.Uniform(0.1, 1.0);
      const auto stream = craqr_engine->Submit(q);
      ASSERT_TRUE(stream.ok()) << stream.status().ToString();
      live.push_back(stream->id);
    } else {
      const std::size_t victim = rng.UniformInt(live.size());
      ASSERT_TRUE(craqr_engine->Cancel(live[victim]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_TRUE(craqr_engine->RunFor(2.0).ok());
  }
  // Drain everything: all state unwinds.
  for (const auto id : live) {
    ASSERT_TRUE(craqr_engine->Cancel(id).ok());
  }
  const runtime::ShardedStats stats = craqr_engine->Stats();
  EXPECT_EQ(stats.live_queries, 0u);
  EXPECT_EQ(stats.materialized_cells, 0u);
  EXPECT_EQ(stats.total_operators, 0u);
  EXPECT_EQ(craqr_engine->handler().NumSubscriptions(), 0u);
  EXPECT_TRUE(craqr_engine->RunFor(2.0).ok());
}

TEST(IntegrationTest, IdenticalSeedsGiveIdenticalRuns) {
  auto run = []() {
    auto world = BuildWorld(104);
    auto craqr_engine =
        engine::CraqrEngine::Make(std::move(world), BuildConfig()).MoveValue();
    const auto stream =
        craqr_engine
            ->SubmitText(
                "ACQUIRE temp FROM REGION(0, 0, 4, 4) RATE 0.5 PER KM2 PER "
                "MIN")
            .MoveValue();
    EXPECT_TRUE(craqr_engine->RunFor(20.0).ok());
    return std::make_pair(stream.sink->total_received(),
                          craqr_engine->handler().requests_sent());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(IntegrationTest, EngineOverTraceReplay) {
  // Record a live run's crowd responses, then drive a full engine from the
  // replayed trace through a handler.
  auto world = BuildWorld(105);
  sensing::AcquisitionRequest probe;
  probe.attribute = 0;
  probe.region = kRegion;
  probe.count = 200;
  probe.response_spread = 1.0;
  std::vector<ops::Tuple> trace;
  for (int minute = 0; minute < 40; ++minute) {
    probe.now = minute;
    auto responses = world.SendRequests(probe).MoveValue();
    trace.insert(trace.end(), responses.begin(), responses.end());
    world.Advance(1.0);
  }
  ASSERT_GT(trace.size(), 2000u);

  auto replay =
      sensing::TraceReplayNetwork::Make(trace, kRegion).MoveValue();
  auto budgets = server::BudgetManager::Make(BuildConfig().budget).MoveValue();
  auto grid = geom::Grid::Make(kRegion, 9).MoveValue();
  auto handler =
      server::RequestResponseHandler::Make(&replay, &budgets, grid)
          .MoveValue();
  auto fabricator = fabric::StreamFabricator::Make(grid).MoveValue();
  const auto stream =
      fabricator->InsertQuery(0, kRegion, 0.3).MoveValue();
  for (const auto& cell : fabricator->QueryCells(stream.id).MoveValue()) {
    ASSERT_TRUE(handler.Subscribe(0, cell).ok());
  }
  for (int minute = 1; minute <= 40; ++minute) {
    const auto batch = handler.Step(minute).MoveValue();
    ASSERT_TRUE(fabricator->ProcessBatch(batch).ok());
  }
  EXPECT_GT(stream.sink->total_received(), 100u);
  EXPECT_GT(replay.served(), 0u);
}

TEST(IntegrationTest, SharedAndNaiveDeliverSimilarRates) {
  // The naive baseline is costlier but must deliver comparable per-query
  // rates — sharing trades cost, not quality.
  query::AcquisitionQuery q;
  q.attribute = "temp";
  q.region = geom::Rect(0, 0, 6, 6);
  q.rate = 0.3;

  auto shared_engine =
      engine::CraqrEngine::Make(BuildWorld(106), BuildConfig()).MoveValue();
  auto naive_engine =
      engine::NaiveEngine::Make(BuildWorld(106), BuildConfig()).MoveValue();
  const auto shared_stream = shared_engine->Submit(q).MoveValue();
  const auto naive_stream = naive_engine->Submit(q).MoveValue();
  ASSERT_TRUE(shared_engine->RunFor(40.0).ok());
  ASSERT_TRUE(naive_engine->RunFor(40.0).ok());
  const double shared_rate =
      static_cast<double>(shared_stream.sink->total_received()) /
      (36.0 * 40.0);
  const double naive_rate =
      static_cast<double>(naive_stream.sink->total_received()) /
      (36.0 * 40.0);
  EXPECT_NEAR(shared_rate, naive_rate, 0.1);
  EXPECT_GT(shared_rate, 0.15);
}

TEST(IntegrationTest, ParserErrorsSurfaceThroughSubmitText) {
  auto craqr_engine =
      engine::CraqrEngine::Make(BuildWorld(107), BuildConfig()).MoveValue();
  EXPECT_EQ(craqr_engine->SubmitText("ACQUIRE").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(craqr_engine
                ->SubmitText("ACQUIRE humidity FROM REGION(0,0,4,4) RATE 1 "
                             "PER KM2 PER MIN")
                .status()
                .code(),
            StatusCode::kNotFound);
  // Region entirely outside R.
  EXPECT_FALSE(craqr_engine
                   ->SubmitText("ACQUIRE temp FROM REGION(50,50,54,54) RATE "
                                "1 PER KM2 PER MIN")
                   .ok());
  // The engine is still healthy after rejected submissions.
  EXPECT_TRUE(craqr_engine
                  ->SubmitText("ACQUIRE temp FROM REGION(0,0,4,4) RATE 1 PER "
                               "KM2 PER MIN")
                  .ok());
  EXPECT_TRUE(craqr_engine->RunFor(2.0).ok());
}

TEST(IntegrationTest, HumanAttributeRespectsResponseDelays) {
  // Rain tuples (human-sensed, median delay ~0.4 min) must arrive with
  // positive latency relative to the dispatch rounds.
  auto craqr_engine =
      engine::CraqrEngine::Make(BuildWorld(108), BuildConfig()).MoveValue();
  const auto stream =
      craqr_engine
          ->SubmitText(
              "ACQUIRE rain FROM REGION(0, 0, 6, 6) RATE 0.2 PER KM2 PER MIN")
          .MoveValue();
  ASSERT_TRUE(craqr_engine->RunFor(30.0).ok());
  ASSERT_GT(stream.sink->tuples().size(), 20u);
  for (const auto& tuple : stream.sink->tuples()) {
    EXPECT_TRUE(tuple.value.kind() == ops::PayloadKind::kBool);
    EXPECT_LE(tuple.point.t, craqr_engine->now());
  }
}

}  // namespace
}  // namespace craqr
