#include <gtest/gtest.h>

#include <iterator>

#include "common/rng.h"
#include "core/cost.h"
#include "core/engine.h"
#include "core/naive.h"

namespace craqr {
namespace engine {
namespace {

const geom::Rect kRegion(0, 0, 6, 6);

sensing::CrowdWorld MakeWorld(std::uint64_t seed) {
  sensing::PopulationConfig pc;
  pc.region = kRegion;
  pc.num_sensors = 400;
  Rng rng(seed);
  auto population = sensing::SensorPopulation::Make(pc, &rng);
  EXPECT_TRUE(population.ok());
  auto world =
      sensing::CrowdWorld::Make(population.MoveValue(), rng.Fork()).MoveValue();
  sensing::TemperatureField::Params tp;
  EXPECT_TRUE(world
                  .RegisterAttribute(
                      "temp", false,
                      sensing::TemperatureField::Make(tp).MoveValue(),
                      sensing::ResponseModel::DeviceBehavior())
                  .ok());
  return world;
}

EngineConfig TestConfig() {
  EngineConfig config;
  config.grid_h = 9;
  config.fabric.flatten_batch_size = 32;
  config.budget.initial = 16.0;
  return config;
}

query::AcquisitionQuery TempQuery(const geom::Rect& region, double rate) {
  query::AcquisitionQuery q;
  q.attribute = "temp";
  q.region = region;
  q.rate = rate;
  return q;
}

TEST(NaiveEngineTest, SubmitAndCancel) {
  auto naive = NaiveEngine::Make(MakeWorld(1), TestConfig()).MoveValue();
  const auto stream = naive->Submit(TempQuery(geom::Rect(0, 0, 4, 4), 0.5));
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(naive->NumQueries(), 1u);
  ASSERT_TRUE(naive->RunFor(10.0).ok());
  EXPECT_GT(stream->sink->total_received(), 0u);
  ASSERT_TRUE(naive->Cancel(stream->id).ok());
  EXPECT_EQ(naive->NumQueries(), 0u);
  EXPECT_EQ(naive->Cancel(stream->id).code(), StatusCode::kNotFound);
}

TEST(NaiveEngineTest, DuplicatesAcquisitionForOverlappingQueries) {
  // Three identical queries. Shared CrAQR sends requests once per cell;
  // naive sends them per query — the paper's "not cost effective" claim.
  const geom::Rect region(0, 0, 6, 6);
  const double rate = 0.5;

  auto shared = CraqrEngine::Make(MakeWorld(2), TestConfig()).MoveValue();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(shared->Submit(TempQuery(region, rate)).ok());
  }
  ASSERT_TRUE(shared->RunFor(20.0).ok());
  const auto shared_requests = shared->world().total_requests_sent();

  auto naive = NaiveEngine::Make(MakeWorld(2), TestConfig()).MoveValue();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(naive->Submit(TempQuery(region, rate)).ok());
  }
  ASSERT_TRUE(naive->RunFor(20.0).ok());
  const auto naive_requests = naive->world().total_requests_sent();

  EXPECT_GT(naive_requests, 2 * shared_requests);
  EXPECT_GT(naive->TotalOperators(), shared->Stats().total_operators);
}

TEST(NaiveEngineTest, IndependentStacksStillDeliver) {
  auto naive = NaiveEngine::Make(MakeWorld(3), TestConfig()).MoveValue();
  const auto s1 = naive->Submit(TempQuery(geom::Rect(0, 0, 4, 4), 0.5));
  const auto s2 = naive->Submit(TempQuery(geom::Rect(2, 2, 6, 6), 0.3));
  ASSERT_TRUE(s1.ok() && s2.ok());
  ASSERT_TRUE(naive->RunFor(20.0).ok());
  EXPECT_GT(s1->sink->total_received(), 0u);
  EXPECT_GT(s2->sink->total_received(), 0u);
  EXPECT_GT(naive->TotalRequestsSent(), 0u);
  EXPECT_GT(naive->TotalOperatorEvaluations(), 0u);
}

TEST(CostModelTest, PricesObservedEvaluations) {
  auto shared = CraqrEngine::Make(MakeWorld(4), TestConfig()).MoveValue();
  ASSERT_TRUE(shared->Submit(TempQuery(geom::Rect(0, 0, 6, 6), 0.5)).ok());
  ASSERT_TRUE(shared->RunFor(15.0).ok());
  const TopologyCostReport report = EstimateCost(*shared->sharded());
  EXPECT_GT(report.total_cost, 0.0);
  EXPECT_GT(report.evaluations, 0u);
  EXPECT_GT(report.operators, 0u);
  // F operators dominate per-evaluation cost; they must appear.
  EXPECT_TRUE(report.evaluations_by_kind.count("F"));
  EXPECT_TRUE(report.evaluations_by_kind.count("T"));
  EXPECT_NE(report.ToString().find("cost="), std::string::npos);
}

TEST(CostModelTest, KindCostsAreDistinct) {
  const OperatorCosts costs;
  EXPECT_GT(costs.CostOf(ops::OperatorKind::kFlatten),
            costs.CostOf(ops::OperatorKind::kThin));
  EXPECT_GT(costs.CostOf(ops::OperatorKind::kThin),
            costs.CostOf(ops::OperatorKind::kPassThrough));
}

TEST(CostModelTest, EveryKindHasAnExplicitPrice) {
  // Every field differs from the 1.0 CostOf returns for a kind it does not
  // handle, so a kind that falls through shows as 1.0.
  OperatorCosts costs;
  double* const fields[] = {&costs.flatten,    &costs.thin,
                            &costs.partition,  &costs.union_merge,
                            &costs.superpose,  &costs.filter,
                            &costs.map,        &costs.monitor,
                            &costs.sink,       &costs.pass_through};
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    *fields[i] = 100.0 + static_cast<double>(i);
  }
  for (std::size_t k = 0; k < ops::kNumOperatorKinds; ++k) {
    const auto kind = static_cast<ops::OperatorKind>(k);
    SCOPED_TRACE(ops::OperatorKindLabel(kind));
    EXPECT_GE(costs.CostOf(kind), 100.0);
  }
  EXPECT_EQ(costs.CostOf(ops::OperatorKind::kReorder), costs.union_merge);
}

TEST(CostModelTest, SharedTopologyCostsLessThanNaive) {
  const geom::Rect region(0, 0, 6, 6);
  auto shared = CraqrEngine::Make(MakeWorld(5), TestConfig()).MoveValue();
  auto naive = NaiveEngine::Make(MakeWorld(5), TestConfig()).MoveValue();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(shared->Submit(TempQuery(region, 0.4)).ok());
    ASSERT_TRUE(naive->Submit(TempQuery(region, 0.4)).ok());
  }
  ASSERT_TRUE(shared->RunFor(15.0).ok());
  ASSERT_TRUE(naive->RunFor(15.0).ok());
  EXPECT_LT(shared->TotalOperatorEvaluations(),
            naive->TotalOperatorEvaluations());
}

}  // namespace
}  // namespace engine
}  // namespace craqr
