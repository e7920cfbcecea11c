#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "ops/value_pool.h"

namespace craqr {
namespace engine {
namespace {

const geom::Rect kRegion(0, 0, 6, 6);

sensing::CrowdWorld MakeWorld(
    std::size_t sensors, std::uint64_t seed = 5,
    const sensing::MobilityModel* mobility = nullptr) {
  sensing::PopulationConfig pc;
  pc.region = kRegion;
  pc.num_sensors = sensors;
  pc.mobility_prototype = mobility;
  pc.responsiveness_sigma = 0.2;
  Rng rng(seed);
  auto population = sensing::SensorPopulation::Make(pc, &rng);
  EXPECT_TRUE(population.ok());
  auto world =
      sensing::CrowdWorld::Make(population.MoveValue(), rng.Fork()).MoveValue();

  sensing::TemperatureField::Params tp;
  sensing::ResponseBehavior device = sensing::ResponseModel::DeviceBehavior();
  EXPECT_TRUE(world
                  .RegisterAttribute(
                      "temp", false,
                      sensing::TemperatureField::Make(tp).MoveValue(), device)
                  .ok());
  sensing::RainCell cell;
  cell.x0 = 3.0;
  cell.y0 = 3.0;
  cell.radius = 2.0;
  sensing::ResponseBehavior human = sensing::ResponseModel::HumanBehavior();
  human.base_logit = 2.0;  // co-operative crowd for tests
  human.delay_mu = -1.0;
  EXPECT_TRUE(world
                  .RegisterAttribute(
                      "rain", true,
                      sensing::RainField::Make({cell}).MoveValue(), human)
                  .ok());
  return world;
}

EngineConfig TestConfig() {
  EngineConfig config;
  config.grid_h = 9;  // 2x2 km cells
  config.step_dt = 1.0;
  config.fabric.flatten_batch_size = 32;
  config.budget.initial = 24.0;
  config.budget.delta = 8.0;
  config.budget.max = 256.0;
  return config;
}

TEST(EngineTest, MakeValidatesConfig) {
  EngineConfig bad = TestConfig();
  bad.step_dt = 0.0;
  EXPECT_FALSE(CraqrEngine::Make(MakeWorld(50), bad).ok());
  bad = TestConfig();
  bad.grid_h = 7;  // not a perfect square
  EXPECT_FALSE(CraqrEngine::Make(MakeWorld(50), bad).ok());
}

TEST(EngineTest, SubmitResolvesAttributeAndSubscribes) {
  auto engine = CraqrEngine::Make(MakeWorld(200), TestConfig()).MoveValue();
  query::AcquisitionQuery q;
  q.attribute = "temp";
  q.region = geom::Rect(0, 0, 4, 4);
  q.rate = 0.5;
  const auto stream = engine->Submit(q);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(engine->handler().NumSubscriptions(), 4u);  // 4 cells of 2x2 km
  EXPECT_EQ(engine->Stats().live_queries, 1u);
  // Unknown attribute rejected.
  q.attribute = "humidity";
  EXPECT_EQ(engine->Submit(q).status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, SubmitTextParsesDeclarativeSyntax) {
  auto engine = CraqrEngine::Make(MakeWorld(200), TestConfig()).MoveValue();
  const auto stream = engine->SubmitText(
      "ACQUIRE rain FROM REGION(0, 0, 4, 4) RATE 30 PER KM2 PER HR");
  ASSERT_TRUE(stream.ok());
  EXPECT_DOUBLE_EQ(stream->rate, 0.5);
  EXPECT_FALSE(engine->SubmitText("DROP TABLE queries").ok());
}

TEST(EngineTest, EndToEndDeliversTuplesNearRequestedRate) {
  auto engine = CraqrEngine::Make(MakeWorld(600, 6), TestConfig()).MoveValue();
  const auto stream = engine->SubmitText(
      "ACQUIRE temp FROM REGION(0, 0, 6, 6) RATE 0.4 PER KM2 PER MIN");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(engine->RunFor(60.0).ok());
  EXPECT_GT(engine->now(), 59.0);

  // The sink received a stream; its empirical rate approximates the
  // requested one (area 36 km^2, ~60 min -> expect ~860 tuples).
  const double delivered =
      static_cast<double>(stream->sink->total_received()) / (36.0 * 60.0);
  EXPECT_GT(delivered, 0.2);
  EXPECT_LT(delivered, 0.7);
  // The monitor saw windows too.
  EXPECT_GT(stream->monitor->window_rates().count(), 0u);
  // Requests went out and were answered.
  EXPECT_GT(engine->handler().requests_sent(), 0u);
  EXPECT_GT(engine->world().total_responses(), 0u);
}

TEST(EngineTest, ValuesCarryPhenomenonObservations) {
  auto engine = CraqrEngine::Make(MakeWorld(400), TestConfig()).MoveValue();
  const auto stream = engine->SubmitText(
      "ACQUIRE temp FROM REGION(0, 0, 6, 6) RATE 0.3 PER KM2 PER MIN");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(engine->RunFor(30.0).ok());
  ASSERT_GT(stream->sink->tuples().size(), 0u);
  for (const auto& tuple : stream->sink->tuples()) {
    ASSERT_TRUE(tuple.value.kind() == ops::PayloadKind::kDouble);
    // Plausible temperature (base 20, diurnal 5, small noise).
    EXPECT_GT(tuple.value.AsDouble(), 0.0);
    EXPECT_LT(tuple.value.AsDouble(), 40.0);
  }
}

TEST(EngineTest, CancelRemovesTopologyAndSubscriptions) {
  auto engine = CraqrEngine::Make(MakeWorld(200), TestConfig()).MoveValue();
  const auto stream = engine->SubmitText(
      "ACQUIRE temp FROM REGION(0, 0, 4, 4) RATE 0.5 PER KM2 PER MIN");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(engine->RunFor(5.0).ok());
  ASSERT_TRUE(engine->Cancel(stream->id).ok());
  EXPECT_EQ(engine->handler().NumSubscriptions(), 0u);
  const runtime::ShardedStats stats = engine->Stats();
  EXPECT_EQ(stats.live_queries, 0u);
  EXPECT_EQ(stats.materialized_cells, 0u);
  // Cancelling twice fails cleanly.
  EXPECT_EQ(engine->Cancel(stream->id).code(), StatusCode::kNotFound);
  // The engine keeps running fine afterwards.
  EXPECT_TRUE(engine->RunFor(3.0).ok());
}

TEST(EngineTest, BudgetTuningRaisesBudgetUnderViolations) {
  // A sparse crowd cannot satisfy an aggressive rate: budgets must climb.
  auto engine = CraqrEngine::Make(MakeWorld(60), TestConfig()).MoveValue();
  const auto stream = engine->SubmitText(
      "ACQUIRE temp FROM REGION(0, 0, 6, 6) RATE 5 PER KM2 PER MIN");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(engine->RunFor(40.0).ok());
  EXPECT_GT(engine->budgets().increases(), 0u);
}

TEST(EngineTest, InfeasibleRateIsLogged) {
  EngineConfig config = TestConfig();
  config.budget.max = 32.0;  // low ceiling so saturation happens fast
  auto engine = CraqrEngine::Make(MakeWorld(60), config).MoveValue();
  const auto stream = engine->SubmitText(
      "ACQUIRE temp FROM REGION(0, 0, 6, 6) RATE 50 PER KM2 PER MIN");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(engine->RunFor(60.0).ok());
  // "the user is requested to either accept the feasible rate or pay more".
  EXPECT_FALSE(engine->infeasible_log().empty());
}

TEST(EngineTest, IncentiveExtensionRaisesIncentives) {
  EngineConfig config = TestConfig();
  config.budget.max = 32.0;
  config.enable_incentives = true;
  config.incentive.max = 8.0;
  auto engine = CraqrEngine::Make(MakeWorld(80), config).MoveValue();
  const auto stream = engine->SubmitText(
      "ACQUIRE rain FROM REGION(0, 0, 6, 6) RATE 20 PER KM2 PER MIN");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(engine->RunFor(80.0).ok());
  EXPECT_GT(engine->incentives().raises(), 0u);
  const auto rain_id = engine->world().AttributeIdByName("rain");
  ASSERT_TRUE(rain_id.ok());
  EXPECT_GT(engine->handler().GetIncentive(*rain_id), 1.0);
}

TEST(EngineTest, MultipleConcurrentQueriesAllDeliver) {
  auto engine = CraqrEngine::Make(MakeWorld(600, 8), TestConfig()).MoveValue();
  const auto s1 = engine->SubmitText(
      "ACQUIRE temp FROM REGION(0, 0, 4, 4) RATE 0.5 PER KM2 PER MIN");
  const auto s2 = engine->SubmitText(
      "ACQUIRE temp FROM REGION(2, 2, 6, 6) RATE 0.25 PER KM2 PER MIN");
  const auto s3 = engine->SubmitText(
      "ACQUIRE rain FROM REGION(0, 0, 6, 6) RATE 0.2 PER KM2 PER MIN");
  ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
  ASSERT_TRUE(engine->RunFor(50.0).ok());
  EXPECT_GT(s1->sink->total_received(), 0u);
  EXPECT_GT(s2->sink->total_received(), 0u);
  EXPECT_GT(s3->sink->total_received(), 0u);
  // Rain tuples are boolean.
  ASSERT_GT(s3->sink->tuples().size(), 0u);
  EXPECT_TRUE(s3->sink->tuples()[0].value.kind() == ops::PayloadKind::kBool);
}

TEST(EngineTest, ShardedEngineMatchesSingleThreadedEngine) {
  // The same deterministic world driven through one inline shard and
  // through 4 worker shards must route and deliver identically.
  auto run = [](std::size_t num_shards) {
    EngineConfig config = TestConfig();
    config.num_shards = num_shards;
    auto engine = CraqrEngine::Make(MakeWorld(400, 11), config).MoveValue();
    EXPECT_EQ(engine->sharded()->num_shards(), num_shards);
    const auto s1 = engine->SubmitText(
        "ACQUIRE temp FROM REGION(0, 0, 4, 4) RATE 0.5 PER KM2 PER MIN");
    const auto s2 = engine->SubmitText(
        "ACQUIRE rain FROM REGION(1, 1, 6, 6) RATE 0.25 PER KM2 PER MIN");
    EXPECT_TRUE(s1.ok() && s2.ok());
    EXPECT_TRUE(engine->RunFor(20.0).ok());
    EXPECT_TRUE(engine->Cancel(s1->id).ok());
    EXPECT_TRUE(engine->RunFor(10.0).ok());
    EXPECT_TRUE(engine->ValidateTopology().ok());
    const runtime::ShardedStats stats = engine->Stats();
    return std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                      std::size_t>{stats.tuples_routed, stats.tuples_unrouted,
                                   s2->sink->total_received(),
                                   stats.live_queries};
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(EngineTest, ShardedEngineMatchesSingleThreadedWithIncentives) {
  // The historically excluded case: enable_incentives makes the feedback
  // loop order-sensitive across cells. Violation reports now replay in
  // completion-time order on both execution paths, so even this closed
  // loop must evolve identically for any shard count.
  auto run = [](std::size_t num_shards) {
    EngineConfig config = TestConfig();
    config.num_shards = num_shards;
    config.budget.max = 32.0;  // saturate fast so incentives engage
    config.enable_incentives = true;
    config.incentive.max = 8.0;
    auto engine = CraqrEngine::Make(MakeWorld(80), config).MoveValue();
    const auto stream = engine->SubmitText(
        "ACQUIRE rain FROM REGION(0, 0, 6, 6) RATE 20 PER KM2 PER MIN");
    EXPECT_TRUE(stream.ok());
    EXPECT_TRUE(engine->RunFor(40.0).ok());
    const auto rain_id = engine->world().AttributeIdByName("rain");
    EXPECT_TRUE(rain_id.ok());
    return std::tuple<std::uint64_t, std::uint64_t, double, std::uint64_t>{
        engine->TuplesRouted(), stream->sink->total_received(),
        engine->handler().GetIncentive(*rain_id),
        engine->incentives().raises()};
  };
  const auto reference = run(1);
  EXPECT_GT(std::get<3>(reference), 0u) << "incentives never engaged";
  EXPECT_EQ(reference, run(2));
  EXPECT_EQ(reference, run(4));
}

// ---------------------------------------------------------------------------
// Pipelined execution (EngineConfig::pipeline_depth)

/// Order-sensitive FNV-1a fold over raw bytes.
std::uint64_t FnvFold(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Byte-exact signature of a delivered stream: every field of every tuple,
/// in delivery order (payload rendered through the pool so the digest is
/// handle-independent).
std::uint64_t StreamDigest(const std::vector<ops::Tuple>& tuples) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& tuple : tuples) {
    h = FnvFold(h, &tuple.id, sizeof(tuple.id));
    h = FnvFold(h, &tuple.sensor_id, sizeof(tuple.sensor_id));
    h = FnvFold(h, &tuple.attribute, sizeof(tuple.attribute));
    h = FnvFold(h, &tuple.point.t, sizeof(tuple.point.t));
    h = FnvFold(h, &tuple.point.x, sizeof(tuple.point.x));
    h = FnvFold(h, &tuple.point.y, sizeof(tuple.point.y));
    const auto kind = static_cast<unsigned char>(tuple.value.kind());
    h = FnvFold(h, &kind, sizeof(kind));
    const std::string rendered = ops::PayloadToString(tuple.value);
    h = FnvFold(h, rendered.data(), rendered.size());
  }
  return h;
}

/// Everything a pipelined-equivalence run observes. Byte-exact delivered
/// streams (order included), the order-sensitive incentive/budget feedback
/// trajectory, and the routing aggregates.
struct PipelineRunResult {
  std::uint64_t rain_digest = 0;
  std::uint64_t temp_digest = 0;
  std::uint64_t rain_delivered = 0;
  std::uint64_t temp_delivered = 0;
  std::uint64_t tuples_routed = 0;
  std::uint64_t tuples_unrouted = 0;
  double incentive = 0.0;
  std::uint64_t incentive_raises = 0;
  std::uint64_t budget_increases = 0;

  bool operator==(const PipelineRunResult& o) const {
    return rain_digest == o.rain_digest && temp_digest == o.temp_digest &&
           rain_delivered == o.rain_delivered &&
           temp_delivered == o.temp_delivered &&
           tuples_routed == o.tuples_routed &&
           tuples_unrouted == o.tuples_unrouted && incentive == o.incentive &&
           incentive_raises == o.incentive_raises &&
           budget_increases == o.budget_increases;
  }
};

/// The valued churn workload: an aggressive rain query that saturates
/// budgets and engages incentives (the order-sensitive feedback loop), a
/// temp query cancelled mid-run and a replacement submitted — all under a
/// sparse crowd, so violations fire continuously.
void RunPipelineWorkload(std::size_t num_shards, std::size_t pipeline_depth,
                         PipelineRunResult* out) {
  EngineConfig config = TestConfig();
  config.num_shards = num_shards;
  config.pipeline_depth = pipeline_depth;
  config.budget.max = 32.0;  // saturate fast so incentives engage
  config.enable_incentives = true;
  config.incentive.max = 8.0;
  auto engine = CraqrEngine::Make(MakeWorld(80), config).MoveValue();
  const auto rain = engine->SubmitText(
      "ACQUIRE rain FROM REGION(0, 0, 6, 6) RATE 20 PER KM2 PER MIN");
  const auto temp1 = engine->SubmitText(
      "ACQUIRE temp FROM REGION(0, 0, 4, 4) RATE 0.5 PER KM2 PER MIN");
  ASSERT_TRUE(rain.ok());
  ASSERT_TRUE(temp1.ok());
  ASSERT_TRUE(engine->RunFor(15.0).ok());
  ASSERT_TRUE(engine->Cancel(temp1->id).ok());
  ASSERT_TRUE(engine->RunFor(10.0).ok());
  const auto temp2 = engine->SubmitText(
      "ACQUIRE temp FROM REGION(1, 1, 5, 5) RATE 0.4 PER KM2 PER MIN");
  ASSERT_TRUE(temp2.ok());
  ASSERT_TRUE(engine->RunFor(15.0).ok());

  const runtime::ShardedStats stats = engine->Stats();
  const auto rain_id = engine->world().AttributeIdByName("rain");
  ASSERT_TRUE(rain_id.ok());
  out->rain_digest = StreamDigest(rain->sink->tuples());
  out->temp_digest = StreamDigest(temp2->sink->tuples());
  out->rain_delivered = rain->sink->total_received();
  out->temp_delivered = temp2->sink->total_received();
  out->tuples_routed = stats.tuples_routed;
  out->tuples_unrouted = stats.tuples_unrouted;
  out->incentive = engine->handler().GetIncentive(*rain_id);
  out->incentive_raises = engine->incentives().raises();
  out->budget_increases = engine->budgets().increases();
}

TEST(EnginePipelineTest, PipelinedMatchesSynchronousByteExact) {
  // The core pipelining guarantee: for the default pipeline_depth, the
  // delivered streams (bytes AND order), the routing aggregates and the
  // order-sensitive incentive/budget trajectory are identical whether the
  // engine runs one inline shard or is pipelined over 2 or 4 worker shards
  // (the runtime's epoch horizon holds the feedback back on both).
  PipelineRunResult reference;
  RunPipelineWorkload(1, 2, &reference);
  ASSERT_GT(reference.rain_delivered, 0u);
  ASSERT_GT(reference.temp_delivered, 0u);
  ASSERT_GT(reference.incentive_raises, 0u) << "incentives never engaged";
  for (const std::size_t shards : {2u, 4u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    PipelineRunResult pipelined;
    RunPipelineWorkload(shards, 2, &pipelined);
    EXPECT_TRUE(reference == pipelined);
  }
}

TEST(EnginePipelineTest, DeeperPipelineStaysConsistentAcrossShardCounts) {
  // pipeline_depth 3 changes the feedback contract (2-step lag) — the
  // trajectory may differ from depth 2, but it must still be byte-exact
  // across shard counts, since the horizon applies the same deeper lag to
  // one inline shard.
  PipelineRunResult reference;
  RunPipelineWorkload(1, 3, &reference);
  ASSERT_GT(reference.rain_delivered, 0u);
  PipelineRunResult pipelined;
  RunPipelineWorkload(4, 3, &pipelined);
  EXPECT_TRUE(reference == pipelined);
}

TEST(EnginePipelineTest, DepthOneKeepsClassicSynchronousSemantics) {
  // pipeline_depth 1 = the pre-pipelining contract (feedback within its
  // own step) on every path; sharded execution stays synchronous.
  PipelineRunResult reference;
  RunPipelineWorkload(1, 1, &reference);
  ASSERT_GT(reference.rain_delivered, 0u);
  PipelineRunResult sharded;
  RunPipelineWorkload(4, 1, &sharded);
  EXPECT_TRUE(reference == sharded);
}

TEST(EnginePipelineTest, MidRunStatsIsADrainBarrierAndDoesNotPerturb) {
  // Stats() mid-run must flush in-flight pipelined work (so counters are
  // consistent with every step taken) without disturbing the stream or
  // the feedback trajectory relative to a run that never observed.
  auto make = [](std::size_t num_shards) {
    EngineConfig config = TestConfig();
    config.num_shards = num_shards;
    config.pipeline_depth = 2;
    return CraqrEngine::Make(MakeWorld(200, 11), config).MoveValue();
  };
  auto pipelined = make(4);
  auto sync = make(1);
  auto observed = make(4);  // pipelined twin that gets observed mid-run
  const char* q = "ACQUIRE temp FROM REGION(0, 0, 6, 6) RATE 0.5 PER KM2 PER MIN";
  const auto sp = pipelined->SubmitText(q);
  const auto ss = sync->SubmitText(q);
  const auto so = observed->SubmitText(q);
  ASSERT_TRUE(sp.ok() && ss.ok() && so.ok());

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(pipelined->Step().ok());
    ASSERT_TRUE(sync->Step().ok());
    ASSERT_TRUE(observed->Step().ok());
  }
  // Mid-run observation: the drain barrier makes the pipelined counters
  // equal the synchronous engine's at the same step.
  const runtime::ShardedStats mid_obs = observed->Stats();
  const runtime::ShardedStats mid_sync = sync->Stats();
  EXPECT_EQ(mid_obs.tuples_routed, mid_sync.tuples_routed);
  EXPECT_EQ(mid_obs.tuples_unrouted, mid_sync.tuples_unrouted);
  EXPECT_EQ(mid_obs.live_queries, mid_sync.live_queries);
  // After the drain the sink already holds every delivered tuple.
  EXPECT_EQ(so->sink->total_received(), ss->sink->total_received());

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pipelined->Step().ok());
    ASSERT_TRUE(sync->Step().ok());
    ASSERT_TRUE(observed->Step().ok());
  }
  ASSERT_TRUE(pipelined->DrainPipeline().ok());
  ASSERT_TRUE(observed->DrainPipeline().ok());
  // The mid-run observation changed nothing: all three streams agree.
  const std::uint64_t d_sync = StreamDigest(ss->sink->tuples());
  EXPECT_EQ(StreamDigest(sp->sink->tuples()), d_sync);
  EXPECT_EQ(StreamDigest(so->sink->tuples()), d_sync);
}

TEST(EnginePipelineTest, StatsExposesGlobalValuePoolBytes) {
  // The ROADMAP monitoring hook: pool growth is observable through the
  // engine's stats on both execution paths.
  ops::ValuePool::Global().Intern("engine-pipeline-test-sentinel-payload");
  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    EngineConfig config = TestConfig();
    config.num_shards = shards;
    auto engine = CraqrEngine::Make(MakeWorld(50), config).MoveValue();
    const runtime::ShardedStats stats = engine->Stats();
    EXPECT_EQ(stats.value_pool_bytes, ops::ValuePool::Global().ApproxBytes());
    EXPECT_GT(stats.value_pool_bytes, 0u);
    EXPECT_EQ(stats.per_shard.size(), shards);
  }
}

// ---------------------------------------------------------------------------
// Absolute stream pin

/// What one walker-world run delivers: each query's stream digest, in
/// submission order, and the crowd's request/response totals.
struct WalkerRunResult {
  std::vector<std::uint64_t> digests;
  std::uint64_t requests_sent = 0;
  std::uint64_t responses = 0;
};

/// 600 random-waypoint walkers on the 6x6 km region, incentives on, temp
/// and rain queries; the rain hot spot outgrows the crowd, so budgets climb
/// past the cell populations and requests switch from sampling without
/// replacement to sampling with replacement.
WalkerRunResult RunWalkerWorkload(std::size_t num_shards,
                                  std::size_t pipeline_depth) {
  WalkerRunResult out;
  auto walker = sensing::RandomWaypointMobility::Make(0.05, 0.4);
  EXPECT_TRUE(walker.ok());
  EngineConfig config = TestConfig();
  config.num_shards = num_shards;
  config.pipeline_depth = pipeline_depth;
  config.budget.max = 96.0;
  config.enable_incentives = true;
  config.incentive.max = 6.0;
  auto engine =
      CraqrEngine::Make(MakeWorld(600, 17, walker.value().get()), config)
          .MoveValue();
  std::vector<fabric::QueryStream> streams;
  for (const char* text :
       {"ACQUIRE temp FROM REGION(0, 0, 6, 6) RATE 0.5 PER KM2 PER MIN",
        "ACQUIRE rain FROM REGION(1, 1, 5, 5) RATE 6 PER KM2 PER MIN",
        "ACQUIRE temp FROM REGION(2, 0, 6, 4) RATE 1.5 PER KM2 PER MIN"}) {
    auto stream = engine->SubmitText(text);
    EXPECT_TRUE(stream.ok()) << text;
    if (!stream.ok()) {
      return out;
    }
    streams.push_back(stream.MoveValue());
  }
  EXPECT_TRUE(engine->RunFor(20.0).ok());
  EXPECT_TRUE(engine->DrainPipeline().ok());
  for (const fabric::QueryStream& q : streams) {
    EXPECT_GT(q.sink->total_received(), 0u);
    out.digests.push_back(StreamDigest(q.sink->tuples()));
  }
  out.requests_sent = engine->world().total_requests_sent();
  out.responses = engine->world().total_responses();
  return out;
}

TEST(EnginePinTest, WalkerStreamsMatchRecordedDigests) {
  // The other digest tests compare configurations with each other, so a
  // change to which sensors a request reaches, or to the order in which
  // they are sampled, would pass them all. These values were recorded
  // with the linear-scan sensor lookup; every shard count must reproduce
  // them.
  struct Pin {
    std::size_t depth;
    std::vector<std::uint64_t> digests;
    std::uint64_t requests_sent;
    std::uint64_t responses;
  };
  const Pin pins[] = {
      {1,
       {0xd06de8b231f9380bULL, 0x34791498154e6c52ULL, 0x8a19f96a6f378b78ULL},
       18265,
       17916},
      {2,
       {0x36a1ecaf4a845272ULL, 0xd766070d08965975ULL, 0x99faafffcf2abfd5ULL},
       17824,
       17465},
  };
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const Pin& pin : pins) {
      SCOPED_TRACE("num_shards=" + std::to_string(shards) +
                   " pipeline_depth=" + std::to_string(pin.depth));
      const WalkerRunResult run = RunWalkerWorkload(shards, pin.depth);
      EXPECT_EQ(run.digests, pin.digests);
      EXPECT_EQ(run.requests_sent, pin.requests_sent);
      EXPECT_EQ(run.responses, pin.responses);
    }
  }
}

}  // namespace
}  // namespace engine
}  // namespace craqr
