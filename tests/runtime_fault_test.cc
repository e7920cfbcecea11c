#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "runtime/faultpoint.h"
#include "runtime/sharded_fabricator.h"

namespace craqr {
namespace runtime {
namespace {

constexpr ops::AttributeId kRain = 0;

geom::Grid TestGrid() {
  return geom::Grid::Make(geom::Rect(0, 0, 4, 4), 16).MoveValue();
}

fabric::FabricConfig TestFabricConfig() {
  fabric::FabricConfig config;
  config.flatten_batch_size = 32;
  config.seed = 0xC0FFEE;
  return config;
}

std::vector<ops::Tuple> MakeBatch(Rng* rng, double* t, std::size_t n,
                                  std::uint64_t first_id) {
  std::vector<ops::Tuple> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops::Tuple tuple;
    tuple.id = first_id + i;
    tuple.attribute = kRain;
    *t += 0.002;
    tuple.point = geom::SpaceTimePoint{*t, rng->Uniform(0.0, 4.0),
                                       rng->Uniform(0.0, 4.0)};
    batch.push_back(tuple);
  }
  return batch;
}

/// Every test disarms the process-wide registry on the way out so a
/// failing assertion can't leak an armed fault into its neighbours. CI
/// exports a randomized CRAQR_FAULT_SEED (logged next to the run) that
/// reseeds the probabilistic firing hash, so the suite explores a fresh
/// schedule each run yet any failure replays exactly from the logged
/// seed; tests asserting an exact schedule use at_hits or p in {0, 1},
/// which are seed-independent.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const char* seed = std::getenv("CRAQR_FAULT_SEED")) {
      FaultRegistry::Global().Seed(std::strtoull(seed, nullptr, 0));
    }
  }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// Registry semantics

TEST_F(FaultTest, DisarmedRegistryNeverFires) {
  auto& reg = FaultRegistry::Global();
  EXPECT_FALSE(reg.AnyArmed());
  EXPECT_FALSE(CRAQR_FAULT_FIRE("runtime.queue_full", nullptr));
  EXPECT_EQ(reg.hits("runtime.queue_full"), 0u);
}

TEST_F(FaultTest, ProbabilisticFiringIsDeterministicUnderASeed) {
  auto& reg = FaultRegistry::Global();
  auto run = [&reg](std::uint64_t seed) {
    reg.Reset();
    reg.Seed(seed);
    FaultSpec spec;
    spec.probability = 0.5;
    reg.Arm("test.site", spec);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      pattern.push_back(reg.Fire("test.site"));
    }
    return pattern;
  };
  const auto first = run(123);
  const auto replay = run(123);
  EXPECT_EQ(first, replay) << "same seed must replay the same schedule";
  EXPECT_NE(first, run(456)) << "different seeds must diverge";
  // Sanity: p=0.5 actually fired some and skipped some.
  const auto fired =
      std::count(first.begin(), first.end(), true);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 200);
}

TEST_F(FaultTest, AtHitsScheduleFiresExactlyWhereArmed) {
  auto& reg = FaultRegistry::Global();
  FaultSpec spec;
  spec.at_hits = {3, 5};
  reg.Arm("test.site", spec);
  std::vector<std::uint64_t> fired_at;
  for (std::uint64_t hit = 1; hit <= 10; ++hit) {
    if (reg.Fire("test.site")) {
      fired_at.push_back(hit);
    }
  }
  EXPECT_EQ(fired_at, (std::vector<std::uint64_t>{3, 5}));
  EXPECT_EQ(reg.hits("test.site"), 10u);
  EXPECT_EQ(reg.fires("test.site"), 2u);
}

TEST_F(FaultTest, MaxFiresCapsAndParamIsDelivered) {
  auto& reg = FaultRegistry::Global();
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 2;
  spec.param = 42;
  reg.Arm("test.site", spec);
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    std::uint64_t param = 0;
    if (reg.Fire("test.site", &param)) {
      ++fired;
      EXPECT_EQ(param, 42u);
    }
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(reg.fires("test.site"), 2u);

  // Disarm keeps the counters for post-mortem inspection; Reset clears.
  reg.Disarm("test.site");
  EXPECT_FALSE(reg.AnyArmed());
  EXPECT_EQ(reg.hits("test.site"), 5u);
  reg.Reset();
  EXPECT_EQ(reg.hits("test.site"), 0u);
}

// ---------------------------------------------------------------------------
// Worker hardening: a throwing worker latches a Status with shard and
// epoch context instead of taking the process down, and the runtime still
// tears down cleanly afterwards (parked but drainable).

TEST_F(FaultTest, WorkerThrowLatchesShardAndEpochContext) {
  ShardedConfig config;
  config.num_shards = 2;
  config.fabric = TestFabricConfig();
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  ASSERT_TRUE(fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0).ok());

  FaultSpec spec;
  spec.at_hits = {1};
  FaultRegistry::Global().Arm("runtime.worker_throw", spec);

  Rng rng(3);
  double t = 0.0;
  auto batch = MakeBatch(&rng, &t, 96, 1);
  const Status status = fab->ProcessBatch(batch);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.ToString().find("worker threw"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("epoch"), std::string::npos)
      << status.ToString();
  // The latched failure is sticky and keeps surfacing...
  auto again = MakeBatch(&rng, &t, 32, 1000);
  EXPECT_FALSE(fab->ProcessBatch(again).ok());
  // ...and the destructor below must still drain and join the workers
  // without hanging (the test would time out if it didn't).
}

// ---------------------------------------------------------------------------
// Queue-full shedding: a forced-full push drops exactly that shard's
// sub-batch and counts it; the producer is never wedged and the runtime
// keeps flowing afterwards.

TEST_F(FaultTest, ForcedQueueFullShedsTheSubBatch) {
  ShardedConfig config;
  config.num_shards = 1;  // one sub-batch per ProcessBatch = one hit each
  config.fabric = TestFabricConfig();
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  ASSERT_TRUE(fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0).ok());

  const std::uint64_t rejects_before =
      obs::GetCounter("craqr.admission.queue_rejects")->value();
  FaultSpec spec;
  spec.at_hits = {2};  // shed exactly the second batch
  FaultRegistry::Global().Arm("runtime.queue_full", spec);

  Rng rng(17);
  double t = 0.0;
  std::uint64_t next_id = 1;
  for (std::size_t b = 0; b < 4; ++b) {
    auto batch = MakeBatch(&rng, &t, 64, next_id);
    next_id += batch.size();
    ASSERT_TRUE(fab->ProcessBatch(batch).ok()) << "shedding must not error";
  }
  EXPECT_EQ(fab->tuples_routed(), 3u * 64u) << "exactly one batch shed";
  EXPECT_EQ(obs::GetCounter("craqr.admission.queue_rejects")->value(),
            rejects_before + 1);
}

// ---------------------------------------------------------------------------
// Credit-based delivery shedding per policy. One slow subscriber sheds per
// its policy; restoring credits re-delivers spooled epochs in order.

struct CreditHarness {
  std::unique_ptr<ShardedFabricator> fab;
  std::unique_ptr<ShardedFabricator> twin;  // uncredited reference
  query::QueryId id = 0;
  query::QueryId twin_id = 0;
  Rng rng_a{29};
  Rng rng_b{29};
  double t_a = 0.0, t_b = 0.0;
  std::uint64_t id_a = 1, id_b = 1;

  void Pump(std::size_t batches) {
    for (std::size_t b = 0; b < batches; ++b) {
      auto a = MakeBatch(&rng_a, &t_a, 96, id_a);
      auto c = MakeBatch(&rng_b, &t_b, 96, id_b);
      id_a += a.size();
      id_b += c.size();
      ASSERT_TRUE(fab->ProcessBatch(a).ok());
      ASSERT_TRUE(twin->ProcessBatch(c).ok());
    }
  }

  std::vector<std::uint64_t> Ids(ShardedFabricator* f, query::QueryId q) {
    std::vector<std::uint64_t> ids;
    const auto stream = f->GetStream(q);
    EXPECT_TRUE(stream.ok());
    if (stream.ok()) {
      for (const auto& tuple : stream->sink->tuples()) {
        ids.push_back(tuple.id);
      }
    }
    return ids;
  }
};

void MakeCreditHarness(ShedPolicy policy, std::size_t spool_limit,
                       CreditHarness* h) {
  ShardedConfig config;
  config.num_shards = 2;
  config.fabric = TestFabricConfig();
  config.admission.shed_policy = policy;
  config.admission.spool_limit_epochs = spool_limit;
  h->fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  h->twin = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  const auto q = h->fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 8.0);
  const auto p = h->twin->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 8.0);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(p.ok());
  h->id = q->id;
  h->twin_id = p->id;
}

TEST_F(FaultTest, SpoolPolicyHoldsEpochsUntilCreditsReturn) {
  CreditHarness h;
  MakeCreditHarness(ShedPolicy::kSpool, 64, &h);
  const std::uint64_t spooled_before =
      obs::GetCounter("craqr.admission.spooled")->value();
  EXPECT_EQ(h.fab->SetDeliveryCredits(999, 1).code(), StatusCode::kNotFound);
  ASSERT_TRUE(h.fab->SetDeliveryCredits(h.id, 0).ok());

  h.Pump(4);
  const auto spooled = h.fab->SpooledEpochs(h.id);
  ASSERT_TRUE(spooled.ok());
  EXPECT_GT(*spooled, 0u) << "nothing spooled; the policy never engaged";
  EXPECT_TRUE(h.Ids(h.fab.get(), h.id).empty())
      << "credit-less query must not receive deliveries";
  EXPECT_GT(obs::GetCounter("craqr.admission.spooled")->value(),
            spooled_before);

  // One credit drains exactly one spooled epoch (oldest first)...
  const std::uint64_t redelivered_before =
      obs::GetCounter("craqr.admission.delivered_spooled")->value();
  ASSERT_TRUE(h.fab->AddDeliveryCredits(h.id, 1).ok());
  EXPECT_EQ(*h.fab->SpooledEpochs(h.id), *spooled - 1);
  EXPECT_EQ(obs::GetCounter("craqr.admission.delivered_spooled")->value(),
            redelivered_before + 1);

  // ...and lifting the budget replays the rest in order: the delivered
  // stream ends up identical to the never-throttled twin's.
  ASSERT_TRUE(
      h.fab->SetDeliveryCredits(h.id, ShardedFabricator::kUnlimitedCredits)
          .ok());
  EXPECT_EQ(*h.fab->SpooledEpochs(h.id), 0u);
  ASSERT_TRUE(h.fab->Drain().ok());
  ASSERT_TRUE(h.twin->Drain().ok());
  const auto ids = h.Ids(h.fab.get(), h.id);
  EXPECT_FALSE(ids.empty());
  EXPECT_EQ(ids, h.Ids(h.twin.get(), h.twin_id));
}

TEST_F(FaultTest, RejectPolicyDropsImmediately) {
  CreditHarness h;
  MakeCreditHarness(ShedPolicy::kReject, 64, &h);
  const std::uint64_t rejected_before =
      obs::GetCounter("craqr.admission.rejected")->value();
  ASSERT_TRUE(h.fab->SetDeliveryCredits(h.id, 0).ok());
  h.Pump(4);
  EXPECT_EQ(*h.fab->SpooledEpochs(h.id), 0u) << "kReject must never spool";
  EXPECT_TRUE(h.Ids(h.fab.get(), h.id).empty());
  EXPECT_GT(obs::GetCounter("craqr.admission.rejected")->value(),
            rejected_before);

  // Rejected epochs are gone for good: after credits return, the slow
  // subscriber has a strict suffix of the twin's stream.
  ASSERT_TRUE(
      h.fab->SetDeliveryCredits(h.id, ShardedFabricator::kUnlimitedCredits)
          .ok());
  h.Pump(2);
  ASSERT_TRUE(h.fab->Drain().ok());
  ASSERT_TRUE(h.twin->Drain().ok());
  const auto ids = h.Ids(h.fab.get(), h.id);
  const auto full = h.Ids(h.twin.get(), h.twin_id);
  EXPECT_FALSE(ids.empty());
  ASSERT_LT(ids.size(), full.size());
  EXPECT_TRUE(std::equal(ids.rbegin(), ids.rend(), full.rbegin()))
      << "post-recovery deliveries must match the reference suffix";
}

TEST_F(FaultTest, DropOldestPolicyEvictsTheOldestSpooledEpoch) {
  CreditHarness h;
  MakeCreditHarness(ShedPolicy::kDropOldest, 2, &h);
  const std::uint64_t dropped_before =
      obs::GetCounter("craqr.admission.dropped")->value();
  ASSERT_TRUE(h.fab->SetDeliveryCredits(h.id, 0).ok());
  h.Pump(5);
  const auto spooled = h.fab->SpooledEpochs(h.id);
  ASSERT_TRUE(spooled.ok());
  EXPECT_LE(*spooled, 2u) << "spool must respect spool_limit_epochs";
  EXPECT_GT(*spooled, 0u);
  EXPECT_GT(obs::GetCounter("craqr.admission.dropped")->value(),
            dropped_before)
      << "five epochs through a two-epoch spool must evict";

  // What survives is the *newest* epochs; they deliver in order and match
  // the tail of the reference stream.
  ASSERT_TRUE(
      h.fab->SetDeliveryCredits(h.id, ShardedFabricator::kUnlimitedCredits)
          .ok());
  ASSERT_TRUE(h.fab->Drain().ok());
  ASSERT_TRUE(h.twin->Drain().ok());
  const auto ids = h.Ids(h.fab.get(), h.id);
  const auto full = h.Ids(h.twin.get(), h.twin_id);
  EXPECT_FALSE(ids.empty());
  ASSERT_LT(ids.size(), full.size());
  EXPECT_TRUE(std::equal(ids.rbegin(), ids.rend(), full.rbegin()));
}

// ---------------------------------------------------------------------------
// Watchdog: a stalled worker (injected) flips the runtime into degraded
// mode; recovery clears it.

TEST_F(FaultTest, WatchdogDetectsAStalledWorkerAndRecovers) {
  // Two shards: a one-shard runtime runs inline and has no worker to stall.
  ShardedConfig config;
  config.num_shards = 2;
  config.fabric = TestFabricConfig();
  config.admission.watchdog_interval_ms = 5;
  config.admission.watchdog_stall_ticks = 2;
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  ASSERT_TRUE(fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0).ok());
  EXPECT_FALSE(fab->degraded());

  const std::uint64_t stalls_before =
      obs::GetCounter("craqr.fault.worker_stalls")->value();
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 1;
  spec.param = 400;  // ms the worker sleeps on the first batch
  FaultRegistry::Global().Arm("runtime.worker_stall", spec);

  // Three pipelined batches: the first worker to pick up a sub-batch
  // sleeps on it while its share of the other two sits in the queue — a
  // non-empty queue with no completions, which is exactly the stall
  // signature the watchdog samples for.
  Rng rng(41);
  double t = 0.0;
  std::uint64_t next_id = 1;
  for (std::size_t b = 0; b < 3; ++b) {
    auto batch = MakeBatch(&rng, &t, 64, next_id);
    next_id += batch.size();
    ASSERT_TRUE(fab->EnqueueBatch(batch).ok());
  }
  bool saw_degraded = false;
  for (int i = 0; i < 60 && !saw_degraded; ++i) {
    saw_degraded = fab->degraded();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(saw_degraded) << "watchdog never flagged the stalled worker";
  EXPECT_GT(obs::GetCounter("craqr.fault.worker_stalls")->value(),
            stalls_before);

  // Once the stall passes and the queue drains, degraded mode clears.
  ASSERT_TRUE(fab->Drain().ok());
  bool cleared = false;
  for (int i = 0; i < 60 && !cleared; ++i) {
    cleared = !fab->degraded();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(cleared) << "degraded mode never cleared after recovery";
}

// ---------------------------------------------------------------------------
// Allocation-failure site: a failing checkpoint surfaces ResourceExhausted
// and the next attempt (fault passed) succeeds.

TEST_F(FaultTest, AllocFailureFailsTheCheckpointOnce) {
  ShardedConfig config;
  config.num_shards = 2;
  config.fabric = TestFabricConfig();
  config.checkpoint.enabled = true;
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  ASSERT_TRUE(fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0).ok());

  // Armed only now — Make and the insert's auto-refresh already took
  // their checkpoints cleanly.
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 1;
  FaultRegistry::Global().Arm("runtime.alloc_fail", spec);
  EXPECT_EQ(fab->Checkpoint().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(fab->HasCheckpoint()) << "the old snapshot must survive";
  ASSERT_TRUE(fab->Checkpoint().ok()) << "fault spent; retry must succeed";
}

}  // namespace
}  // namespace runtime
}  // namespace craqr
