#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fabric/fabricator.h"
#include "obs/metrics.h"
#include "ops/value_pool.h"
#include "runtime/sharded_fabricator.h"

namespace craqr {
namespace runtime {
namespace {

constexpr ops::AttributeId kRain = 0;
constexpr ops::AttributeId kTemp = 1;

geom::Grid TestGrid() {
  return geom::Grid::Make(geom::Rect(0, 0, 4, 4), 16).MoveValue();
}

fabric::FabricConfig TestFabricConfig() {
  fabric::FabricConfig config;
  config.flatten_batch_size = 32;
  config.seed = 0xC0FFEE;
  return config;
}

/// Deterministic batch of `n` tuples spread over the grid, with times
/// advancing from *t (monotone across batches, as the handler produces).
std::vector<ops::Tuple> MakeBatch(Rng* rng, double* t, std::size_t n,
                                  std::uint64_t first_id) {
  std::vector<ops::Tuple> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops::Tuple tuple;
    tuple.id = first_id + i;
    tuple.attribute = (i % 3 == 0) ? kTemp : kRain;
    *t += 0.002;
    tuple.point = geom::SpaceTimePoint{*t, rng->Uniform(0.0, 4.0),
                                       rng->Uniform(0.0, 4.0)};
    batch.push_back(tuple);
  }
  return batch;
}

/// What one workload run delivered, independent of execution order: per
/// query the count and the sorted ids of delivered tuples, plus the
/// router-level aggregates.
struct WorkloadResult {
  std::uint64_t tuples_routed = 0;
  std::uint64_t tuples_unrouted = 0;
  std::map<query::QueryId, std::uint64_t> delivered_counts;
  std::map<query::QueryId, std::vector<std::uint64_t>> delivered_ids;
};

/// Drives the same churn workload against either a StreamFabricator or a
/// ShardedFabricator (identical public verbs) and snapshots what each
/// live query's sink received. Invariants are validated mid-churn.
/// (Out-parameter because ASSERT_* requires a void-returning function.)
template <typename Fab>
void RunChurnWorkload(Fab* fab, WorkloadResult* result) {
  Rng rng(99);
  double t = 0.0;
  std::uint64_t next_id = 1;
  auto pump = [&](std::size_t batches) {
    for (std::size_t b = 0; b < batches; ++b) {
      auto batch = MakeBatch(&rng, &t, 96, next_id);
      next_id += batch.size();
      ASSERT_TRUE(fab->ProcessBatch(batch).ok());
    }
  };

  const auto q1 = fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0);
  ASSERT_TRUE(q1.ok());
  const auto q2 = fab->InsertQuery(kRain, geom::Rect(1, 1, 3, 3), 3.0);
  ASSERT_TRUE(q2.ok());
  const auto q3 = fab->InsertQuery(kTemp, geom::Rect(0, 0, 2, 4), 4.0);
  ASSERT_TRUE(q3.ok());
  pump(5);
  ASSERT_TRUE(fab->ValidateInvariants().ok());

  // Churn: drop the nested query (exercises T-chain re-merge on every
  // overlapped cell), keep pumping, add a fresh overlapping query.
  ASSERT_TRUE(fab->RemoveQuery(q2->id).ok());
  pump(3);
  const auto q4 = fab->InsertQuery(kRain, geom::Rect(2, 0, 4, 3), 2.0);
  ASSERT_TRUE(q4.ok());
  pump(4);
  ASSERT_TRUE(fab->ValidateInvariants().ok());

  result->tuples_routed = fab->tuples_routed();
  result->tuples_unrouted = fab->tuples_unrouted();
  for (const auto id : {q1->id, q3->id, q4->id}) {
    const auto stream = fab->GetStream(id);
    ASSERT_TRUE(stream.ok());
    result->delivered_counts[id] = stream->sink->total_received();
    std::vector<std::uint64_t> ids;
    for (const auto& tuple : stream->sink->tuples()) {
      ids.push_back(tuple.id);
    }
    std::sort(ids.begin(), ids.end());
    result->delivered_ids[id] = std::move(ids);
  }
}

WorkloadResult RunSharded(std::size_t num_shards) {
  ShardedConfig config;
  config.num_shards = num_shards;
  config.fabric = TestFabricConfig();
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  WorkloadResult result;
  RunChurnWorkload(fab.get(), &result);
  return result;
}

WorkloadResult RunSingleThreaded() {
  auto fab =
      fabric::StreamFabricator::Make(TestGrid(), TestFabricConfig())
          .MoveValue();
  WorkloadResult result;
  RunChurnWorkload(fab.get(), &result);
  return result;
}

void ExpectSameDelivery(const WorkloadResult& a, const WorkloadResult& b) {
  EXPECT_EQ(a.tuples_routed, b.tuples_routed);
  EXPECT_EQ(a.tuples_unrouted, b.tuples_unrouted);
  EXPECT_EQ(a.delivered_counts, b.delivered_counts);
  EXPECT_EQ(a.delivered_ids, b.delivered_ids);
}

TEST(ShardedEquivalenceTest, MatchesSingleThreadedFabricatorUnderChurn) {
  const WorkloadResult reference = RunSingleThreaded();
  ASSERT_FALSE(reference.delivered_counts.empty());
  std::uint64_t total = 0;
  for (const auto& [id, count] : reference.delivered_counts) {
    (void)id;
    total += count;
  }
  ASSERT_GT(total, 0u) << "workload delivered nothing; test is vacuous";
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    ExpectSameDelivery(reference, RunSharded(shards));
  }
}

TEST(ShardedEquivalenceTest, InsertsOnGridsWithInexactCellWidths) {
  // 15 x 15 cells over 10 km: the cell width 2/3 km is inexact in binary.
  // When a cell's far edge missed its neighbour's near edge by an ulp, the
  // cross-shard merge stage's Union rejected this query as not disjoint.
  const auto grid =
      geom::Grid::Make(geom::Rect(0, 0, 10, 10), 225).MoveValue();
  const geom::Rect region(4, 1, 5.5, 2);
  ShardedConfig config;
  config.num_shards = 3;
  config.fabric = TestFabricConfig();
  auto sharded = ShardedFabricator::Make(grid, config).MoveValue();
  auto single =
      fabric::StreamFabricator::Make(grid, TestFabricConfig()).MoveValue();
  const auto q_sharded = sharded->InsertQuery(kRain, region, 1.0);
  ASSERT_TRUE(q_sharded.ok()) << q_sharded.status().ToString();
  const auto q_single = single->InsertQuery(kRain, region, 1.0);
  ASSERT_TRUE(q_single.ok()) << q_single.status().ToString();

  // Traffic around the query, plus one tuple on every cell seam the query
  // crosses: both sides of a seam belong to the query's stream.
  Rng rng(31);
  double t = 0.0;
  std::uint64_t next_id = 1;
  for (int b = 0; b < 6; ++b) {
    std::vector<ops::Tuple> batch;
    for (int i = 0; i < 400; ++i) {
      ops::Tuple tuple;
      tuple.id = next_id++;
      tuple.attribute = kRain;
      t += 0.01;
      tuple.point = geom::SpaceTimePoint{t, rng.Uniform(3.0, 6.5),
                                         rng.Uniform(0.5, 2.5)};
      batch.push_back(tuple);
    }
    for (std::uint32_t q = 6; q <= 8; ++q) {
      ops::Tuple tuple;
      tuple.id = next_id++;
      tuple.attribute = kRain;
      t += 0.01;
      const geom::Rect cell = grid.CellRect(geom::CellIndex{q, 2});
      tuple.point = geom::SpaceTimePoint{t, cell.x_min(), cell.y_min()};
      batch.push_back(tuple);
    }
    std::vector<ops::Tuple> copy = batch;
    ASSERT_TRUE(sharded->ProcessBatch(batch).ok());
    ASSERT_TRUE(single->ProcessBatch(copy).ok());
  }
  ASSERT_TRUE(sharded->ValidateInvariants().ok());
  ASSERT_TRUE(single->ValidateInvariants().ok());
  const auto s_sharded = sharded->GetStream(q_sharded->id);
  const auto s_single = single->GetStream(q_single->id);
  ASSERT_TRUE(s_sharded.ok() && s_single.ok());
  EXPECT_GT(s_single->sink->total_received(), 0u);
  EXPECT_EQ(s_sharded->sink->total_received(),
            s_single->sink->total_received());
}

TEST(ShardedEquivalenceTest, FixedShardCountIsDeterministic) {
  ExpectSameDelivery(RunSharded(3), RunSharded(3));
}

TEST(ShardedEquivalenceTest, CellsPartitionAcrossShards) {
  ShardedConfig config;
  config.num_shards = 4;
  config.fabric = TestFabricConfig();
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  EXPECT_EQ(fab->num_shards(), 4u);
  // Every cell maps to exactly one shard, stably.
  for (std::uint32_t r = 0; r < 4; ++r) {
    for (std::uint32_t c = 0; c < 4; ++c) {
      const geom::CellIndex index{r, c};
      const std::size_t shard = fab->ShardForCell(index);
      EXPECT_LT(shard, 4u);
      EXPECT_EQ(shard, fab->ShardForCell(index));
    }
  }
}

TEST(ShardedEquivalenceTest, PipelinedEnqueueMatchesSynchronousBatches) {
  ShardedConfig config;
  config.num_shards = 4;
  config.queue_capacity = 4;  // exercise back-pressure
  config.fabric = TestFabricConfig();
  auto sync_fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  auto async_fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  const auto qs = sync_fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 5.0);
  const auto qa = async_fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 5.0);
  ASSERT_TRUE(qs.ok());
  ASSERT_TRUE(qa.ok());

  Rng rng_s(7), rng_a(7);
  double t_s = 0.0, t_a = 0.0;
  std::uint64_t id_s = 1, id_a = 1;
  for (int b = 0; b < 12; ++b) {
    auto batch = MakeBatch(&rng_s, &t_s, 64, id_s);
    id_s += batch.size();
    ASSERT_TRUE(sync_fab->ProcessBatch(batch).ok());
    batch = MakeBatch(&rng_a, &t_a, 64, id_a);
    id_a += batch.size();
    ASSERT_TRUE(async_fab->EnqueueBatch(batch).ok());
  }
  ASSERT_TRUE(async_fab->Drain().ok());
  EXPECT_EQ(sync_fab->tuples_routed(), async_fab->tuples_routed());
  EXPECT_EQ(sync_fab->GetStream(qs->id)->sink->total_received(),
            async_fab->GetStream(qa->id)->sink->total_received());
  EXPECT_TRUE(async_fab->ValidateInvariants().ok());
}

TEST(ShardedStressTest, ConcurrentQueryChurnWhileBatchesFlow) {
  ShardedConfig config;
  config.num_shards = 4;
  config.queue_capacity = 2;  // small queues so back-pressure engages
  config.fabric = TestFabricConfig();
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();

  // One long-lived query so tuples always have somewhere to land.
  const auto anchor = fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 8.0);
  ASSERT_TRUE(anchor.ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches_pumped{0};
  std::atomic<std::uint64_t> churn_cycles{0};

  std::thread pump([&] {
    Rng rng(41);
    double t = 0.0;
    std::uint64_t next_id = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      auto batch = MakeBatch(&rng, &t, 48, next_id);
      next_id += batch.size();
      ASSERT_TRUE(fab->EnqueueBatch(batch).ok());
      batches_pumped.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::thread churn([&] {
    Rng rng(43);
    for (int i = 0; i < 60; ++i) {
      const double x0 = rng.Uniform(0.0, 2.0);
      const double y0 = rng.Uniform(0.0, 2.0);
      const auto q = fab->InsertQuery(
          (i % 2 == 0) ? kRain : kTemp,
          geom::Rect(x0, y0, x0 + 2.0, y0 + 2.0), 1.0 + (i % 5));
      ASSERT_TRUE(q.ok());
      if (i % 3 != 0) {
        ASSERT_TRUE(fab->RemoveQuery(q->id).ok());
      }
      churn_cycles.fetch_add(1, std::memory_order_relaxed);
    }
  });

  churn.join();
  stop = true;
  pump.join();

  ASSERT_TRUE(fab->Drain().ok());
  EXPECT_TRUE(fab->ValidateInvariants().ok());
  EXPECT_EQ(churn_cycles.load(), 60u);
  EXPECT_GT(batches_pumped.load(), 0u);

  const ShardedStats stats = fab->Snapshot();
  // Every pumped tuple was either routed into some shard topology or
  // counted as unrouted; none vanish.
  EXPECT_EQ(stats.tuples_routed + stats.tuples_unrouted,
            batches_pumped.load() * 48u);
  // 60 churn queries, 1/3 kept (i % 3 == 0), plus the anchor.
  EXPECT_EQ(stats.live_queries, 21u);
  EXPECT_GT(stats.tuples_routed, 0u);
  EXPECT_GT(fab->GetStream(anchor->id)->sink->total_received(), 0u);
}

TEST(ShardedEquivalenceTest, ViolationCallbackMayReenterTheRuntime) {
  // The callback is user code (budget tuning); it must be able to call
  // back into the runtime without deadlocking on the router mutex.
  ShardedConfig config;
  config.num_shards = 2;
  config.fabric = TestFabricConfig();
  config.fabric.flatten_batch_size = 16;  // frequent F reports
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  const auto q = fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0);
  ASSERT_TRUE(q.ok());

  std::uint64_t reports = 0;
  fab->SetViolationCallback(
      [&](ops::AttributeId, const geom::CellIndex&,
          const ops::FlattenBatchReport&) {
        ++reports;
        EXPECT_TRUE(fab->GetStream(q->id).ok());   // re-entrant read
        EXPECT_EQ(fab->NumQueries(), 1u);          // re-entrant read
      });

  Rng rng(3);
  double t = 0.0;
  std::uint64_t next_id = 1;
  for (int b = 0; b < 10; ++b) {
    auto batch = MakeBatch(&rng, &t, 96, next_id);
    next_id += batch.size();
    ASSERT_TRUE(fab->ProcessBatch(batch).ok());
  }
  EXPECT_GT(reports, 0u) << "no F reports fired; callback path untested";
}

/// One violation replay observation: enough fields to pin identity AND
/// order across execution modes.
struct ReplayRecord {
  ops::AttributeId attribute = 0;
  std::uint32_t q = 0;
  std::uint32_t r = 0;
  double completed_at = 0.0;
  double violation_percent = 0.0;

  bool operator==(const ReplayRecord& o) const {
    return attribute == o.attribute && q == o.q && r == o.r &&
           completed_at == o.completed_at &&
           violation_percent == o.violation_percent;
  }
};

TEST(ShardedEpochTest, DrainThroughReleasesFeedbackExactlyPerEpoch) {
  // The pipelined engine's contract rests on this: enqueue a window of
  // epoch-stamped batches up front (shards may race arbitrarily far
  // ahead), then drain epoch by epoch — the violation callback must fire
  // exactly the reports of each epoch at each drain, in exactly the order
  // the synchronous per-batch runtime fires them.
  ShardedConfig config;
  config.num_shards = 2;
  config.fabric = TestFabricConfig();
  config.fabric.flatten_batch_size = 16;  // frequent F reports

  constexpr std::size_t kBatches = 8;
  std::vector<std::vector<ops::Tuple>> batches;
  {
    Rng rng(77);
    double t = 0.0;
    std::uint64_t next_id = 1;
    for (std::size_t b = 0; b < kBatches; ++b) {
      batches.push_back(MakeBatch(&rng, &t, 96, next_id));
      next_id += batches.back().size();
    }
  }

  // Reference: synchronous ProcessBatch, recording the replay sequence
  // and the report count after every batch boundary.
  std::vector<ReplayRecord> ref_records;
  std::vector<std::size_t> ref_boundary_counts;
  {
    auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
    ASSERT_TRUE(fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0).ok());
    fab->SetViolationCallback([&](ops::AttributeId attribute,
                                  const geom::CellIndex& cell,
                                  const ops::FlattenBatchReport& report) {
      ref_records.push_back({attribute, cell.q, cell.r, report.completed_at,
                             report.violation_percent});
    });
    for (const auto& batch : batches) {
      ASSERT_TRUE(fab->ProcessBatch(batch).ok());
      ref_boundary_counts.push_back(ref_records.size());
    }
  }
  ASSERT_GT(ref_records.size(), 0u) << "no F reports fired; test is vacuous";

  // Pipelined: everything enqueued first, horizon engaged at 0 so nothing
  // may replay early, then drained one epoch at a time.
  std::vector<ReplayRecord> records;
  std::vector<std::size_t> boundary_counts;
  {
    auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
    ASSERT_TRUE(fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0).ok());
    fab->SetReplayHorizon(0);
    fab->SetViolationCallback([&](ops::AttributeId attribute,
                                  const geom::CellIndex& cell,
                                  const ops::FlattenBatchReport& report) {
      records.push_back({attribute, cell.q, cell.r, report.completed_at,
                         report.violation_percent});
    });
    for (std::size_t b = 0; b < kBatches; ++b) {
      ops::TupleBatch columns(batches[b]);
      ASSERT_TRUE(
          fab->EnqueueBatch(columns, static_cast<std::uint64_t>(b + 1)).ok());
    }
    // A full Drain() may only flush deliveries — the horizon still holds
    // every report.
    ASSERT_TRUE(fab->Drain().ok());
    EXPECT_EQ(records.size(), 0u);
    for (std::size_t e = 1; e <= kBatches; ++e) {
      ASSERT_TRUE(fab->DrainThrough(e).ok());
      boundary_counts.push_back(records.size());
    }
    EXPECT_TRUE(fab->ValidateInvariants().ok());
  }

  // Same reports, same order, released at the same epoch boundaries.
  EXPECT_EQ(boundary_counts, ref_boundary_counts);
  ASSERT_EQ(records.size(), ref_records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_TRUE(records[i] == ref_records[i]);
  }
}

TEST(ShardedEpochTest, EpochsMustBeMonotone) {
  ShardedConfig config;
  config.num_shards = 2;
  config.fabric = TestFabricConfig();
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  Rng rng(9);
  double t = 0.0;
  auto batch = MakeBatch(&rng, &t, 8, 1);
  ops::TupleBatch columns(batch);
  ASSERT_TRUE(fab->EnqueueBatch(columns, 5).ok());
  columns = ops::TupleBatch(batch);
  EXPECT_EQ(fab->EnqueueBatch(columns, 3).code(),
            StatusCode::kInvalidArgument);
  columns = ops::TupleBatch(batch);
  EXPECT_EQ(fab->EnqueueBatch(columns, 0).code(),
            StatusCode::kInvalidArgument);
  // Equal epochs are rejected too: a split epoch could split its delivery
  // group across two merge-stage flushes (strictly increasing required).
  columns = ops::TupleBatch(batch);
  EXPECT_EQ(fab->EnqueueBatch(columns, 5).code(),
            StatusCode::kInvalidArgument);
  columns = ops::TupleBatch(batch);
  EXPECT_TRUE(fab->EnqueueBatch(columns, 6).ok());
  EXPECT_TRUE(fab->Drain().ok());
}

TEST(ShardedInlineTest, OneShardRunsOnTheCallersThread) {
  // A one-shard runtime starts no worker: its shard runs control tasks and
  // batches on the caller's thread, so an enqueued epoch is complete —
  // violation reports fired, deliveries in the outbox — on return.
  const std::thread::id caller = std::this_thread::get_id();
  fabric::FabricConfig fabric_config = TestFabricConfig();
  fabric_config.flatten_batch_size = 16;  // frequent F reports
  Rng rng(13);
  double t = 0.0;
  const std::vector<ops::Tuple> tuples = MakeBatch(&rng, &t, 96, 1);

  auto shard = Shard::Make(0, TestGrid(), fabric_config, /*queue_capacity=*/4,
                           std::string(), 0, nullptr, /*run_inline=*/true)
                   .MoveValue();
  std::thread::id control_thread;
  Status inserted = Status::Internal("control task did not run");
  ASSERT_TRUE(shard
                  ->RunControl([&](fabric::StreamFabricator& f) {
                    control_thread = std::this_thread::get_id();
                    const geom::Rect region(0, 0, 4, 4);
                    inserted =
                        f.InsertQueryPartial(
                             kRain, region, 6.0,
                             TestGrid().Overlaps(region).MoveValue(),
                             [&shard](const ops::TupleBatch& batch) {
                               shard->DeliverBatch(1, batch);
                             })
                            .status();
                  })
                  .ok());
  ASSERT_TRUE(inserted.ok()) << inserted.ToString();
  EXPECT_EQ(control_thread, caller);
  std::vector<std::thread::id> report_threads;
  shard->fabricator().SetViolationCallback(
      [&](ops::AttributeId, const geom::CellIndex&,
          const ops::FlattenBatchReport&) {
        report_threads.push_back(std::this_thread::get_id());
      });
  ASSERT_TRUE(shard->EnqueueBatch(tuples, /*epoch=*/1).ok());
  EXPECT_EQ(shard->batches_processed(), 1u);
  EXPECT_EQ(shard->queue_depth(), 0u);
  ASSERT_FALSE(report_threads.empty()) << "no F reports fired";
  for (const std::thread::id id : report_threads) {
    EXPECT_EQ(id, caller);
  }
  EXPECT_EQ(shard->TakeOutbox(1).delivered.count(1), 1u);
  EXPECT_TRUE(shard->WaitForEpochCompleted(1).ok());  // nothing to wait on

  // The runtime around it: the shard's load counter has the epoch before
  // any drain, and replayed reports reach the callback on this thread too.
  ShardedConfig config;
  config.num_shards = 1;
  config.fabric = fabric_config;
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  ASSERT_TRUE(fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0).ok());
  std::vector<std::thread::id> callback_threads;
  fab->SetViolationCallback([&](ops::AttributeId, const geom::CellIndex&,
                                const ops::FlattenBatchReport&) {
    callback_threads.push_back(std::this_thread::get_id());
  });
  ops::TupleBatch columns(tuples);
  ASSERT_TRUE(fab->EnqueueBatch(columns, 1).ok());
  EXPECT_EQ(obs::GetCounter(fab->metrics_scope() + ".shard0.batches_processed")
                ->value(),
            1u);
  ASSERT_TRUE(fab->DrainThrough(1).ok());
  ASSERT_FALSE(callback_threads.empty()) << "no F reports replayed";
  for (const std::thread::id id : callback_threads) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ShardedLoadTest, PerShardLoadCountersAccountForRoutedWork) {
  ShardedConfig config;
  config.num_shards = 4;
  config.fabric = TestFabricConfig();
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  ASSERT_TRUE(fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0).ok());
  ASSERT_TRUE(fab->InsertQuery(kTemp, geom::Rect(0, 0, 2, 4), 4.0).ok());

  Rng rng(55);
  double t = 0.0;
  std::uint64_t next_id = 1;
  std::uint64_t pumped = 0;
  for (int b = 0; b < 10; ++b) {
    auto batch = MakeBatch(&rng, &t, 96, next_id);
    next_id += batch.size();
    pumped += batch.size();
    ASSERT_TRUE(fab->EnqueueBatch(batch).ok());
  }
  ASSERT_TRUE(fab->Drain().ok());

  const auto stats = fab->TrySnapshot();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->per_shard.size(), 4u);
  std::uint64_t enqueued = 0, processed = 0, batches_enq = 0, batches_done = 0;
  std::uint64_t busy = 0;
  for (const auto& load : stats->per_shard) {
    enqueued += load.tuples_enqueued;
    processed += load.tuples_processed;
    batches_enq += load.batches_enqueued;
    batches_done += load.batches_processed;
    busy += load.busy_ns;
    EXPECT_EQ(load.queue_depth, 0u);  // post-barrier snapshot
  }
  // The router partitions every in-grid tuple to exactly one shard; the
  // workers have processed everything after the drain.
  EXPECT_EQ(processed, enqueued);
  EXPECT_EQ(batches_done, batches_enq);
  EXPECT_LE(enqueued, pumped);
  EXPECT_EQ(stats->tuples_routed + stats->tuples_unrouted, pumped);
  EXPECT_LE(stats->tuples_routed, enqueued);
  EXPECT_GT(busy, 0u);
  EXPECT_EQ(stats->value_pool_bytes, ops::ValuePool::Global().ApproxBytes());
}

TEST(ShardedLoadTest, RouterTailHistogramsCountCollectsAndMerges) {
  ShardedConfig config;
  config.num_shards = 3;
  config.fabric = TestFabricConfig();
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  // Multi-cell queries only: each merge stage is headed by a Union, and a
  // sharded runtime's only Union operators are its router merge stages, so
  // the process-wide U dispatch counter counts merge-stage deliveries.
  const auto q1 = fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 6.0);
  const auto q2 = fab->InsertQuery(kTemp, geom::Rect(0, 0, 2, 4), 4.0);
  ASSERT_TRUE(q1.ok() && q2.ok());
  const std::string scope = fab->metrics_scope();
  obs::LogHistogram* collect = obs::GetHistogram(scope + ".router.collect_ns");
  obs::LogHistogram* merge = obs::GetHistogram(scope + ".router.merge_ns");
  obs::Counter* union_pushes = obs::GetCounter("craqr.ops.U.evaluations");

  const bool was_enabled = obs::IsEnabled();
  obs::SetEnabled(true);
  const std::uint64_t collect0 = collect->Snapshot().count;
  const std::uint64_t merge0 = merge->Snapshot().count;
  const std::uint64_t union0 = union_pushes->value();
  Rng rng(61);
  double t = 0.0;
  std::uint64_t next_id = 1;
  // Deliveries visible at the sinks: (batch, query) pairs whose sink grew.
  std::uint64_t seen_deliveries = 0;
  std::uint64_t received[2] = {0, 0};
  constexpr int kBatches = 8;
  for (int b = 0; b < kBatches; ++b) {
    auto batch = MakeBatch(&rng, &t, 96, next_id);
    next_id += batch.size();
    ASSERT_TRUE(fab->ProcessBatch(batch).ok());
    int k = 0;
    for (const auto id : {q1->id, q2->id}) {
      const std::uint64_t now = fab->GetStream(id)->sink->total_received();
      seen_deliveries += now > received[k] ? 1 : 0;
      received[k++] = now;
    }
  }
  // ProcessBatch collects exactly once; each delivered (epoch, query)
  // records one merge.
  EXPECT_EQ(collect->Snapshot().count - collect0,
            static_cast<std::uint64_t>(kBatches));
  const std::uint64_t merges = merge->Snapshot().count - merge0;
  EXPECT_EQ(merges, union_pushes->value() - union0);
  EXPECT_GE(merges, seen_deliveries);
  EXPECT_GT(seen_deliveries, 0u);
  EXPECT_LE(merges, 2u * kBatches);

  // Observation-gated: with obs off neither histogram moves.
  obs::SetEnabled(false);
  const std::uint64_t collect1 = collect->Snapshot().count;
  const std::uint64_t merge1 = merge->Snapshot().count;
  auto batch = MakeBatch(&rng, &t, 96, next_id);
  ASSERT_TRUE(fab->ProcessBatch(batch).ok());
  obs::SetEnabled(was_enabled);
  EXPECT_EQ(collect->Snapshot().count, collect1);
  EXPECT_EQ(merge->Snapshot().count, merge1);
}

TEST(ShardedStressTest, DestructorJoinsWorkersWithQueuedWork) {
  ShardedConfig config;
  config.num_shards = 4;
  config.fabric = TestFabricConfig();
  auto fab = ShardedFabricator::Make(TestGrid(), config).MoveValue();
  ASSERT_TRUE(fab->InsertQuery(kRain, geom::Rect(0, 0, 4, 4), 4.0).ok());
  Rng rng(5);
  double t = 0.0;
  for (int b = 0; b < 8; ++b) {
    ASSERT_TRUE(
        fab->EnqueueBatch(MakeBatch(&rng, &t, 32, 1 + 32 * b)).ok());
  }
  // Destruction with work still queued must not hang or crash.
  fab.reset();
}

}  // namespace
}  // namespace runtime
}  // namespace craqr
