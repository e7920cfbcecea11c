#include "core/engine.h"

#include <cmath>
#include <limits>

#include "common/macros.h"
#include "obs/exporter.h"
#include "ops/value_pool.h"

namespace craqr {
namespace engine {

CraqrEngine::CraqrEngine(sensing::CrowdWorld world, const geom::Grid& grid,
                         const EngineConfig& config,
                         std::unique_ptr<fabric::StreamFabricator> fabricator,
                         std::unique_ptr<runtime::ShardedFabricator> sharded,
                         server::BudgetManager budgets,
                         server::IncentiveController incentives)
    : world_(std::move(world)),
      grid_(grid),
      config_(config),
      fabricator_(std::move(fabricator)),
      sharded_(std::move(sharded)),
      budgets_(std::move(budgets)),
      incentives_(std::move(incentives)) {
  pipelined_ = sharded_ != nullptr && config_.pipeline_depth >= 2;
  defer_feedback_ = !pipelined_ && config_.pipeline_depth >= 2;
  step_batches_.resize(pipelined_ ? config_.pipeline_depth : 1);
  // One registry lookup each at construction; Step() then records through
  // the cached pointers.
  phase_world_ns_ = obs::GetHistogram("craqr.engine.phase.world_ns");
  phase_handler_ns_ = obs::GetHistogram("craqr.engine.phase.handler_ns");
  phase_drain_ns_ = obs::GetHistogram("craqr.engine.phase.drain_ns");
  phase_dispatch_ns_ = obs::GetHistogram("craqr.engine.phase.dispatch_ns");
  steps_ = obs::GetCounter("craqr.engine.steps");
  trace_ = obs::Tracer::Global().CreateRing("craqr.engine",
                                            config_.trace_capacity);
  if (pipelined_) {
    // Engage the runtime's epoch horizon before any batch flows: no
    // feedback may leak out before its contracted step, even through an
    // early Stats() / query-churn drain.
    sharded_->SetReplayHorizon(0);
  }
}

Result<std::unique_ptr<CraqrEngine>> CraqrEngine::Make(
    sensing::CrowdWorld world, const EngineConfig& config) {
  if (!(config.step_dt > 0.0)) {
    return Status::InvalidArgument("step_dt must be > 0");
  }
  if (config.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (config.pipeline_depth < 1 || config.pipeline_depth > 1024) {
    return Status::InvalidArgument(
        "pipeline_depth must be in [1, 1024] (got " +
        std::to_string(config.pipeline_depth) + ")");
  }
  CRAQR_ASSIGN_OR_RETURN(
      geom::Grid grid,
      geom::Grid::Make(world.population().region(), config.grid_h));
  // The handler asks for sensors one grid cell at a time; on the grid's own
  // buckets each answer is one bucket of the index.
  CRAQR_RETURN_NOT_OK(world.AlignTo(grid));
  // Effective governance knobs: the scalar budget wins over the struct's.
  runtime::MemoryGovernorConfig memory = config.memory;
  if (config.memory_budget_bytes > 0) {
    memory.budget_bytes = config.memory_budget_bytes;
  }
  std::unique_ptr<fabric::StreamFabricator> fabricator;
  std::unique_ptr<runtime::ShardedFabricator> sharded;
  if (config.num_shards == 1) {
    CRAQR_ASSIGN_OR_RETURN(fabricator,
                           fabric::StreamFabricator::Make(grid, config.fabric));
  } else {
    runtime::ShardedConfig sc;
    sc.num_shards = config.num_shards;
    sc.queue_capacity = config.shard_queue_capacity;
    sc.fabric = config.fabric;
    sc.trace_capacity = config.trace_capacity;
    sc.enable_stealing = config.enable_work_stealing;
    sc.enable_rebalancing = config.rebalance_every_steps > 0;
    sc.rebalance = config.rebalance;
    sc.admission = config.admission;
    sc.checkpoint = config.checkpoint;
    if (config.checkpoint_every_steps > 0) {
      sc.checkpoint.enabled = true;  // a cadence without snapshots is moot
    }
    sc.memory = memory;
    CRAQR_ASSIGN_OR_RETURN(sharded, runtime::ShardedFabricator::Make(grid, sc));
  }
  CRAQR_ASSIGN_OR_RETURN(server::BudgetManager budgets,
                         server::BudgetManager::Make(config.budget));
  CRAQR_ASSIGN_OR_RETURN(server::IncentiveController incentives,
                         server::IncentiveController::Make(config.incentive));

  auto engine = std::unique_ptr<CraqrEngine>(
      new CraqrEngine(std::move(world), grid, config, std::move(fabricator),
                      std::move(sharded), std::move(budgets),
                      std::move(incentives)));

  if (engine->fabricator_ != nullptr && memory.budget_bytes > 0) {
    // Single-fabricator governance: the engine owns the governor (the
    // sharded runtime builds its own in ShardedFabricator::Make) and the
    // governed pool runs generational so reclamation can retire one-shot
    // strings wholesale.
    engine->governor_ = std::make_unique<runtime::MemoryGovernor>(memory);
    ops::ValuePool& pool = config.fabric.value_pool != nullptr
                               ? *config.fabric.value_pool
                               : ops::ValuePool::Global();
    pool.EnableGenerations();
  }

  // The handler needs stable pointers into the engine, so it is built
  // after the engine object exists.
  CRAQR_ASSIGN_OR_RETURN(
      server::RequestResponseHandler handler,
      server::RequestResponseHandler::Make(&engine->world_, &engine->budgets_,
                                           grid, config.handler));
  engine->handler_.emplace(std::move(handler));

  // Budget tuning (paper Section V): every F-operator batch report feeds
  // N_v into the budget manager; optionally incentives react once budgets
  // saturate (Section VI extension).
  CraqrEngine* raw = engine.get();
  const fabric::ViolationCallback on_violation =
      [raw](ops::AttributeId attribute, const geom::CellIndex& cell,
            const ops::FlattenBatchReport& report) {
        raw->OnViolationReport(attribute, cell, report);
      };
  if (engine->fabricator_ != nullptr) {
    engine->fabricator_->SetViolationCallback(on_violation);
  } else {
    // Shard workers buffer reports; the runtime replays them on the
    // engine's thread at batch boundaries, so this stays single-threaded.
    engine->sharded_->SetViolationCallback(on_violation);
  }
  engine->budgets_.SetInfeasibleCallback(
      [raw](const server::BudgetKey& key, double budget) {
        (void)budget;
        raw->infeasible_log_.push_back(key);
      });
  return engine;
}

void CraqrEngine::OnViolationReport(ops::AttributeId attribute,
                                    const geom::CellIndex& cell,
                                    const ops::FlattenBatchReport& report) {
  if (defer_feedback_) {
    // Synchronous path with pipeline_depth D >= 2: the fabricator replays
    // this report during step e's processing, but the epoch contract says
    // it takes effect at step e + D - 1 — park it until then. (On the
    // pipelined path the runtime's epoch horizon does the parking and
    // reports arrive here exactly when due.)
    deferred_feedback_.push_back(
        {step_count_ + config_.pipeline_depth - 1, attribute, cell, report});
    return;
  }
  ApplyFeedback(attribute, cell, report);
}

void CraqrEngine::ApplyFeedback(ops::AttributeId attribute,
                                const geom::CellIndex& cell,
                                const ops::FlattenBatchReport& report) {
  const server::BudgetKey key{attribute, cell};
  const double supply_ratio =
      report.target_count > 0.0
          ? static_cast<double>(report.n) / report.target_count
          : std::numeric_limits<double>::infinity();
  budgets_.ReportBatch(key, report.violation_percent, supply_ratio);
  if (config_.enable_incentives) {
    const double incentive = incentives_.Update(
        attribute, report.violation_percent, budgets_.IsSaturated(key));
    handler_->SetIncentive(attribute, incentive);
  }
}

void CraqrEngine::ApplyDueFeedback() {
  while (!deferred_feedback_.empty() &&
         deferred_feedback_.front().due_step <= step_count_) {
    const DeferredFeedback& due = deferred_feedback_.front();
    ApplyFeedback(due.attribute, due.cell, due.report);
    deferred_feedback_.pop_front();
  }
}

Result<fabric::QueryStream> CraqrEngine::Submit(
    const query::AcquisitionQuery& q) {
  CRAQR_RETURN_NOT_OK(q.Validate());
  CRAQR_ASSIGN_OR_RETURN(const ops::AttributeId attribute,
                         world_.AttributeIdByName(q.attribute));
  fabric::QueryStream stream;
  std::vector<geom::CellIndex> cells;
  if (sharded_ != nullptr) {
    CRAQR_ASSIGN_OR_RETURN(stream,
                           sharded_->InsertQuery(attribute, q.region, q.rate));
    CRAQR_ASSIGN_OR_RETURN(cells, sharded_->QueryCells(stream.id));
  } else {
    CRAQR_ASSIGN_OR_RETURN(
        stream, fabricator_->InsertQuery(attribute, q.region, q.rate));
    CRAQR_ASSIGN_OR_RETURN(cells, fabricator_->QueryCells(stream.id));
  }
  for (const auto& cell : cells) {
    CRAQR_RETURN_NOT_OK(handler_->Subscribe(attribute, cell));
  }
  return stream;
}

Result<fabric::QueryStream> CraqrEngine::SubmitText(const std::string& text) {
  CRAQR_ASSIGN_OR_RETURN(const query::AcquisitionQuery parsed,
                         query::ParseQuery(text));
  return Submit(parsed);
}

Status CraqrEngine::Cancel(query::QueryId id) {
  fabric::QueryStream stream;
  std::vector<geom::CellIndex> cells;
  if (sharded_ != nullptr) {
    CRAQR_ASSIGN_OR_RETURN(stream, sharded_->GetStream(id));
    CRAQR_ASSIGN_OR_RETURN(cells, sharded_->QueryCells(id));
    CRAQR_RETURN_NOT_OK(sharded_->RemoveQuery(id));
  } else {
    CRAQR_ASSIGN_OR_RETURN(stream, fabricator_->GetStream(id));
    CRAQR_ASSIGN_OR_RETURN(cells, fabricator_->QueryCells(id));
    CRAQR_RETURN_NOT_OK(fabricator_->RemoveQuery(id));
  }
  for (const auto& cell : cells) {
    CRAQR_RETURN_NOT_OK(handler_->Unsubscribe(stream.attribute, cell));
  }
  return Status::OK();
}

Status CraqrEngine::Step() {
  ++step_count_;
  steps_->Increment();
  // Phase edges cost one clock read each when observability is on, none
  // when it is off; everything recorded here is observation-only.
  const bool timed = obs::IsEnabled();
  const std::uint64_t t_begin = timed ? obs::NowNs() : 0;
  // On the pipelined path everything from here through the handler
  // dispatch overlaps with the shard workers still chewing the previous
  // step's batch — the overlap this loop exists for.
  now_ += config_.step_dt;
  world_.Advance(config_.step_dt);
  const std::uint64_t t_world = timed ? obs::NowNs() : 0;
  // The handler scatters its responses straight into the recycled batch's
  // columns; the execution path consumes it row-by-row into per-chain /
  // per-shard batches. No intermediate tuple vector exists on this path.
  // The ring keeps each submitted batch untouched for D-1 further steps —
  // EnqueueBatch happens to consume its input synchronously today, but
  // the engine does not depend on that runtime implementation detail.
  ops::TupleBatch& batch = step_batches_[step_cursor_];
  step_cursor_ = (step_cursor_ + 1) % step_batches_.size();
  CRAQR_RETURN_NOT_OK(handler_->Step(now_, &batch));
  const std::uint64_t t_handler = timed ? obs::NowNs() : 0;
  // Captured before dispatch consumes the batch.
  const auto batch_tuples = static_cast<std::uint64_t>(batch.size());
  if (timed) {
    phase_world_ns_->Record(t_world - t_begin);
    phase_handler_ns_->Record(t_handler - t_world);
    if (trace_ != nullptr) {
      trace_->Record("world", step_count_, t_begin, t_world, 0);
      trace_->Record("handler", step_count_, t_world, t_handler, batch_tuples);
    }
  }
  if (pipelined_) {
    // Feedback epoch contract: before submitting step s, wait for epoch
    // s - (D - 1) and release exactly its reports — after this step's
    // dispatch (which must not see them yet), before the next one (which
    // must). The drain also flushes completed deliveries to sinks.
    const std::uint64_t depth = config_.pipeline_depth;
    if (step_count_ >= depth) {
      CRAQR_RETURN_NOT_OK(sharded_->DrainThrough(step_count_ - (depth - 1)));
    }
    // Rebalance at the epoch boundary the drain just established — before
    // this step's batch is routed, so the batch already flows through the
    // updated table. Barriers internally; feedback held past the horizon
    // stays held (byte-exactness does not depend on when this fires).
    if (config_.rebalance_every_steps > 0 &&
        step_count_ % config_.rebalance_every_steps == 0) {
      CRAQR_RETURN_NOT_OK(sharded_->Rebalance().status());
    }
    // Checkpoint cadence at the same boundary: bounds the replay log a
    // crash must re-run (byte-exactness is likewise independent of when
    // this fires — the snapshot is taken at a full barrier).
    if (config_.checkpoint_every_steps > 0 &&
        step_count_ % config_.checkpoint_every_steps == 0) {
      CRAQR_RETURN_NOT_OK(sharded_->Checkpoint());
    }
    // Memory-governance poll at the same boundary (inert without a
    // budget): reclamation barriers like a checkpoint, degradation sheds
    // — neither changes delivered bytes below the hard watermark.
    CRAQR_RETURN_NOT_OK(sharded_->GovernMemory());
    const std::uint64_t t_drain = timed ? obs::NowNs() : 0;
    const Status dispatched = sharded_->EnqueueBatch(batch, step_count_);
    if (timed) {
      const std::uint64_t t_end = obs::NowNs();
      phase_drain_ns_->Record(t_drain - t_handler);
      phase_dispatch_ns_->Record(t_end - t_drain);
      if (trace_ != nullptr) {
        trace_->Record("drain", step_count_, t_handler, t_drain, 0);
        trace_->Record("dispatch", step_count_, t_drain, t_end, batch_tuples);
      }
    }
    return dispatched;
  }
  // Synchronous path: apply the reports whose contracted step arrived at
  // the same relative point (post-dispatch, pre-processing).
  ApplyDueFeedback();
  const std::uint64_t t_feedback = timed ? obs::NowNs() : 0;
  const Status processed = sharded_ != nullptr
                               ? sharded_->ProcessBatch(batch)
                               : fabricator_->ProcessBatch(batch);
  // Rebalance between batches, same cadence as the pipelined path (the
  // exact boundary it fires at does not affect delivered streams).
  if (processed.ok() && sharded_ != nullptr &&
      config_.rebalance_every_steps > 0 &&
      step_count_ % config_.rebalance_every_steps == 0) {
    CRAQR_RETURN_NOT_OK(sharded_->Rebalance().status());
  }
  if (processed.ok() && sharded_ != nullptr &&
      config_.checkpoint_every_steps > 0 &&
      step_count_ % config_.checkpoint_every_steps == 0) {
    CRAQR_RETURN_NOT_OK(sharded_->Checkpoint());
  }
  // Per-step governance poll, synchronous flavours (inert without a
  // budget): the sharded runtime governs itself; the single-fabricator
  // path runs the engine-owned reclamation pass.
  if (processed.ok()) {
    CRAQR_RETURN_NOT_OK(sharded_ != nullptr ? sharded_->GovernMemory()
                                            : GovernSingle());
  }
  if (timed) {
    const std::uint64_t t_end = obs::NowNs();
    // No separate drain phase here; ProcessBatch is the whole dispatch.
    phase_dispatch_ns_->Record(t_end - t_feedback);
    if (trace_ != nullptr) {
      trace_->Record("dispatch", step_count_, t_feedback, t_end, batch_tuples);
    }
  }
  return processed;
}

Status CraqrEngine::DrainPipeline() {
  if (!pipelined_) {
    return Status::OK();
  }
  return sharded_->Drain();
}

Status CraqrEngine::GovernSingle() {
  if (governor_ == nullptr || !governor_->enabled()) {
    return Status::OK();
  }
  ops::ValuePool& pool = config_.fabric.value_pool != nullptr
                             ? *config_.fabric.value_pool
                             : ops::ValuePool::Global();
  runtime::MemoryGovernor::Usage usage;
  usage.pool_bytes = pool.ApproxBytes();
  usage.queue_bytes = fabricator_->BatchMemoryBytes();
  const runtime::MemoryPressure pressure = governor_->Assess(usage);
  if (pressure == runtime::MemoryPressure::kNone) {
    return Status::OK();
  }
  // Value-preserving reclamation between steps (the fabricator is idle
  // here, so no barrier is needed). The single path has no shed machinery
  // — hard pressure reclaims identically; graceful degradation is a
  // sharded-runtime feature.
  // Rotate first so evacuated strings land in the fresh generation as
  // first sights (re-interning into the old current generation would
  // promote every live string into the persistent tier — a permanent
  // leak).
  pool.RotateGeneration();
  fabricator_->ReinternStrings(pool);
  const std::uint64_t retired_before = pool.generations_retired();
  const std::size_t reclaimed =
      pool.RetireGenerationsBelow(pool.current_generation());
  fabricator_->TrimMemory();
  governor_->RecordRetirement(pool.generations_retired() - retired_before);
  governor_->RecordReclaim(reclaimed);
  usage.pool_bytes = pool.ApproxBytes();
  usage.queue_bytes = fabricator_->BatchMemoryBytes();
  governor_->Assess(usage);
  return Status::OK();
}

runtime::ShardedStats CraqrEngine::Stats() {
  if (sharded_ != nullptr) {
    // Observation point: flush in-flight pipelined work first so the
    // merge-stage and sink counters cover every step taken. Feedback
    // beyond its contracted step stays held by the runtime's horizon.
    const Status drained = DrainPipeline();
    if (!drained.ok()) {
      CRAQR_LOG(ERROR) << "Stats() pipeline drain failed: "
                       << drained.ToString();
    }
    return sharded_->Snapshot();
  }
  runtime::ShardedStats stats;
  stats.tuples_routed = fabricator_->tuples_routed();
  stats.tuples_unrouted = fabricator_->tuples_unrouted();
  stats.total_operator_evaluations = fabricator_->TotalOperatorEvaluations();
  stats.total_operators = fabricator_->TotalOperators();
  stats.materialized_cells = fabricator_->NumMaterializedCells();
  stats.live_queries = fabricator_->NumQueries();
  // The engine's actual pool, not a Global() hardcode — instance-pool
  // embedders read their own growth here.
  ops::ValuePool& pool = config_.fabric.value_pool != nullptr
                             ? *config_.fabric.value_pool
                             : ops::ValuePool::Global();
  stats.value_pool_bytes = pool.ApproxBytes();
  stats.pool_generations_retired = pool.generations_retired();
  stats.memory_pressure =
      governor_ != nullptr ? static_cast<int>(governor_->pressure()) : 0;
  stats.shared_prefix_hits = fabricator_->shared_prefix_hits();
  stats.taps_detached = fabricator_->taps_detached();
  stats.stages_shared = fabricator_->SharedStagesLive();
  stats.shared_stage_census = fabricator_->SharedStageCensus();
  return stats;
}

std::uint64_t CraqrEngine::TuplesRouted() { return Stats().tuples_routed; }

std::uint64_t CraqrEngine::TuplesUnrouted() { return Stats().tuples_unrouted; }

std::uint64_t CraqrEngine::TotalOperatorEvaluations() {
  return Stats().total_operator_evaluations;
}

std::size_t CraqrEngine::NumLiveQueries() const {
  return sharded_ != nullptr ? sharded_->NumQueries()
                             : fabricator_->NumQueries();
}

Status CraqrEngine::ValidateTopology() const {
  return sharded_ != nullptr ? sharded_->ValidateInvariants()
                             : fabricator_->ValidateInvariants();
}

Status CraqrEngine::RunFor(double minutes) {
  if (!(minutes >= 0.0)) {
    return Status::InvalidArgument("minutes must be >= 0");
  }
  const double deadline = now_ + minutes;
  std::uint64_t steps_this_run = 0;
  while (now_ + 1e-12 < deadline) {
    ++steps_this_run;
    const Status status = Step();
    if (!status.ok()) {
      // Abnormal teardown: the caller likely bails without ever unwinding
      // a MetricsExporter, so flush final snapshots here — the files then
      // show the registry at the moment of death, which is what a
      // post-mortem needs.
      obs::MetricsExporter::FlushAll();
      // A bare error from a 10k-step run is undebuggable; say *when* the
      // tick failed, in both run-local and engine-lifetime step numbers.
      return Status(status.code(),
                    "step " + std::to_string(steps_this_run) + " of this run" +
                        " (engine step " + std::to_string(step_count_) +
                        ", t=" + std::to_string(now_) +
                        " min) failed: " + status.message());
    }
  }
  // Observation boundary: control returns to the caller, who may read
  // sinks directly — flush the pipeline so they reflect every step.
  const Status drained = DrainPipeline();
  if (!drained.ok()) {
    obs::MetricsExporter::FlushAll();  // same abnormal-teardown flush
    return Status(drained.code(),
                  "pipeline drain after " + std::to_string(steps_this_run) +
                      " step(s) (engine step " + std::to_string(step_count_) +
                      ", t=" + std::to_string(now_) +
                      " min) failed: " + drained.message());
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace craqr
