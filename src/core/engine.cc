#include "core/engine.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/macros.h"
#include "obs/exporter.h"

namespace craqr {
namespace engine {

CraqrEngine::CraqrEngine(sensing::CrowdWorld world, const geom::Grid& grid,
                         const EngineConfig& config,
                         std::unique_ptr<runtime::ShardedFabricator> runtime,
                         server::BudgetManager budgets,
                         server::IncentiveController incentives)
    : world_(std::move(world)),
      grid_(grid),
      config_(config),
      runtime_(std::move(runtime)),
      budgets_(std::move(budgets)),
      incentives_(std::move(incentives)) {
  // One registry lookup each at construction; Step() then records through
  // the cached pointers.
  phase_world_ns_ = obs::GetHistogram("craqr.engine.phase.world_ns");
  phase_handler_ns_ = obs::GetHistogram("craqr.engine.phase.handler_ns");
  phase_drain_ns_ = obs::GetHistogram("craqr.engine.phase.drain_ns");
  phase_dispatch_ns_ = obs::GetHistogram("craqr.engine.phase.dispatch_ns");
  steps_ = obs::GetCounter("craqr.engine.steps");
  trace_ = obs::Tracer::Global().CreateRing("craqr.engine",
                                            config_.trace_capacity);
  // Engage the runtime's epoch horizon before any batch flows: no feedback
  // may leak out before its contracted step, even through an early
  // Stats() / query-churn drain.
  runtime_->SetReplayHorizon(0);
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
  // Effective governance knobs: the scalar budget wins over the struct's.
  sc.memory = config.memory;
  if (config.memory_budget_bytes > 0) {
    sc.memory.budget_bytes = config.memory_budget_bytes;
  }
  CRAQR_ASSIGN_OR_RETURN(std::unique_ptr<runtime::ShardedFabricator> runtime,
                         runtime::ShardedFabricator::Make(grid, sc));
  CRAQR_ASSIGN_OR_RETURN(server::BudgetManager budgets,
                         server::BudgetManager::Make(config.budget));
  CRAQR_ASSIGN_OR_RETURN(server::IncentiveController incentives,
                         server::IncentiveController::Make(config.incentive));

  auto engine = std::unique_ptr<CraqrEngine>(
      new CraqrEngine(std::move(world), grid, config, std::move(runtime),
                      std::move(budgets), std::move(incentives)));

  // The handler needs stable pointers into the engine, so it is built
  // after the engine object exists.
  CRAQR_ASSIGN_OR_RETURN(
      server::RequestResponseHandler handler,
      server::RequestResponseHandler::Make(&engine->world_, &engine->budgets_,
                                           grid, config.handler));
  engine->handler_.emplace(std::move(handler));

  // Budget tuning (paper Section V): every F-operator batch report feeds
  // N_v into the budget manager; optionally incentives react once budgets
  // saturate (Section VI extension). The runtime replays reports on the
  // engine's thread at drain points, so this stays single-threaded.
  CraqrEngine* raw = engine.get();
  engine->runtime_->SetViolationCallback(
      [raw](ops::AttributeId attribute, const geom::CellIndex& cell,
            const ops::FlattenBatchReport& report) {
        raw->OnViolationReport(attribute, cell, report);
      });
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

Result<fabric::QueryStream> CraqrEngine::Submit(
    const query::AcquisitionQuery& q) {
  CRAQR_RETURN_NOT_OK(q.Validate());
  CRAQR_ASSIGN_OR_RETURN(const ops::AttributeId attribute,
                         world_.AttributeIdByName(q.attribute));
  CRAQR_ASSIGN_OR_RETURN(const fabric::QueryStream stream,
                         runtime_->InsertQuery(attribute, q.region, q.rate));
  CRAQR_ASSIGN_OR_RETURN(const std::vector<geom::CellIndex> cells,
                         runtime_->QueryCells(stream.id));
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
  CRAQR_ASSIGN_OR_RETURN(const fabric::QueryStream stream,
                         runtime_->GetStream(id));
  CRAQR_ASSIGN_OR_RETURN(const std::vector<geom::CellIndex> cells,
                         runtime_->QueryCells(id));
  CRAQR_RETURN_NOT_OK(runtime_->RemoveQuery(id));
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
  // With worker shards, everything from here through the handler dispatch
  // overlaps with the workers still chewing earlier steps' batches — the
  // overlap the pipeline exists for.
  now_ += config_.step_dt;
  world_.Advance(config_.step_dt);
  const std::uint64_t t_world = timed ? obs::NowNs() : 0;
  // The handler scatters its responses straight into the recycled batch's
  // columns; the runtime partitions it into per-shard batches (a lone shard
  // takes it whole). No intermediate tuple vector exists on this path.
  CRAQR_RETURN_NOT_OK(handler_->Step(now_, &step_batch_));
  const std::uint64_t t_handler = timed ? obs::NowNs() : 0;
  // Captured before dispatch consumes the batch.
  const auto batch_tuples = static_cast<std::uint64_t>(step_batch_.size());
  CRAQR_RETURN_NOT_OK(runtime_->EnqueueBatch(step_batch_, step_count_));
  const std::uint64_t t_dispatch = timed ? obs::NowNs() : 0;
  // Feedback epoch contract: release the reports of epoch s - (D - 1),
  // after this step's handler dispatch (which must not see them) and
  // before the next one (which must). An inline shard has finished epoch
  // s already, so its deliveries reach the sinks now; with workers the
  // drain waits for the released epoch only.
  const std::uint64_t lag = config_.pipeline_depth - 1;
  const std::uint64_t release = step_count_ > lag ? step_count_ - lag : 0;
  const std::uint64_t collect =
      runtime_->num_shards() == 1 ? step_count_ : release;
  if (collect > 0) {
    CRAQR_RETURN_NOT_OK(runtime_->DrainThrough(collect, release));
  }
  // Rebalance and checkpoint at the boundary the drain just established.
  // Both barrier internally; feedback held past the horizon stays held,
  // and byte-exactness does not depend on when they fire.
  if (config_.rebalance_every_steps > 0 &&
      step_count_ % config_.rebalance_every_steps == 0) {
    CRAQR_RETURN_NOT_OK(runtime_->Rebalance().status());
  }
  if (config_.checkpoint_every_steps > 0 &&
      step_count_ % config_.checkpoint_every_steps == 0) {
    CRAQR_RETURN_NOT_OK(runtime_->Checkpoint());
  }
  // Memory-governance poll (inert without a budget): reclamation barriers
  // like a checkpoint, degradation sheds — neither changes delivered bytes
  // below the hard watermark.
  CRAQR_RETURN_NOT_OK(runtime_->GovernMemory());
  if (timed) {
    const std::uint64_t t_end = obs::NowNs();
    phase_world_ns_->Record(t_world - t_begin);
    phase_handler_ns_->Record(t_handler - t_world);
    phase_dispatch_ns_->Record(t_dispatch - t_handler);
    phase_drain_ns_->Record(t_end - t_dispatch);
    if (trace_ != nullptr) {
      trace_->Record("world", step_count_, t_begin, t_world, 0);
      trace_->Record("handler", step_count_, t_world, t_handler, batch_tuples);
      trace_->Record("dispatch", step_count_, t_handler, t_dispatch,
                     batch_tuples);
      trace_->Record("drain", step_count_, t_dispatch, t_end, 0);
    }
  }
  return Status::OK();
}

Status CraqrEngine::DrainPipeline() { return runtime_->Drain(); }

runtime::ShardedStats CraqrEngine::Stats() {
  // Observation point: flush in-flight work first so the merge-stage and
  // sink counters cover every step taken. Feedback beyond its contracted
  // step stays held by the runtime's horizon.
  const Status drained = DrainPipeline();
  if (!drained.ok()) {
    CRAQR_LOG(ERROR) << "Stats() pipeline drain failed: "
                     << drained.ToString();
  }
  return runtime_->Snapshot();
}

std::uint64_t CraqrEngine::TuplesRouted() { return Stats().tuples_routed; }

std::uint64_t CraqrEngine::TuplesUnrouted() { return Stats().tuples_unrouted; }

std::uint64_t CraqrEngine::TotalOperatorEvaluations() {
  return Stats().total_operator_evaluations;
}

std::size_t CraqrEngine::NumLiveQueries() const {
  return runtime_->NumQueries();
}

Status CraqrEngine::ValidateTopology() const {
  return runtime_->ValidateInvariants();
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
