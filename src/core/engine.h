#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "fabric/fabricator.h"
#include "geometry/grid.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query.h"
#include "runtime/sharded_fabricator.h"
#include "sensing/world.h"
#include "server/budget.h"
#include "server/handler.h"
#include "server/incentive.h"

/// \file engine.h
/// \brief CrAQR: the complete system of paper Figure 1.
///
/// The engine owns the crowd world (mobile sensors), the request/response
/// handler with its budget manager (and optionally the incentive
/// controller of Section VI), and the crowdsensed stream fabricator.  A
/// stepped simulation loop drives them: sensors move, acquisition requests
/// go out per budget, delayed responses come back, batches flow through
/// the per-cell PMAT topologies, and every live query's sink receives its
/// fabricated MCDS at (approximately) the requested spatio-temporal rate.
///
/// The topologies always run in the sharded runtime
/// (runtime::ShardedFabricator), one execution path for every shard count.
/// Each step's batch is epoch-stamped and enqueued, then drained. A single
/// shard runs inline, so a step's deliveries are in the sinks when Step()
/// returns. With worker shards the loop is **pipelined**: the next step's
/// world simulation and handler dispatch run while the workers chew, with
/// an epoch-tagged partial drain as the only per-step synchronization. The
/// closed budget/incentive feedback loop follows a fixed epoch contract
/// (see EngineConfig::pipeline_depth), so delivered streams and
/// violation-replay order are byte-exact across shard counts.

namespace craqr {
namespace engine {

/// \brief Engine construction parameters.
struct EngineConfig {
  /// Grid granularity h (perfect square; paper Section IV).
  std::uint32_t grid_h = 9;
  /// Minutes advanced per Step().
  double step_dt = 1.0;
  /// Stream-fabricator parameters.
  fabric::FabricConfig fabric;
  /// Budget-tuning parameters.
  server::BudgetConfig budget;
  /// Request/response handler parameters.
  server::HandlerConfig handler;
  /// Section-VI extension: raise incentives once budgets saturate.
  bool enable_incentives = false;
  /// Incentive-policy parameters (used when enable_incentives).
  server::IncentiveConfig incentive;
  /// \brief Execution shards of the runtime. 1 (the default) runs the one
  /// shard inline on the engine's thread: no worker, no queue hop. >= 2
  /// starts one worker thread per shard. Cell-local operator seeding makes
  /// the delivered streams identical for any count and a fixed master
  /// seed, and violation reports replay in completion-time order, so even
  /// the order-sensitive enable_incentives feedback evolves identically
  /// across shard counts (see sharded_fabricator.h).
  std::size_t num_shards = 1;
  /// Sub-batches each shard worker's queue buffers before back-pressure.
  std::size_t shard_queue_capacity = 64;
  /// \brief Pipeline depth D (>= 1): the engine's step/feedback contract.
  ///
  /// D defines when the closed-loop feedback from step e's batch (F-operator
  /// violation reports driving budgets and incentives) is applied: at the
  /// end of step e + D - 1, after that step's handler dispatch, so step
  /// e + D's dispatch is the first to see it. D = 1 is the classic fully
  /// synchronous loop (feedback applies within its own step). D >= 2
  /// introduces a fixed (D-1)-step feedback latency — and, when
  /// num_shards >= 2, buys the overlap: Step() enqueues tick t and drains
  /// only through epoch t-D+1, so the workers chew tick t while the next
  /// Step() simulates tick t+1 (world advance + handler dispatch). Full
  /// drains happen at observation points (Stats(), query churn, RunFor()
  /// return, DrainPipeline()). A single inline shard has nothing to
  /// overlap: it finishes every step's batch inside Step(), and D sets
  /// only the feedback lag.
  ///
  /// For a fixed D the delivered streams and the violation-replay order
  /// are byte-exact across num_shards. Raising D hides more shard latency
  /// per step but delays budget reactions by D-1 steps; 2 (the default)
  /// already overlaps a full step of world simulation with shard
  /// processing.
  std::size_t pipeline_depth = 2;
  /// \brief Span-trace ring capacity (events per ring); 0 (the default)
  /// disables tracing. When > 0 the engine keeps a bounded ring of
  /// per-step phase spans (world / handler / drain / dispatch) and each
  /// shard worker and the router keep rings of their own; dump them all
  /// with obs::Tracer::Global().DumpChromeTrace(path) and load the file
  /// in chrome://tracing or Perfetto. Observation-only: tracing does not
  /// change delivered streams.
  std::size_t trace_capacity = 0;
  /// \brief Load-aware cell rebalancing cadence (moves cells only when
  /// num_shards >= 2): every N steps the engine runs
  /// runtime::ShardedFabricator::Rebalance() after the step's drain,
  /// migrating hot cells' live topologies to underloaded shards. Cell-local
  /// operator seeding keeps delivered streams byte-exact whether and
  /// whenever rebalancing fires. 0 (the default) disables it.
  std::uint64_t rebalance_every_steps = 0;
  /// Planner hysteresis knobs (used when rebalance_every_steps > 0).
  runtime::RebalanceConfig rebalance;
  /// \brief Work stealing across shard workers (num_shards >= 2): idle
  /// workers claim chain-group jobs from the busiest peer's in-flight
  /// batch. Complements rebalancing — stealing absorbs transient bursts
  /// within a batch, rebalancing fixes sustained skew across epochs.
  bool enable_work_stealing = false;
  /// Credit-based admission / overload-shedding knobs: shard-queue push
  /// policy and the shed policy for credit-exhausted query subscribers.
  /// See runtime::AdmissionConfig.
  runtime::AdmissionConfig admission;
  /// Epoch-barrier checkpoint/restore knobs. Enabling records per-shard
  /// replay logs and lets a crashed shard be rebuilt byte-exactly. See
  /// runtime::CheckpointConfig.
  runtime::CheckpointConfig checkpoint;
  /// \brief Checkpoint cadence (implies checkpoint.enabled): every N steps
  /// the engine refreshes the runtime checkpoint after the step's drain,
  /// bounding both replay-log growth and crash recovery time. 0 (the
  /// default) keeps only the automatic checkpoints (construction +
  /// topology changes).
  std::uint64_t checkpoint_every_steps = 0;
  /// \brief Bounded-memory endurance budget in bytes across the string
  /// pool, recycled batch arenas and shard queues. 0 (the default)
  /// disables memory governance. With a budget set, the governed pool
  /// (fabric.value_pool, or the process-wide pool) switches into
  /// generational mode and the engine polls the memory governor once per
  /// step: crossing the soft watermark triggers value-preserving
  /// reclamation (string re-intern + generation retirement + arena/
  /// scratch trims — delivered streams stay byte-exact), crossing the
  /// hard watermark additionally sheds deliveries and queue pushes
  /// instead of OOMing. See runtime/memory_governor.h.
  std::size_t memory_budget_bytes = 0;
  /// Watermark / hard-shed fine-tuning; its budget_bytes is overridden by
  /// memory_budget_bytes whenever that is non-zero.
  runtime::MemoryGovernorConfig memory;
};

/// \brief The CrAQR engine.
class CraqrEngine {
 public:
  /// Creates an engine over a crowd world. Attributes must already be
  /// registered on the world. The engine is heap-allocated so internal
  /// cross-component pointers stay stable.
  static Result<std::unique_ptr<CraqrEngine>> Make(sensing::CrowdWorld world,
                                                   const EngineConfig& config);

  CraqrEngine(const CraqrEngine&) = delete;
  CraqrEngine& operator=(const CraqrEngine&) = delete;

  /// \brief Submits an acquisitional query; resolves the attribute name,
  /// inserts it into the fabricator and subscribes the handler on every
  /// overlapped grid cell. Returns the live stream handle.
  Result<fabric::QueryStream> Submit(const query::AcquisitionQuery& q);

  /// Parses the declarative syntax and submits (paper Section III):
  /// `ACQUIRE rain FROM REGION(0,0,2,2) RATE 10 PER KM2 PER MIN`.
  Result<fabric::QueryStream> SubmitText(const std::string& text);

  /// Cancels a live query: unsubscribes its cells and removes its
  /// topology (paper Section V "Query Deletions").
  Status Cancel(query::QueryId id);

  /// \brief Advances the simulation by `config.step_dt` minutes: moves
  /// sensors, dispatches acquisition requests, collects arrived responses
  /// and runs them through the fabricator.
  ///
  /// The step's batch is enqueued to the runtime, then drained. A single
  /// inline shard has processed the batch by then, and the drain moves
  /// its deliveries into the sinks. With worker shards (and
  /// pipeline_depth >= 2) the drain waits only for the epoch the feedback
  /// contract makes due, so Step() returns while the workers chew (see
  /// EngineConfig::pipeline_depth); every observation accessor drains
  /// first, so readers never see a partial stream.
  Status Step();

  /// Runs Step() until at least `minutes` of simulated time have passed,
  /// then drains the pipeline so sinks reflect every step. A failing step
  /// is reported with its step index and simulated time.
  Status RunFor(double minutes);

  /// \brief Waits for all in-flight work and flushes deliveries into query
  /// sinks (feedback beyond its contracted step stays held). Called
  /// implicitly by RunFor() and Stats(); manual Step() drivers of a
  /// worker-sharded engine reading sinks directly should call it first.
  Status DrainPipeline();

  /// Current simulated time (minutes).
  double now() const { return now_; }

  /// \name Component access
  ///@{
  const sensing::CrowdWorld& world() const { return world_; }
  sensing::CrowdWorld& world() { return world_; }
  /// The runtime every batch runs through (never null).
  const runtime::ShardedFabricator* sharded() const { return runtime_.get(); }
  const server::BudgetManager& budgets() const { return budgets_; }
  const server::RequestResponseHandler& handler() const { return *handler_; }
  const server::IncentiveController& incentives() const {
    return incentives_;
  }
  const geom::Grid& grid() const { return grid_; }
  ///@}

  /// Queries whose requested rate was flagged infeasible at the current
  /// budget ceiling (cleared when re-tuning succeeds is NOT automatic;
  /// this is a monotone event log).
  const std::vector<server::BudgetKey>& infeasible_log() const {
    return infeasible_log_;
  }

  /// \name Aggregates
  /// Every accessor (and Stats()) costs one cross-shard barrier — and a
  /// full drain first, so the numbers are consistent with every step taken
  /// so far (an observation point of the epoch contract). Callers needing
  /// several counters should take one Stats() snapshot instead of chaining
  /// the scalar accessors. Stats() also reports the string pool's growth
  /// (value_pool_bytes) and per-shard load counters.
  ///@{
  runtime::ShardedStats Stats();
  std::uint64_t TuplesRouted();
  std::uint64_t TuplesUnrouted();
  std::uint64_t TotalOperatorEvaluations();
  std::size_t NumLiveQueries() const;
  /// Structural self-check of the Section-V topology rules.
  Status ValidateTopology() const;
  ///@}

 private:
  CraqrEngine(sensing::CrowdWorld world, const geom::Grid& grid,
              const EngineConfig& config,
              std::unique_ptr<runtime::ShardedFabricator> runtime,
              server::BudgetManager budgets,
              server::IncentiveController incentives);

  /// Feeds one violation report into the budget manager (and
  /// incentives); the runtime calls it when the epoch contract releases
  /// the report.
  void OnViolationReport(ops::AttributeId attribute,
                         const geom::CellIndex& cell,
                         const ops::FlattenBatchReport& report);

  sensing::CrowdWorld world_;
  geom::Grid grid_;
  EngineConfig config_;
  std::unique_ptr<runtime::ShardedFabricator> runtime_;
  server::BudgetManager budgets_;
  server::IncentiveController incentives_;
  std::optional<server::RequestResponseHandler> handler_;
  std::vector<server::BudgetKey> infeasible_log_;
  /// Recycled columnar step batch the handler fills; EnqueueBatch consumes
  /// its rows and leaves the capacity for the next step.
  ops::TupleBatch step_batch_;
  /// Steps taken so far — the epoch stamped onto each step's batch.
  std::uint64_t step_count_ = 0;
  double now_ = 0.0;

  /// \name Step-phase telemetry (registry-backed, observation-only).
  /// Histograms of per-step time inside each phase of the loop: world
  /// simulation, handler dispatch, batch dispatch (the enqueue, which on
  /// an inline shard processes the batch) and drain (the epoch wait and
  /// collect, plus the cadenced rebalance, checkpoint and governance
  /// poll). Shared across engines in one process (histograms merge); the
  /// optional trace ring records the same phases as spans.
  ///@{
  obs::LogHistogram* phase_world_ns_ = nullptr;
  obs::LogHistogram* phase_handler_ns_ = nullptr;
  obs::LogHistogram* phase_drain_ns_ = nullptr;
  obs::LogHistogram* phase_dispatch_ns_ = nullptr;
  obs::Counter* steps_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  ///@}
};

}  // namespace engine
}  // namespace craqr
