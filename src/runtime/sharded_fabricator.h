#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "fabric/fabricator.h"
#include "geometry/grid.h"
#include "ops/tuple.h"
#include "ops/tuple_batch.h"
#include "query/query.h"
#include "runtime/memory_governor.h"
#include "runtime/rebalancer.h"
#include "runtime/shard.h"

/// \file sharded_fabricator.h
/// \brief Sharded parallel execution runtime over the stream fabricator.
///
/// The paper's map phase — hash each crowdsensed tuple to its grid cell's
/// topology — partitions perfectly by cell, so the runtime assigns every
/// grid cell to one of N shards (cell-index hash mod N). Each shard owns
/// an independent StreamFabricator over its cell subset, drained by a
/// dedicated worker thread pulling batches from a bounded queue (a
/// one-shard runtime has no worker: its shard runs every batch inline on
/// the caller's thread, so an enqueued epoch is complete on return):
///
///   world -> handler batch -> [shard router] -> per-shard sub-batches
///          -> per-cell PMAT topologies (parallel) -> partial streams
///          -> per-query U merge stage -> rate monitor -> sink
///
/// Query insert/remove are broadcast as control commands to the shards
/// owning overlapped cells; each query's per-shard partial streams are
/// combined by the same U-operator merge stage a single fabricator would
/// use, so the delivered MCDS is equivalent to the single-threaded
/// fabricator's. Operator RNG seeds are cell-local functions of the master
/// seed (StreamFabricator::OperatorSeed), which makes the delivered
/// stream content — every query's full set of delivered tuples —
/// identical for ANY shard count, not merely deterministic for a fixed
/// one. Delivery *order* is canonical too: every multi-cell merge stage
/// carries a reorder buffer (fabric::BuildMergeStage) that flushes each
/// processing step sorted by (t, id) on both execution paths, so
/// within-query order and windowed monitor statistics are identical for
/// every shard count, num_shards == 1 included.
///
/// The runtime is batch-native and columnar end to end: the router
/// partitions each incoming batch into per-shard `ops::TupleBatch`
/// sub-batches in one pass over the point column (56-byte row copies),
/// shard workers drive their fabricators through the batch-at-a-time
/// operator path, partial-stream sinks splice whole delivered batches
/// into the shard outbox under one mutex acquisition each, and collected
/// deliveries re-enter each query's merge stage as one batch per query.
///
/// Closed-loop feedback is replayed in a canonical order: every
/// FlattenBatchReport is stamped with its completing tuple's simulation
/// time (`completed_at`), and the collector replays reports sorted by
/// (completed_at, attribute, cell) — the same order the single-threaded
/// StreamFabricator replays at its batch boundaries. Order-sensitive
/// feedback consumers (the Section-VI incentive controller's
/// non-commutative raise/decay update included) therefore evolve
/// identically for every shard count, num_shards == 1 included.
///
/// Thread-safety: the public API is serialized by an internal mutex and
/// may be called from multiple threads; parallelism happens inside, across
/// the shard workers. The violation callback is invoked on the collecting
/// thread with the mutex released, so it may safely call back into the
/// runtime.
///
/// **Epochs.** The pipelined path stamps each enqueued batch with a
/// monotone epoch (the engine's step number). `DrainThrough(e)` waits only
/// for the batches of epochs <= e — batches of later epochs keep flowing
/// through the workers — then collects outboxes and replays buffered
/// violation reports *up to the epoch horizon* it advances to e. Reports
/// from later epochs are held (still in canonical order) until the horizon
/// passes their epoch, which is what keeps the budget/incentive feedback
/// loop byte-exact with the synchronous engine under pipelining: feedback
/// from step e is applied at exactly one step boundary, never "as soon as
/// a fast shard happens to finish". Full `Drain()` barriers everything and
/// flushes all deliveries but still respects the horizon; callers that
/// never engage epochs (plain EnqueueBatch/ProcessBatch) keep today's
/// replay-everything behaviour.

namespace craqr {
namespace runtime {

/// \brief How the router hands sub-batches to a shard queue on the
/// pipelined engine path.
enum class QueuePushPolicy {
  /// Block until the queue has room (back-pressure; the pre-admission
  /// behaviour — a stalled worker wedges the producer forever).
  kBlock,
  /// Block up to AdmissionConfig::queue_push_timeout_ms, then shed the
  /// sub-batch (craqr.admission.queue_timeouts / .queue_rejects).
  kTimedWait,
  /// Never block: a full queue sheds the sub-batch immediately.
  kTryOnce,
};

/// \brief What happens to a delivery for a query whose credits are
/// exhausted (see ShardedFabricator::SetDeliveryCredits).
enum class ShedPolicy {
  /// Spool the epoch's delivery in memory (FIFO, bounded by
  /// spool_limit_epochs); beyond the bound the *incoming* delivery drops.
  kSpool,
  /// Spool, but beyond the bound evict the *oldest* spooled epoch to make
  /// room — the subscriber prefers fresh data over a complete prefix.
  kDropOldest,
  /// Drop immediately, never spool.
  kReject,
};

/// \brief Credit-based admission and overload-shedding parameters.
struct AdmissionConfig {
  /// Shard-queue push behaviour on the engine path.
  QueuePushPolicy queue_policy = QueuePushPolicy::kBlock;
  /// Wait budget for kTimedWait before the sub-batch sheds.
  std::uint64_t queue_push_timeout_ms = 100;
  /// Delivery policy for credit-exhausted queries.
  ShedPolicy shed_policy = ShedPolicy::kSpool;
  /// Spooled epochs a query may hold before the shed policy's overflow
  /// rule kicks in.
  std::size_t spool_limit_epochs = 64;
  /// Watchdog sampling period; 0 (the default) starts no watchdog thread.
  std::uint64_t watchdog_interval_ms = 0;
  /// Consecutive samples a shard must sit on a non-empty queue without
  /// finishing a batch before it counts as stalled and the runtime enters
  /// degraded mode (craqr.admission.degraded gauge,
  /// craqr.fault.worker_stalls counter).
  std::uint64_t watchdog_stall_ticks = 3;
};

/// \brief Epoch-barrier checkpoint/restore parameters.
struct CheckpointConfig {
  /// Master switch: record per-shard replay logs and allow Checkpoint() /
  /// crash recovery. Off by default (zero copies on the enqueue path).
  bool enabled = false;
  /// Per-shard bound on the epoch replay log. When more epochs pass
  /// without a fresh checkpoint the oldest entries drop
  /// (craqr.fault.replaylog_truncated) and byte-exact recovery of that
  /// shard becomes impossible until the next checkpoint.
  std::size_t replay_limit_epochs = 256;
};

/// \brief Runtime construction parameters.
struct ShardedConfig {
  /// Number of shards (>= 1): one worker thread each, except that a
  /// single shard runs inline on the caller's thread.
  std::size_t num_shards = 1;
  /// Sub-batches each shard queue holds before producers block.
  std::size_t queue_capacity = 64;
  /// Fabric parameters shared by every shard (the master seed included;
  /// per-operator seeds are derived cell-locally from it).
  fabric::FabricConfig fabric;
  /// Span-event capacity of each observability trace ring (one per shard
  /// worker plus one for the router; see obs/trace.h). 0 (the default)
  /// creates no rings — tracing off, zero cost.
  std::size_t trace_capacity = 0;
  /// Work stealing (num_shards >= 2): an idle shard worker claims
  /// chain-group jobs from the busiest peer's in-flight batch instead of
  /// sleeping, so transient bursts don't serialize on one worker.
  /// Delivered streams stay byte-exact (jobs partition chains by shared
  /// tapping query; see fabric::StreamFabricator::BeginDispatch). Off by
  /// default — the fixed-ownership worker loop.
  bool enable_stealing = false;
  /// Load-aware cell rebalancing: Rebalance() becomes a live operation
  /// that migrates hot cells between shard fabricators at an epoch
  /// barrier, turning the static cell-hash partition into an
  /// epoch-versioned routing table. Off by default.
  bool enable_rebalancing = false;
  /// Planner hysteresis knobs; used when enable_rebalancing.
  RebalanceConfig rebalance;
  /// Credit-based admission / overload shedding knobs.
  AdmissionConfig admission;
  /// Epoch-barrier checkpoint/restore knobs.
  CheckpointConfig checkpoint;
  /// Bounded-memory governance knobs (budget_bytes == 0 disables — the
  /// default). With a budget set, Make() switches the governed string
  /// pool (fabric.value_pool, or the process Global() pool) into
  /// generational mode and GovernMemory() polls/reclaims/degrades. See
  /// memory_governor.h.
  MemoryGovernorConfig memory;
};

/// \brief Per-shard load telemetry (one entry per shard in
/// ShardedStats::per_shard) — the measurement input for load-aware cell
/// rebalancing: a shard whose busy_ns/tuples_enqueued ratio towers over
/// its siblings owns the hot cells.
///
/// **Consistency contract.** Snapshot()/TrySnapshot() fill every entry
/// *after* a full cross-shard barrier, and each shard's fields are read
/// in one pass (router-side enqueue counters under the runtime mutex,
/// worker-side counters via Shard::LoadSnapshot). Per entry this means:
/// tuples_processed == tuples_enqueued, batches_processed ==
/// batches_enqueued, and queue_depth == 0 — the counters are mutually
/// consistent with each other and with every batch enqueued before the
/// snapshot, never a mix of per-field reads taken at different times.
/// The underlying registry counters (craqr.rt<id>.shard<i>.*) keep
/// advancing between snapshots; only this struct is a coherent cut.
struct ShardLoadStats {
  std::size_t shard = 0;
  /// Tuples the router partitioned into this shard's sub-batches (a lone
  /// shard receives whole batches, rows outside the grid included).
  std::uint64_t tuples_enqueued = 0;
  /// Sub-batches the router enqueued to this shard.
  std::uint64_t batches_enqueued = 0;
  /// Tuples the worker has finished processing.
  std::uint64_t tuples_processed = 0;
  /// Batch tasks the worker has finished processing.
  std::uint64_t batches_processed = 0;
  /// Wall-clock nanoseconds the worker spent inside ProcessBatch.
  std::uint64_t busy_ns = 0;
  /// Tasks queued at snapshot time (0 after the snapshot's barrier).
  std::size_t queue_depth = 0;
  /// Chain-group jobs this worker claimed from peers' in-flight batches
  /// (0 unless work stealing is enabled).
  std::uint64_t steals = 0;
  /// Grid cells the routing table currently assigns to this shard.
  std::size_t cells_owned = 0;
};

/// \brief Aggregated runtime counters (see Snapshot()).
struct ShardedStats {
  std::uint64_t tuples_routed = 0;
  std::uint64_t tuples_unrouted = 0;
  std::uint64_t total_operator_evaluations = 0;
  std::size_t total_operators = 0;
  std::size_t materialized_cells = 0;
  std::size_t live_queries = 0;
  /// Approximate heap footprint of the runtime's string pool
  /// (fabric.value_pool when configured, ops::ValuePool::Global()
  /// otherwise) — the monitoring hook for unbounded free-form string
  /// payloads.
  std::size_t value_pool_bytes = 0;
  /// \name Memory-governance telemetry
  ///@{
  /// Bytes parked on the shard batch arenas' free lists right now.
  std::size_t arena_free_bytes = 0;
  /// Highest arena free-list footprint ever observed (summed).
  std::size_t arena_high_water_bytes = 0;
  /// Arena acquisitions served from recycled storage (summed).
  std::uint64_t arena_reuses = 0;
  /// String-pool generations retired so far by the governed pool.
  std::uint64_t pool_generations_retired = 0;
  /// The memory governor's current pressure level (0 none / 1 soft /
  /// 2 hard; always 0 with governance disabled).
  int memory_pressure = 0;
  ///@}
  /// Epoch-versioned routing-table generation: bumped once per Rebalance()
  /// call that migrated at least one cell.
  std::uint64_t routing_version = 0;
  /// Rebalance() calls that migrated at least one cell.
  std::uint64_t rebalance_events = 0;
  /// Total cells migrated across all rebalance events.
  std::uint64_t cells_migrated = 0;
  /// \name Multi-query sharing census (fabric::FabricConfig::enable_sharing)
  ///@{
  /// Tap insertions that attached to an already-live stage (equal-rate T
  /// or shared P carve-out) instead of materializing a duplicate, summed
  /// across shards.
  std::uint64_t shared_prefix_hits = 0;
  /// Tap edges detached by query cancellation, summed across shards.
  std::uint64_t taps_detached = 0;
  /// Stages (T nodes or P carve-outs) tapped by >= 2 queries right now.
  std::size_t stages_shared = 0;
  /// Per-cell shared-stage census: (flat cell, shared-stage count) for
  /// every cell holding at least one stage with >= 2 tappers, sorted by
  /// flat cell (merged across shards; cells never alias because each cell
  /// lives on exactly one shard).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> shared_stage_census;
  ///@}
  /// Per-shard load counters, one entry per shard.
  std::vector<ShardLoadStats> per_shard;
};

/// \brief Partitions the grid's cells across N shard fabricators and
/// merges their per-query partial streams into the final MCDS.
class ShardedFabricator {
 public:
  /// Creates the runtime and starts one worker thread per shard (none for
  /// a single, inline shard).
  static Result<std::unique_ptr<ShardedFabricator>> Make(
      const geom::Grid& grid, const ShardedConfig& config = ShardedConfig());

  ~ShardedFabricator();

  ShardedFabricator(const ShardedFabricator&) = delete;
  ShardedFabricator& operator=(const ShardedFabricator&) = delete;

  /// \brief Inserts an acquisitional query: validates the region, builds
  /// the cross-shard U merge stage (U -> rate monitor -> sink), and
  /// broadcasts partial-insert control commands to the shards owning
  /// overlapped cells. The returned handle's sink/monitor point at the
  /// merge stage and stay valid until RemoveQuery.
  Result<fabric::QueryStream> InsertQuery(ops::AttributeId attribute,
                                          const geom::Rect& region,
                                          double rate);

  /// \brief Removes a live query from every shard owning one of its cells
  /// and tears down its merge stage. In-flight deliveries are flushed to
  /// the sink first.
  Status RemoveQuery(query::QueryId id);

  /// \brief Routes a batch: partitions tuples by cell->shard hash into
  /// per-shard TupleBatches in one pass (moving tuples), enqueues the
  /// sub-batches, waits for all shards to drain, then merges delivered
  /// partial streams (one time-sorted batch per query) into each query's
  /// merge stage. Synchronous — equivalent to
  /// StreamFabricator::ProcessBatch. The batch is consumed.
  Status ProcessBatch(ops::TupleBatch& batch);

  /// Copying convenience overload of the batch-native ProcessBatch.
  Status ProcessBatch(const std::vector<ops::Tuple>& batch);

  /// \brief Pipelined variant: partitions and enqueues without waiting.
  /// Deliveries accumulate in shard outboxes until the next Drain() /
  /// DrainThrough() / ProcessBatch(). Back-pressure applies when a shard
  /// queue fills. The batch is consumed and stamped with the next
  /// auto-assigned epoch (last enqueued epoch + 1).
  Status EnqueueBatch(ops::TupleBatch& batch);

  /// \brief Epoch-stamped pipelined enqueue (the engine's step loop).
  /// `epoch` must be >= 1 and strictly increasing across calls (one batch
  /// per epoch — equal epochs could split an epoch's delivery group
  /// across drains); it is the unit DrainThrough() waits on and the grain
  /// violation replay is held to.
  Status EnqueueBatch(ops::TupleBatch& batch, std::uint64_t epoch);

  /// Copying convenience overload of the batch-native EnqueueBatch.
  Status EnqueueBatch(const std::vector<ops::Tuple>& batch);

  /// Waits for all queued work and flushes deliveries into query sinks.
  /// Violation replay honours the current epoch horizon (see
  /// SetReplayHorizon); with the horizon never engaged, everything
  /// collected is replayed — the pre-epoch behaviour.
  Status Drain();

  /// \brief Partial drain: waits only until every batch stamped with an
  /// epoch <= `epoch` has been processed (later epochs keep running),
  /// collects whatever the outboxes hold, advances the replay horizon to
  /// `epoch` and replays the violation reports that horizon releases.
  /// This is the pipelined engine's per-step synchronization point: one
  /// epoch's worth of waiting instead of a full barrier.
  Status DrainThrough(std::uint64_t epoch);

  /// \brief DrainThrough that collects deliveries through `epoch` but
  /// advances the replay horizon only to `release_through`, so feedback
  /// can lag the deliveries: the engine collects a whole step from an
  /// inline runtime while its feedback contract still holds that step's
  /// reports back.
  Status DrainThrough(std::uint64_t epoch, std::uint64_t release_through);

  /// \brief Engages the epoch horizon: violation reports from batches
  /// stamped with an epoch > `epoch` are held (in canonical order) at
  /// every replay point until the horizon passes their epoch. The horizon
  /// only moves forward. The pipelined engine sets it to 0 up front so no
  /// report can leak out before its contracted step.
  void SetReplayHorizon(std::uint64_t epoch);

  /// Registers the N_v callback consumed by the budget tuner; replayed on
  /// the collecting thread, never on shard workers.
  void SetViolationCallback(fabric::ViolationCallback callback);

  /// The merge-stage stream handle of a live query.
  Result<fabric::QueryStream> GetStream(query::QueryId id) const;

  /// Grid cells a query's region overlaps (for handler subscriptions).
  Result<std::vector<geom::CellIndex>> QueryCells(query::QueryId id) const;

  /// The shard currently owning a grid cell. Before any rebalance this is
  /// the static cell-hash partition; after one it reflects the live
  /// epoch-versioned routing table. Takes the runtime mutex — do not call
  /// from inside a violation callback that already holds it (there are
  /// none: callbacks run with the mutex released).
  std::size_t ShardForCell(const geom::CellIndex& index) const;

  /// \brief Load-aware cell rebalancing step (requires
  /// ShardedConfig::enable_rebalancing). Runs a full epoch barrier,
  /// collects per-cell routed-tuple deltas since the previous call plus
  /// per-shard busy-time deltas, asks the Rebalancer for a migration plan,
  /// and executes it: each moved cell's live operator chains are extracted
  /// from the source shard's fabricator and adopted by the destination's
  /// (seeds are cell-local, so delivered streams stay byte-exact), then
  /// the flat-cell routing table entry is flipped. Returns the number of
  /// cells migrated (0 when balanced or below trigger). Call between
  /// epochs — the engine invokes it right after DrainThrough.
  Result<std::size_t> Rebalance();

  /// \name Epoch-barrier checkpoint / crash recovery
  /// (requires ShardedConfig::checkpoint.enabled)
  ///
  /// Checkpoint() runs a full epoch barrier, collects every outstanding
  /// delivery, serializes each shard's complete fabricator state (operator
  /// chains, RNG phases, partial F batches, shared-stage ref counts) plus
  /// the query attachment map into an in-memory versioned snapshot, and
  /// resets the per-shard epoch replay logs. Afterwards a crashed shard —
  /// injected by InjectShardCrash or the "runtime.shard_crash" fault
  /// point — is rebuilt by restoring its snapshot blob and replaying the
  /// input sub-batches held since the checkpoint with their original
  /// epoch stamps, producing delivered streams byte-identical to a run
  /// with no crash (pinned in tests/runtime_checkpoint_test.cc). One
  /// checkpoint is taken automatically at construction and refreshed
  /// after every successful topology change (insert/remove/rebalance), so
  /// the snapshot's attachment map always matches the live topology.
  ///@{
  /// Takes a fresh checkpoint at a full epoch barrier.
  Status Checkpoint();
  /// True once a checkpoint exists (always true when checkpointing is
  /// enabled — Make takes the first one).
  bool HasCheckpoint() const;
  /// The epoch the current checkpoint was taken at.
  std::uint64_t CheckpointEpoch() const;
  /// Writes the current in-memory checkpoint to a file (versioned binary;
  /// string tuple payloads are interned ids, so the file is only
  /// restorable within the process that wrote it).
  Status SaveCheckpointToFile(const std::string& path) const;
  /// Replaces the in-memory checkpoint with one read from `path`
  /// (validating version, shard count and grid). The replay logs reset —
  /// only epochs enqueued after the load are replayable on a crash.
  Status LoadCheckpointFromFile(const std::string& path);
  /// \brief Simulated fail-stop: destroys `shard`'s fabricator state at a
  /// full epoch barrier and immediately rebuilds it from the checkpoint +
  /// replay log. FailedPrecondition when the replay log was truncated
  /// (byte-exact recovery impossible until the next Checkpoint()).
  Status InjectShardCrash(std::size_t shard);
  ///@}

  /// \name Delivery credits / overload shedding
  ///
  /// Every query starts with unlimited delivery credits. Once a finite
  /// budget is set, each collected epoch delivery consumes one credit;
  /// deliveries arriving with no credits left follow
  /// AdmissionConfig::shed_policy (spool / drop-oldest / reject), so one
  /// slow subscriber degrades gracefully instead of back-pressuring the
  /// runtime. Spooled epochs re-deliver in order as credits return.
  ///@{
  static constexpr std::uint64_t kUnlimitedCredits =
      ~static_cast<std::uint64_t>(0);
  /// Sets a query's remaining delivery credits (kUnlimitedCredits lifts
  /// the budget) and immediately delivers spooled epochs the new budget
  /// covers.
  Status SetDeliveryCredits(query::QueryId id, std::uint64_t credits);
  /// Adds credits to a query's budget and delivers spooled epochs.
  Status AddDeliveryCredits(query::QueryId id, std::uint64_t credits);
  /// Epochs currently spooled for a query.
  Result<std::size_t> SpooledEpochs(query::QueryId id) const;
  /// True while the watchdog sees at least one stalled worker (a shard
  /// sitting on a non-empty queue without completing batches for
  /// watchdog_stall_ticks consecutive samples) — or while the memory
  /// governor holds the runtime under hard pressure (fresh data keeps
  /// flowing but deliveries shed; see GovernMemory).
  bool degraded() const {
    return degraded_.load(std::memory_order_relaxed) ||
           mem_hard_.load(std::memory_order_relaxed);
  }
  ///@}

  /// \name Bounded-memory governance (ShardedConfig::memory)
  ///
  /// GovernMemory() is the per-epoch governance poll (the engine calls it
  /// once per step). Cheap when below the soft watermark: one pool
  /// ApproxBytes plus two relaxed loads per shard. At or above it, the
  /// runtime runs a value-preserving reclamation pass at a full epoch
  /// barrier: collect outstanding deliveries, re-intern every live string
  /// holder (shard fabricators, merge stages, spools, replay logs) into
  /// the pool's next generation, retire all older rotating generations,
  /// and trim arenas + operator scratch. Delivered streams stay
  /// byte-identical — the barrier+collect is the same observable pattern
  /// Checkpoint() already performs and re-interning moves handles, never
  /// values. At the hard watermark the runtime additionally degrades
  /// gracefully: every query's deliveries follow the configured hard shed
  /// policy (kDropOldest/kReject) regardless of credits, shard queue
  /// pushes become try-once, and degraded() reports true until pressure
  /// recedes below the soft watermark.
  ///@{
  /// One governance poll; no-op when ShardedConfig::memory.budget_bytes
  /// is 0.
  Status GovernMemory();
  /// The governor's current pressure level.
  MemoryPressure memory_pressure() const {
    return governor_ != nullptr ? governor_->pressure()
                                : MemoryPressure::kNone;
  }
  ///@}

  /// \brief Aggregated counters across every shard fabricator plus the
  /// merge stages. Waits for queued work first, so the numbers are
  /// consistent with all enqueued batches. If a shard has latched a
  /// processing error the stats come back zeroed (with an ERROR log) —
  /// use TrySnapshot when the caller can propagate a Status.
  ShardedStats Snapshot() const;

  /// \brief Status-carrying Snapshot(): surfaces a latched shard error
  /// instead of silently zeroed counters.
  Result<ShardedStats> TrySnapshot() const;

  /// Tuples routed into some shard topology (aggregate; drains first).
  std::uint64_t tuples_routed() const { return Snapshot().tuples_routed; }

  /// Tuples dropped in the map phase, on the router or inside shards.
  std::uint64_t tuples_unrouted() const { return Snapshot().tuples_unrouted; }

  /// Total operator evaluations across shards and merge stages.
  std::uint64_t TotalOperatorEvaluations() const {
    return Snapshot().total_operator_evaluations;
  }

  /// Live queries.
  std::size_t NumQueries() const;

  /// Worker shards.
  std::size_t num_shards() const { return shards_.size(); }

  /// This runtime's registry metric scope, e.g. "craqr.rt3": the prefix
  /// of its `.shard<i>.*` and `.router.*` metrics (obs/metrics.h).
  const std::string& metrics_scope() const { return metrics_scope_; }

  /// \brief Runs StreamFabricator::ValidateInvariants on every shard (after
  /// a drain) and checks the router's own bookkeeping: every query's shard
  /// attachments resolve to live partial queries on the right shards, the
  /// cross-shard merge stages conserve the operator throughput counters
  /// across batch emits (head -> monitor -> sink), and no merge stage has
  /// received more tuples than its shard partial streams delivered.
  Status ValidateInvariants() const;

  /// Invokes `visitor` on every operator of every shard fabricator and of
  /// every router merge stage, after a barrier (cost accounting).
  void VisitOperators(
      const std::function<void(const ops::Operator&)>& visitor) const;

  /// Concatenated per-shard topology descriptions plus merge-stage lines.
  std::string DescribeTopology() const;

  /// The logical grid.
  const geom::Grid& grid() const { return grid_; }

 private:
  /// A query's partial stream on one shard.
  struct ShardAttachment {
    std::size_t shard = 0;
    query::QueryId local_id = 0;  // id assigned by the shard's fabricator
  };

  /// One shed-and-held epoch delivery (ShedPolicy::kSpool/kDropOldest).
  struct SpooledDelivery {
    std::uint64_t epoch = 0;
    ops::TupleBatch batch;
  };

  /// Router-level per-query state: the cross-shard merge stage.
  struct QueryState {
    fabric::QueryStream stream;
    ops::Pipeline merge_pipeline;
    ops::Operator* merge_head = nullptr;  // U (or pass-through) input
    std::vector<ShardAttachment> attachments;
    std::vector<geom::CellIndex> cells;
    /// Remaining delivery credits (kUnlimitedCredits = no budget).
    std::uint64_t credits = kUnlimitedCredits;
    /// Epoch deliveries shed while out of credits, oldest first.
    std::deque<SpooledDelivery> spool;
  };

  /// One held input sub-batch for crash replay (checkpointing only).
  struct ReplayEntry {
    std::uint64_t epoch = 0;
    ops::TupleBatch batch;
  };

  /// The in-memory snapshot Checkpoint() maintains.
  struct CheckpointState {
    bool valid = false;
    /// last_enqueued_epoch_ at capture time.
    std::uint64_t epoch = 0;
    /// One fabric::StreamFabricator::SaveState blob per shard.
    std::vector<std::string> shard_blobs;
    /// Per shard: snapshot-local query id -> router query id (feeds the
    /// restore DeliveryFactory and the attachment re-pointing).
    std::vector<std::unordered_map<query::QueryId, query::QueryId>>
        local_to_router;
  };

  ShardedFabricator(const geom::Grid& grid, const ShardedConfig& config)
      : grid_(grid), config_(config) {}

  Status EnqueueBatchLocked(const std::vector<ops::Tuple>& batch,
                            std::uint64_t epoch);
  Status EnqueueBatchLocked(ops::TupleBatch& batch, std::uint64_t epoch);
  Status EnqueueSubBatchesLocked(std::vector<ops::TupleBatch>& sub,
                                 std::uint64_t epoch);
  Status BarrierLocked() const;
  /// Waits only for batches of epochs <= `epoch` (per-shard in-flight
  /// bookkeeping picks the right wait target on each shard).
  Status WaitThroughEpochLocked(std::uint64_t epoch);
  /// Collects outboxes and merges deliveries of epochs <=
  /// `max_delivery_epoch` (one merge-stage flush per epoch, in epoch
  /// order); pass the default after a full barrier, the drained epoch
  /// after a partial one (later epochs may be mid-processing).
  Status CollectLocked(
      std::uint64_t max_delivery_epoch = ~static_cast<std::uint64_t>(0));
  Result<ShardedStats> SnapshotLocked() const;
  Result<fabric::QueryStream> InsertQueryLocked(ops::AttributeId attribute,
                                                const geom::Rect& region,
                                                double rate);
  Status RemoveQueryLocked(query::QueryId id);
  /// Owner lookup under mu_ (internal callers already hold the mutex).
  std::size_t ShardForCellLocked(const geom::CellIndex& index) const;
  /// Barrier + collect + plan + migrate; returns cells moved.
  Result<std::size_t> RebalanceLocked();
  /// Moves one cell's chains from `move.from` to `move.to` and flips its
  /// routing-table entry. The caller holds mu_ and has barriered.
  Status MigrateCellLocked(const CellMove& move);
  /// Barrier + collect + serialize every shard + reset replay logs.
  Status CheckpointLocked();
  /// Fail-stop `victim` and rebuild it from checkpoint_ + its replay log.
  Status CrashAndRestoreLocked(std::size_t victim);
  /// Fires the "runtime.shard_crash" fault point (called at every epoch
  /// boundary); crashes-and-restores the armed victim when it fires.
  Status MaybeInjectCrashLocked();
  /// Admission-aware delivery of one collected epoch batch into a query's
  /// merge stage: spends a credit or sheds per the policy (under hard
  /// memory pressure, sheds per the governor's policy regardless of
  /// credits).
  Status DeliverEpochLocked(QueryState& qs, std::uint64_t epoch,
                            ops::TupleBatch& batch);
  /// The governed string pool (config_.fabric.value_pool or Global()).
  ops::ValuePool& PoolLocked() const;
  /// The governance poll + reclamation/degradation body (see GovernMemory).
  Status GovernMemoryLocked();
  /// Sums pool/arena/queue byte accounting (the governor's poll input).
  MemoryGovernor::Usage AccountMemoryLocked() const;
  /// Re-delivers spooled epochs (oldest first) while credits allow.
  Status DrainSpoolLocked(QueryState& qs);
  /// The watchdog thread body (admission.watchdog_interval_ms > 0).
  void WatchdogLoop();
  /// Releases `lock` and then invokes the violation callback on the events
  /// CollectLocked buffered whose epoch is within the replay horizon,
  /// sorted by (completed_at, attribute, cell) — the canonical order
  /// StreamFabricator replays in, making feedback shard-count-independent.
  /// Events beyond the horizon stay buffered. The callback is user code
  /// and may re-enter any public method, so it must never run under mu_.
  void ReplayViolationsAndUnlock(std::unique_lock<std::mutex>& lock);

  /// Horizon value meaning "never engaged: replay everything".
  static constexpr std::uint64_t kNoReplayHorizon =
      ~static_cast<std::uint64_t>(0);

  geom::Grid grid_;
  ShardedConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex mu_;
  std::unordered_map<query::QueryId, QueryState> queries_;
  query::QueryId next_query_id_ = 1;
  fabric::ViolationCallback violation_callback_;
  /// Events collected from shard outboxes but not yet replayed to the
  /// callback (replay happens after mu_ is released; events beyond the
  /// replay horizon survive here across replay points).
  std::vector<ViolationEvent> pending_violations_;
  std::uint64_t router_unrouted_ = 0;  // tuples outside the grid region
  /// Highest epoch stamped onto an enqueued batch so far.
  std::uint64_t last_enqueued_epoch_ = 0;
  /// Violation-replay horizon (see SetReplayHorizon).
  std::uint64_t replay_horizon_ = kNoReplayHorizon;
  /// Highest epoch whose deliveries have been collected into the merge
  /// stages — the discard line for a restored shard's replayed outbox
  /// (everything at or below regenerated content the router already has).
  std::uint64_t collected_through_ = 0;
  /// \name Fault-tolerance state (checkpoint.enabled only)
  ///@{
  CheckpointState checkpoint_;
  /// Per-shard input sub-batches held since the last checkpoint, in epoch
  /// order, bounded by checkpoint.replay_limit_epochs.
  std::vector<std::deque<ReplayEntry>> shard_replay_;
  /// Set when a shard's replay log overflowed (byte-exact recovery of
  /// that shard is impossible until the next checkpoint).
  std::vector<char> replay_truncated_;
  ///@}
  /// \name Watchdog (admission.watchdog_interval_ms > 0)
  ///@{
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  /// batches_processed per shard at the previous sample.
  std::vector<std::uint64_t> watchdog_prev_batches_;
  /// Consecutive no-progress-with-backlog samples per shard.
  std::vector<std::uint64_t> watchdog_ticks_;
  std::atomic<bool> degraded_{false};
  ///@}
  /// \name Memory governance (ShardedConfig::memory)
  ///@{
  /// Always constructed (keeps the craqr.mem.* families registered);
  /// inert unless memory.budget_bytes > 0.
  std::unique_ptr<MemoryGovernor> governor_;
  /// Hard-pressure latch: read by DeliverEpochLocked (shed regardless of
  /// credits) and EnqueueSubBatchesLocked (try-once queue pushes), set by
  /// GovernMemoryLocked, cleared when pressure recedes below soft.
  std::atomic<bool> mem_hard_{false};
  ///@}
  /// \name Fault / admission telemetry (process-wide registry names,
  /// registered unconditionally so the exporter always carries the
  /// families).
  ///@{
  obs::Counter* admission_spooled_ = nullptr;
  obs::Counter* admission_dropped_ = nullptr;
  obs::Counter* admission_rejected_ = nullptr;
  obs::Counter* admission_delivered_spooled_ = nullptr;
  obs::Counter* admission_queue_timeouts_ = nullptr;
  obs::Counter* admission_queue_rejects_ = nullptr;
  obs::Gauge* admission_degraded_ = nullptr;
  obs::Counter* fault_checkpoints_ = nullptr;
  obs::Counter* fault_shard_crashes_ = nullptr;
  obs::Counter* fault_replaylog_truncated_ = nullptr;
  obs::Counter* fault_worker_stalls_ = nullptr;
  obs::Counter* fault_injections_ = nullptr;
  obs::LogHistogram* fault_recovery_ns_ = nullptr;
  ///@}
  /// Per-shard epochs with batches enqueued but not yet waited on, in
  /// ascending order (epochs are sparse per shard: a step whose sub-batch
  /// for a shard was empty never appears in that shard's deque). Mutable:
  /// the const full barrier prunes entries it has proven complete.
  mutable std::vector<std::deque<std::uint64_t>> shard_inflight_epochs_;
  /// \name Observability
  /// Registry-backed telemetry under this runtime's instance scope
  /// ("craqr.rt<id>"; see obs/metrics.h). The enqueue counters are
  /// functional — ShardedStats reads them — and never runtime-gated; the
  /// histograms and the optional router trace ring are observation extras
  /// gated on obs::IsEnabled().
  ///@{
  /// This runtime's metric-name scope, e.g. "craqr.rt0".
  std::string metrics_scope_;
  /// Router-side per-shard load counters (tuples/batches partitioned into
  /// each shard; the shard-side counters live on the workers).
  std::vector<obs::Counter*> shard_tuples_enqueued_;
  std::vector<obs::Counter*> shard_batches_enqueued_;
  /// Wall time of the router's partition+enqueue pass per batch.
  obs::LogHistogram* router_enqueue_ns_ = nullptr;
  /// Wall time DrainThrough/Drain spent waiting on shard epochs.
  obs::LogHistogram* router_drain_wait_ns_ = nullptr;
  /// CollectLocked's outbox take + splice, one record per collect pass.
  obs::LogHistogram* router_collect_ns_ = nullptr;
  /// One DeliverEpochLocked (merge-stage push + FlushAll, spool drain
  /// included), one record per delivered (epoch, query).
  obs::LogHistogram* router_merge_ns_ = nullptr;
  /// Router span trace ring; nullptr unless config.trace_capacity > 0.
  obs::TraceRing* router_trace_ = nullptr;
  ///@}
  /// \name Histogram-router state
  /// Dense flat-cell -> owning-shard table (built once in Make — the
  /// cell-hash partition is static) with one sentinel entry for
  /// out-of-region rows, plus recycled per-batch scratch columns, so
  /// EnqueueBatch partitions a batch with one branch-free cell sweep, one
  /// gather, and one count -> prefix-sum -> scatter pass instead of
  /// per-row hash-and-branch dispatch.
  ///@{
  std::vector<std::uint32_t> shard_for_flat_;
  std::vector<std::uint32_t> row_cells_;
  std::vector<std::uint32_t> row_shards_;
  std::vector<std::uint32_t> shard_counts_;
  std::vector<std::uint32_t> grouped_rows_;
  ///@}
  /// \name Load-aware rebalancing state (enable_rebalancing only)
  ///@{
  /// Greedy planner with hysteresis; nullptr when rebalancing is off.
  std::unique_ptr<Rebalancer> rebalancer_;
  /// Per-flat-cell routed-tuple bank ("craqr.fabric.cell_routed.h<N>").
  /// Process-wide per grid size, so deltas are taken against the snapshot
  /// below rather than absolute values.
  obs::CounterBank* cell_routed_bank_ = nullptr;
  /// Bank values at the previous Rebalance() (or at creation), so each
  /// plan sees only the traffic of the last window.
  std::vector<std::uint64_t> cell_routed_prev_;
  /// Per-shard busy_ns at the previous Rebalance(), same windowing.
  std::vector<std::uint64_t> shard_busy_prev_;
  /// Routing-table generation + migration counters (ShardedStats fields).
  std::uint64_t routing_version_ = 0;
  std::uint64_t rebalance_events_ = 0;
  std::uint64_t cells_migrated_ = 0;
  /// Process-wide rebalance telemetry (functional counters for tests and
  /// the bench harness; plan_ns is observation-gated).
  obs::Counter* rebalance_migrations_ = nullptr;
  obs::Counter* rebalance_moved_cells_ = nullptr;
  obs::LogHistogram* rebalance_plan_ns_ = nullptr;
  ///@}
};

}  // namespace runtime
}  // namespace craqr
