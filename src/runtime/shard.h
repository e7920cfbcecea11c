#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "fabric/fabricator.h"
#include "geometry/grid.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/tuple.h"
#include "ops/tuple_batch.h"
#include "query/query.h"
#include "runtime/batch_arena.h"
#include "runtime/task_queue.h"

/// \file shard.h
/// \brief One shard of the sharded execution runtime.
///
/// A shard owns an independent StreamFabricator over its subset of grid
/// cells and a dedicated worker thread that drains a bounded task queue.
/// Tasks are either tuple sub-batches (the hot path) or control commands
/// (query insertion/removal, barriers); FIFO order keeps control changes
/// correctly interleaved with the batches around them. An *inline* shard
/// (the sole shard of a one-shard runtime) has no worker: every task runs
/// on the caller's thread before the enqueue or control call returns, so
/// its queue stays empty and its epochs are complete on return. Tuples
/// delivered by the shard's partial query streams accumulate in an outbox
/// the router collects at batch boundaries and feeds into the per-query U
/// merge stage.
///
/// Batch tasks carry an **epoch** stamp — the engine's step number on the
/// pipelined path. Epochs are monotone in enqueue order, so once the
/// worker completes the batch of epoch e, every batch of an earlier epoch
/// is complete too; WaitForEpochCompleted() lets the router drain *through*
/// an epoch without barriering work enqueued after it (the heart of the
/// pipelined engine loop's partial drain).
///
/// The worker also keeps per-shard load telemetry — batches/tuples
/// processed and the wall-clock time spent inside ProcessBatch — that the
/// router surfaces through ShardedStats::per_shard as the measurement
/// input for load-aware cell rebalancing. The counters live in the
/// process-wide obs registry (one source of truth for Stats() and the
/// metrics exporter) under `<scope>.shard<i>.*`; latency histograms
/// (queue wait, processing time, enqueue->drain batch latency) and an
/// optional per-shard trace ring ride along, gated on obs::IsEnabled().

namespace craqr {
namespace runtime {

/// \brief An F-operator batch report captured on a worker thread, replayed
/// to the router's violation callback on the collecting thread (so budget
/// tuning stays single-threaded). `epoch` is the stamp of the batch task
/// the report fired under (0 for reports raised outside a stamped batch),
/// letting the router hold replay back to an epoch horizon.
struct ViolationEvent {
  ops::AttributeId attribute = 0;
  geom::CellIndex cell;
  ops::FlattenBatchReport report;
  std::uint64_t epoch = 0;
};

/// \brief Everything a shard produced since the last collection: one
/// columnar batch of delivered tuples per (epoch, router-level query)
/// (appended batch-at-a-time by the partial-stream sinks — one mutex
/// acquisition per delivered batch, not per tuple) plus buffered
/// F-operator reports. Deliveries are keyed by epoch (ordered map,
/// ascending) so the collector can feed each query's merge stage one
/// epoch at a time: F operators buffer tuples across epochs, so a
/// combined multi-epoch reorder flush would interleave differently than
/// the synchronous per-step flushes — per-epoch grouping keeps delivery
/// order byte-exact and independent of when the collect happens.
struct ShardOutbox {
  std::map<std::uint64_t,
           std::unordered_map<query::QueryId, ops::TupleBatch>>
      delivered;
  std::vector<ViolationEvent> violations;
};

class Shard;

/// \brief Shared coordination state of one runtime's work-stealing shard
/// group.
///
/// Shards register at creation; any producer-side event (task push, job
/// board publish, queue close) calls Signal(), which bumps a version
/// counter and wakes every idle worker. Idle workers run a version-guarded
/// scan — record the version, try the own queue, try the peers' job
/// boards, and only sleep until the version moves past what they saw — so
/// a wakeup between the scan and the sleep is never lost.
class StealDomain {
 public:
  StealDomain() = default;
  StealDomain(const StealDomain&) = delete;
  StealDomain& operator=(const StealDomain&) = delete;

  /// Adds a shard to the group (called once per shard, before its worker
  /// can observe peers).
  void Register(Shard* shard) {
    std::lock_guard<std::mutex> lock(mu_);
    members_.push_back(shard);
  }

  /// Wakes every idle worker in the group to re-scan for work.
  void Signal() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++version_;
    }
    cv_.notify_all();
  }

 private:
  friend class Shard;

  std::uint64_t Version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return version_;
  }

  /// Sleeps until Signal() has been called after `seen` was read.
  void WaitForChange(std::uint64_t seen) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, seen] { return version_ != seen; });
  }

  /// Stable copy of the member list (registration may still be appending
  /// while earlier shards' workers already run).
  std::vector<Shard*> MembersSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return members_;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t version_ = 0;
  std::vector<Shard*> members_;
};

/// \brief A worker thread (none when inline) plus the StreamFabricator it
/// exclusively drives.
class Shard {
 public:
  /// A command executed on the worker thread, in queue order, with
  /// exclusive access to the shard's fabricator.
  using ControlFn = std::function<void(fabric::StreamFabricator&)>;

  /// Creates a shard and starts its worker. All shards share the master
  /// fabric config (operator RNG seeds are cell-local, so disjoint cell
  /// subsets yield streams identical to a single fabricator's).
  /// `metrics_scope` prefixes the shard's registry metric names
  /// ("<scope>.shard<index>.*"); empty auto-allocates a fresh
  /// "craqr.rt<id>" instance scope. `trace_capacity` > 0 additionally
  /// creates a span trace ring of that many events for the worker. A
  /// non-null `steal_domain` enrolls the shard in a work-stealing group:
  /// its worker helps drain peers' published chain-group jobs while its
  /// own queue is empty, and its own batches are dispatched cooperatively
  /// (fabric::StreamFabricator::BeginDispatch) so peers can help back.
  /// `run_inline` starts no worker: tasks then run on the caller's thread.
  static Result<std::unique_ptr<Shard>> Make(
      std::size_t index, const geom::Grid& grid,
      const fabric::FabricConfig& config, std::size_t queue_capacity,
      const std::string& metrics_scope = std::string(),
      std::size_t trace_capacity = 0,
      std::shared_ptr<StealDomain> steal_domain = nullptr,
      bool run_inline = false);

  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Enqueues a tuple sub-batch for asynchronous processing; blocks when
  /// the queue is full (back-pressure). The batch storage moves into the
  /// task queue and is consumed by the worker's batch-native
  /// StreamFabricator::ProcessBatch. `epoch` stamps the task (pass 0 for
  /// unstamped work); callers must enqueue stamped epochs in strictly
  /// increasing order for WaitForEpochCompleted to be meaningful (the
  /// router enforces this globally).
  Status EnqueueBatch(ops::TupleBatch batch, std::uint64_t epoch = 0);

  /// Convenience overload scattering a tuple vector into fresh columns
  /// (one pass, copies; tests and tools only — the hot path hands over
  /// TupleBatches directly).
  Status EnqueueBatch(const std::vector<ops::Tuple>& batch,
                      std::uint64_t epoch = 0) {
    return EnqueueBatch(ops::TupleBatch(batch), epoch);
  }

  /// \brief Non-blocking enqueue for credit-based admission: never applies
  /// back-pressure. ResourceExhausted when the queue is full (the caller
  /// decides whether to spool, drop or reject the batch),
  /// FailedPrecondition when the shard is stopped. The batch is consumed
  /// only on success.
  Status TryEnqueueBatch(ops::TupleBatch batch, std::uint64_t epoch = 0);

  /// \brief Bounded-wait enqueue: blocks up to `timeout` for queue space,
  /// then fails with ResourceExhausted — the middle ground between
  /// EnqueueBatch (a stalled worker wedges the producer forever) and
  /// TryEnqueueBatch (shed immediately).
  Status EnqueueBatchFor(ops::TupleBatch batch, std::uint64_t epoch,
                         std::chrono::milliseconds timeout);

  /// Runs `fn` on the worker thread (the caller's, on an inline shard)
  /// after all previously queued tasks and waits for it to finish. The
  /// function reports its own results through captured state. A throwing
  /// `fn` is caught and surfaces here as Internal (with the shard index
  /// and the exception message) instead of wedging the waiting caller.
  Status RunControl(ControlFn fn);

  /// \brief Simulated shard crash (fault-tolerance testing): destroys the
  /// fabricator — live operator chains, RNG phases, partial F batches,
  /// every query's partial stream — and replaces it with a fresh empty one
  /// over the same grid and config, discards the outbox, and clears any
  /// latched processing error. The swap runs as a control task, so it
  /// lands at a task boundary like every other piece of topology surgery.
  /// The shard keeps its thread, queue and steal-domain membership (peers
  /// hold raw pointers; only the fabricator state "crashes"). The caller
  /// (ShardedFabricator::CrashAndRestore) is responsible for rebuilding
  /// state from a checkpoint and replaying held epochs.
  Status CrashFabricator();

  /// Waits until every task enqueued so far has been processed.
  Status Drain() {
    return RunControl([](fabric::StreamFabricator&) {});
  }

  /// \brief Blocks until the worker has completed a batch task stamped
  /// with an epoch >= `epoch` (no-op for epoch 0). The caller must know a
  /// batch with that exact epoch was enqueued to THIS shard — epochs are
  /// sparse per shard (a step whose sub-batch for this shard was empty is
  /// never enqueued), so waiting on an epoch the shard never received
  /// would block until a later one completes (or forever). The router
  /// tracks per-shard in-flight epochs and always passes one it enqueued.
  /// Returns the shard's latched processing status.
  Status WaitForEpochCompleted(std::uint64_t epoch);

  /// Splices a delivered batch (active tuples, arrival order) into the
  /// outbox under one lock acquisition; called from partial-stream sink
  /// batch callbacks on the worker thread.
  void DeliverBatch(query::QueryId query, const ops::TupleBatch& batch);

  /// \brief Moves the accumulated outbox out — but only deliveries AND
  /// violation events of epochs <= `max_delivery_epoch`; later-epoch
  /// events stay in the outbox until a later collection. A partial drain
  /// passes the epoch it waited through: deliveries of a *later* epoch
  /// might already sit in the outbox half-complete (the worker is
  /// mid-batch), and collecting a split epoch would split its merge-stage
  /// reorder flush — diverging from the synchronous one-flush-per-step
  /// order. Epoch-gating the violations the same way is what lets crash
  /// recovery discard a restored shard's replayed outbox below the
  /// collected horizon without double-replaying feedback the router
  /// already applied. Full barriers pass the default (everything is
  /// complete then). Replay stays epoch-major-sorted on the router, so
  /// partial collection cannot reorder it.
  ShardOutbox TakeOutbox(
      std::uint64_t max_delivery_epoch = ~static_cast<std::uint64_t>(0));

  /// First batch-processing error, latched (control errors are reported
  /// through the control functions themselves).
  Status status() const;

  /// \brief One coherent pass over the worker-side load counters (all
  /// fields read back to back — after a Drain()/barrier the values are
  /// mutually consistent: processed == enqueued and queue_depth == 0).
  struct Load {
    std::uint64_t batches_processed = 0;
    std::uint64_t tuples_processed = 0;
    std::uint64_t busy_ns = 0;
    std::size_t queue_depth = 0;
  };

  /// \name Load telemetry
  /// Monotone counters maintained by the worker, stored in the process
  /// obs registry ("<scope>.shard<i>.*" — never runtime-gated, Stats()
  /// depends on them). Read after a Drain()/barrier for values consistent
  /// with the queue; use LoadSnapshot() when several fields must cohere.
  ///@{
  /// All load counters in one pass.
  Load LoadSnapshot() const {
    Load load;
    load.batches_processed = batches_processed_->value();
    load.tuples_processed = tuples_processed_->value();
    load.busy_ns = busy_ns_->value();
    load.queue_depth = queue_.size();
    return load;
  }
  /// Batch tasks the worker has finished processing.
  std::uint64_t batches_processed() const {
    return batches_processed_->value();
  }
  /// Tuples in those batches (active rows at enqueue time).
  std::uint64_t tuples_processed() const {
    return tuples_processed_->value();
  }
  /// Wall-clock nanoseconds the worker spent inside ProcessBatch — the
  /// per-shard busy-time signal for load-aware rebalancing.
  std::uint64_t busy_ns() const { return busy_ns_->value(); }
  /// Chain-group jobs this shard's worker ran on behalf of a peer
  /// ("<scope>.shard<i>.steals"); always 0 outside a steal domain.
  std::uint64_t steals() const { return steals_->value(); }
  /// The worker's span trace ring; nullptr unless Make got a
  /// trace_capacity > 0.
  const obs::TraceRing* trace_ring() const { return trace_; }
  ///@}

  /// \brief The shard's fabricator. Worker-owned: other threads may touch
  /// it only between a Drain() and the next enqueue (the drain's
  /// promise/future pair publishes the worker's writes).
  fabric::StreamFabricator& fabricator() { return *fabricator_; }
  const fabric::StreamFabricator& fabricator() const { return *fabricator_; }

  /// This shard's index in the runtime.
  std::size_t index() const { return index_; }

  /// Tasks currently queued (diagnostics).
  std::size_t queue_depth() const { return queue_.size(); }

  /// Approximate bytes of batch storage currently waiting in the task
  /// queue (enqueued but not yet processed) — governor accounting input.
  std::size_t queue_bytes() const {
    return queue_bytes_.load(std::memory_order_relaxed);
  }

  /// \brief The shard's outbox-splice storage pool. The worker Acquire()s
  /// a warmed batch for each new (epoch, query) delivery group; the
  /// router Release()s them back after collection, so steady-state epochs
  /// allocate nothing. Thread-safe — the router trims it under memory
  /// pressure while the worker runs.
  BatchArena& arena() { return arena_; }
  const BatchArena& arena() const { return arena_; }

  /// Closes the queue and joins the worker; idempotent.
  void Stop();

 private:
  struct Task {
    ops::TupleBatch batch;
    ControlFn control;  // non-null => control task
    std::uint64_t epoch = 0;
    /// Enqueue timestamp (obs::NowNs) for queue-wait / enqueue->drain
    /// latency histograms; 0 when observability is disabled.
    std::uint64_t enqueue_ns = 0;
  };

  Shard(std::size_t index, const geom::Grid& grid,
        const fabric::FabricConfig& config,
        std::unique_ptr<fabric::StreamFabricator> fabricator,
        std::size_t queue_capacity, const std::string& metrics_scope,
        std::size_t trace_capacity);

  /// Builds a stamped batch task (shared by the three enqueue variants).
  Task MakeBatchTask(ops::TupleBatch batch, std::uint64_t epoch);
  /// Post-push bookkeeping shared by the enqueue variants.
  void NoteEnqueued();
  /// Runs a batch task at once on the caller's thread (inline shards).
  Status RunInline(Task task);

  void WorkerLoop();
  /// Runs one popped task (batch or control); shared by both worker-loop
  /// variants.
  void ProcessTask(Task task);
  /// The stamped-batch path inside a steal domain: routes the batch into
  /// chain-group jobs, publishes the job board so idle peers can claim
  /// groups, claims the rest itself, waits for stragglers, and closes the
  /// batch (FinishDispatch: flush + canonical violation replay). Delivered
  /// streams are byte-identical to the sequential path — jobs partition
  /// the chains by shared tapping query, so no merge head ever sees two
  /// threads.
  Status ProcessBatchCooperative(ops::TupleBatch& batch);
  /// Claims and runs one job from this shard's board (called by the owner
  /// worker and by stealing peers). Returns false when nothing is
  /// claimable. All board bookkeeping is under job_mu_ — claims are rare
  /// relative to the work a claim buys, so the lock is cold.
  bool ClaimAndRunOneJob();
  /// Helps the peer with the most unclaimed jobs; returns true when a job
  /// was stolen and run (the caller then re-checks its own queue first).
  bool TryStealOnce();

  std::size_t index_;
  std::unique_ptr<fabric::StreamFabricator> fabricator_;
  /// Construction inputs, kept so CrashFabricator can rebuild an empty
  /// fabricator with identical parameters (master seed included).
  geom::Grid grid_;
  fabric::FabricConfig fabric_config_;
  BoundedTaskQueue<Task> queue_;
  std::thread worker_;
  /// No worker thread: tasks run on the caller's thread (see Make).
  bool inline_ = false;
  bool stopped_ = false;

  /// Work-stealing group; nullptr for fixed-ownership shards (the default
  /// and the pre-stealing behaviour).
  std::shared_ptr<StealDomain> steal_domain_;
  /// \name Cooperative-dispatch job board (all fields guarded by job_mu_).
  /// Active from publish until every chain-group job of the in-flight
  /// batch completed; the owner cannot start its next task before then,
  /// so a peer holding a claimed job always runs it against a stable
  /// dispatch.
  ///@{
  std::mutex job_mu_;
  std::condition_variable job_cv_;
  std::uint32_t job_next_ = 0;
  std::uint32_t job_total_ = 0;
  std::uint32_t job_done_ = 0;
  bool job_active_ = false;
  Status job_status_;
  ///@}

  mutable std::mutex outbox_mu_;
  ShardOutbox outbox_;
  /// Recycles outbox-splice batch storage between the worker (producer)
  /// and the router (consumer); see arena().
  BatchArena arena_;
  /// Bytes of batch storage sitting in queue_ (added on a successful
  /// enqueue, subtracted when the worker picks the task up).
  std::atomic<std::size_t> queue_bytes_{0};

  mutable std::mutex status_mu_;
  Status status_ = Status::OK();

  /// Highest stamped epoch whose batch task has completed (epochs are
  /// monotone in queue order, so >= e means everything through e is done).
  std::mutex epoch_mu_;
  std::condition_variable epoch_cv_;
  std::uint64_t completed_epoch_ = 0;
  /// Epoch of the most recent stamped batch task (sticky across control
  /// tasks, so anything they deliver or report joins the latest epoch's
  /// group); worker-thread only (read by the violation and delivery
  /// callbacks, which fire on the worker).
  std::uint64_t current_epoch_ = 0;

  /// \name Registry-backed telemetry (stable pointers, process lifetime).
  /// The three load counters are functional (ShardedStats reads them); the
  /// histograms and trace ring are observation extras gated on
  /// obs::IsEnabled().
  ///@{
  obs::Counter* batches_processed_ = nullptr;
  obs::Counter* tuples_processed_ = nullptr;
  obs::Counter* busy_ns_ = nullptr;
  obs::Counter* steals_ = nullptr;
  obs::LogHistogram* queue_wait_ns_ = nullptr;
  obs::LogHistogram* process_ns_ = nullptr;
  obs::LogHistogram* batch_latency_ns_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  ///@}
};

}  // namespace runtime
}  // namespace craqr
