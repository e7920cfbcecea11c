#include "runtime/sharded_fabricator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "common/simd.h"
#include "common/state_io.h"
#include "ops/extras.h"
#include "ops/value_pool.h"
#include "runtime/faultpoint.h"

namespace {
/// Checkpoint-file framing (the per-shard payloads inside carry their own
/// fabric-state version).
constexpr std::uint32_t kCheckpointFileMagic = 0x43525143u;  // "CQRC"
constexpr std::uint32_t kCheckpointFileVersion = 1;
}  // namespace

namespace craqr {
namespace runtime {

Result<std::unique_ptr<ShardedFabricator>> ShardedFabricator::Make(
    const geom::Grid& grid, const ShardedConfig& config) {
  if (config.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (config.queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  auto runtime =
      std::unique_ptr<ShardedFabricator>(new ShardedFabricator(grid, config));
  // Fresh per-runtime metric scope: several runtimes in one process (tests,
  // benches, future multi-tenant serving) must never alias each other's
  // registry counters.
  runtime->metrics_scope_ =
      "craqr.rt" + std::to_string(obs::Registry::Global().NextInstanceId());
  // One steal domain per runtime: idle workers scan only their siblings'
  // job boards. Pointless with a single shard (no peers to help).
  std::shared_ptr<StealDomain> steal_domain;
  if (config.enable_stealing && config.num_shards >= 2) {
    steal_domain = std::make_shared<StealDomain>();
  }
  // A single shard has nothing to overlap with, so it runs inline on the
  // caller's thread: no worker to start, wake or join.
  const bool run_inline = config.num_shards == 1;
  runtime->shards_.reserve(config.num_shards);
  for (std::size_t i = 0; i < config.num_shards; ++i) {
    CRAQR_ASSIGN_OR_RETURN(
        auto shard,
        Shard::Make(i, grid, config.fabric, config.queue_capacity,
                    runtime->metrics_scope_, config.trace_capacity,
                    steal_domain, run_inline));
    runtime->shards_.push_back(std::move(shard));
  }
  runtime->shard_inflight_epochs_.resize(config.num_shards);
  runtime->shard_tuples_enqueued_.reserve(config.num_shards);
  runtime->shard_batches_enqueued_.reserve(config.num_shards);
  for (std::size_t i = 0; i < config.num_shards; ++i) {
    const std::string base =
        runtime->metrics_scope_ + ".shard" + std::to_string(i);
    runtime->shard_tuples_enqueued_.push_back(
        obs::GetCounter(base + ".tuples_enqueued"));
    runtime->shard_batches_enqueued_.push_back(
        obs::GetCounter(base + ".batches_enqueued"));
  }
  runtime->router_enqueue_ns_ =
      obs::GetHistogram(runtime->metrics_scope_ + ".router.enqueue_ns");
  runtime->router_drain_wait_ns_ =
      obs::GetHistogram(runtime->metrics_scope_ + ".router.drain_wait_ns");
  runtime->router_collect_ns_ =
      obs::GetHistogram(runtime->metrics_scope_ + ".router.collect_ns");
  runtime->router_merge_ns_ =
      obs::GetHistogram(runtime->metrics_scope_ + ".router.merge_ns");
  runtime->router_trace_ = obs::Tracer::Global().CreateRing(
      runtime->metrics_scope_ + ".router", config.trace_capacity);
  // Dense flat-cell -> shard table for the histogram router, seeded with
  // the static cell-hash partition. Without rebalancing it never changes;
  // with it, Rebalance() flips entries at epoch barriers — the table IS
  // the epoch-versioned routing state. The trailing sentinel entry is the
  // "outside R" bucket. Skipped (falling back to per-row hash routing)
  // only for absurdly fine grids.
  if (grid.NumCells() <= (1u << 22)) {
    runtime->shard_for_flat_.resize(grid.NumCells() + 1);
    for (std::uint32_t q = 0; q < grid.CellsPerSide(); ++q) {
      for (std::uint32_t r = 0; r < grid.CellsPerSide(); ++r) {
        const geom::CellIndex index{q, r};
        runtime->shard_for_flat_[grid.FlatIndex(index)] =
            static_cast<std::uint32_t>(geom::CellIndexHash{}(index) %
                                       config.num_shards);
      }
    }
    runtime->shard_for_flat_.back() =
        static_cast<std::uint32_t>(config.num_shards);
  }
  if (config.enable_rebalancing) {
    if (runtime->shard_for_flat_.empty()) {
      return Status::InvalidArgument(
          "rebalancing requires the dense routing table (grid too fine)");
    }
    runtime->rebalancer_ =
        std::make_unique<Rebalancer>(config.rebalance, config.num_shards);
    // The per-cell routed bank is process-wide per grid size (shared with
    // every fabricator over an equal grid), so load is read as deltas
    // against the snapshot taken here.
    runtime->cell_routed_bank_ = obs::GetCounterBank(
        "craqr.fabric.cell_routed.h" + std::to_string(grid.NumCells()),
        grid.NumCells());
    runtime->cell_routed_prev_.resize(grid.NumCells());
    for (std::size_t c = 0; c < grid.NumCells(); ++c) {
      runtime->cell_routed_prev_[c] = runtime->cell_routed_bank_->value(c);
    }
    runtime->shard_busy_prev_.assign(config.num_shards, 0);
    runtime->rebalance_migrations_ =
        obs::GetCounter("craqr.rebalance.migrations");
    runtime->rebalance_moved_cells_ =
        obs::GetCounter("craqr.rebalance.moved_cells");
    runtime->rebalance_plan_ns_ = obs::GetHistogram("craqr.rebalance.plan_ns");
  }
  // Admission / fault telemetry: process-wide families registered
  // unconditionally (functional counters — tests and the exporter smoke
  // assert on them — never runtime-gated).
  runtime->admission_spooled_ = obs::GetCounter("craqr.admission.spooled");
  runtime->admission_dropped_ = obs::GetCounter("craqr.admission.dropped");
  runtime->admission_rejected_ = obs::GetCounter("craqr.admission.rejected");
  runtime->admission_delivered_spooled_ =
      obs::GetCounter("craqr.admission.delivered_spooled");
  runtime->admission_queue_timeouts_ =
      obs::GetCounter("craqr.admission.queue_timeouts");
  runtime->admission_queue_rejects_ =
      obs::GetCounter("craqr.admission.queue_rejects");
  runtime->admission_degraded_ = obs::GetGauge("craqr.admission.degraded");
  runtime->fault_checkpoints_ = obs::GetCounter("craqr.fault.checkpoints");
  runtime->fault_shard_crashes_ = obs::GetCounter("craqr.fault.shard_crashes");
  runtime->fault_replaylog_truncated_ =
      obs::GetCounter("craqr.fault.replaylog_truncated");
  runtime->fault_worker_stalls_ =
      obs::GetCounter("craqr.fault.worker_stalls");
  runtime->fault_injections_ = obs::GetCounter("craqr.fault.injections");
  runtime->fault_recovery_ns_ = obs::GetHistogram("craqr.fault.recovery_ns");
  // Memory governor: constructed unconditionally (craqr.mem.* families
  // stay registered), inert unless a budget is set. With a budget, the
  // governed pool switches into generational mode so soft-pressure
  // reclamation can retire one-shot strings wholesale.
  runtime->governor_ = std::make_unique<MemoryGovernor>(config.memory);
  if (config.memory.budget_bytes > 0) {
    ops::ValuePool& pool = config.fabric.value_pool != nullptr
                               ? *config.fabric.value_pool
                               : ops::ValuePool::Global();
    pool.EnableGenerations();
  }
  runtime->shard_replay_.resize(config.num_shards);
  runtime->replay_truncated_.assign(config.num_shards, 0);
  if (config.checkpoint.enabled) {
    // The construction-time checkpoint: recovery works from epoch 0 on,
    // and HasCheckpoint() is an invariant rather than a phase.
    std::unique_lock<std::mutex> lock(runtime->mu_);
    CRAQR_RETURN_NOT_OK(runtime->CheckpointLocked());
  }
  if (config.admission.watchdog_interval_ms > 0) {
    runtime->watchdog_prev_batches_.assign(config.num_shards, 0);
    runtime->watchdog_ticks_.assign(config.num_shards, 0);
    ShardedFabricator* raw = runtime.get();
    runtime->watchdog_ = std::thread([raw] { raw->WatchdogLoop(); });
  }
  return runtime;
}

std::size_t ShardedFabricator::ShardForCell(const geom::CellIndex& index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ShardForCellLocked(index);
}

std::size_t ShardedFabricator::ShardForCellLocked(
    const geom::CellIndex& index) const {
  if (!shard_for_flat_.empty()) {
    return shard_for_flat_[grid_.FlatIndex(index)];
  }
  // Table-less fallback (oversized grid): rebalancing is rejected in Make
  // for these, so the static hash partition is always current.
  return geom::CellIndexHash{}(index) % shards_.size();
}

ShardedFabricator::~ShardedFabricator() {
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
  for (auto& shard : shards_) {
    shard->Stop();
  }
}

void ShardedFabricator::SetViolationCallback(
    fabric::ViolationCallback callback) {
  std::lock_guard<std::mutex> lock(mu_);
  violation_callback_ = std::move(callback);
}

Status ShardedFabricator::BarrierLocked() const {
  for (const auto& shard : shards_) {
    CRAQR_RETURN_NOT_OK(shard->Drain());
    CRAQR_RETURN_NOT_OK(shard->status());
  }
  // Everything enqueued so far has completed; drop the epoch bookkeeping
  // so later partial drains skip straight past these epochs.
  for (auto& inflight : shard_inflight_epochs_) {
    inflight.clear();
  }
  return Status::OK();
}

Status ShardedFabricator::WaitThroughEpochLocked(std::uint64_t epoch) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::deque<std::uint64_t>& inflight = shard_inflight_epochs_[i];
    std::uint64_t target = 0;
    while (!inflight.empty() && inflight.front() <= epoch) {
      target = inflight.front();
      inflight.pop_front();
    }
    if (target > 0) {
      // Epochs are monotone in queue order: once the worker finishes the
      // largest in-flight epoch <= `epoch`, everything earlier is done.
      CRAQR_RETURN_NOT_OK(shards_[i]->WaitForEpochCompleted(target));
    }
    CRAQR_RETURN_NOT_OK(shards_[i]->status());
  }
  return Status::OK();
}

Status ShardedFabricator::CollectLocked(std::uint64_t max_delivery_epoch) {
  // Gather in ascending shard order; the replay sort below (and the merge
  // stages' reorder buffers) make the result independent of that order.
  // Deliveries stay keyed by epoch: F operators buffer tuples across
  // epochs, so each query's merge stage must see one push+flush per epoch
  // (in epoch order) — exactly the per-step grouping the synchronous path
  // produces — or a collect spanning several epochs would reorder the
  // delivered stream relative to it.
  // Each collected group remembers the shard whose arena its storage came
  // from, so the merge below can recycle it back to that shard's free list
  // (steady-state epochs then deliver+collect allocation-free).
  struct CollectedGroup {
    ops::TupleBatch batch;
    std::size_t origin = ~static_cast<std::size_t>(0);
  };
  std::map<std::uint64_t, std::unordered_map<query::QueryId, CollectedGroup>>
      per_epoch;
  std::vector<ViolationEvent> violations;
  const bool timed = obs::IsEnabled();
  const std::uint64_t t0 = timed ? obs::NowNs() : 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardOutbox box = shards_[s]->TakeOutbox(max_delivery_epoch);
    for (auto& [epoch, per_query] : box.delivered) {
      auto& dst_epoch = per_epoch[epoch];
      for (auto& [id, batch] : per_query) {
        CollectedGroup& dst = dst_epoch[id];
        if (dst.origin == ~static_cast<std::size_t>(0)) {
          dst.batch.Swap(batch);  // first shard: adopt the storage outright
          dst.origin = s;
        } else {
          dst.batch.AppendActiveFrom(batch);
          // The appended-from splice is spent; hand its storage back.
          shards_[s]->arena().Release(std::move(batch));
        }
      }
    }
    for (ViolationEvent& v : box.violations) {
      violations.push_back(std::move(v));
    }
  }
  if (timed) {
    router_collect_ns_->Record(obs::NowNs() - t0);
  }

  for (auto& [epoch, per_query] : per_epoch) {
    for (auto& [id, group] : per_query) {
      const auto it = queries_.find(id);
      if (it == queries_.end()) {
        // RemoveQuery flushes deliveries before detaching, so a delivery
        // for a dead query means the bookkeeping broke.
        return Status::Internal("delivery for dead query " +
                                std::to_string(id));
      }
      // No pre-sort here: a multi-cell query's merge stage carries a
      // reorder buffer (fabric::BuildMergeStage) that flushes each step in
      // canonical (t, id) order — the same operator the in-process
      // fabricator drives, so delivery order cannot diverge between the
      // two paths. A single-cell query lives entirely on one shard and its
      // partial stream arrives already time-ordered.
      const std::uint64_t t_merge = timed ? obs::NowNs() : 0;
      CRAQR_RETURN_NOT_OK(DeliverEpochLocked(it->second, epoch, group.batch));
      if (timed) {
        router_merge_ns_->Record(obs::NowNs() - t_merge);
      }
      // Merge stages copy out (reorder buffer) or the spool swapped the
      // storage away; either way what's left recycles to its origin shard.
      shards_[group.origin]->arena().Release(std::move(group.batch));
    }
  }
  // The discard line for crash recovery: a restored shard's replayed
  // outbox is dropped at or below this epoch (the router already merged
  // that content).
  collected_through_ = std::max(
      collected_through_, std::min(max_delivery_epoch, last_enqueued_epoch_));

  // Buffered, not invoked: the callback is user code and may re-enter the
  // runtime, so it only runs once mu_ is released (ReplayViolationsAndUnlock).
  pending_violations_.insert(pending_violations_.end(),
                             std::make_move_iterator(violations.begin()),
                             std::make_move_iterator(violations.end()));
  return Status::OK();
}

void ShardedFabricator::ReplayViolationsAndUnlock(
    std::unique_lock<std::mutex>& lock) {
  // Split off the events the horizon releases; later-epoch events stay
  // buffered (in arrival order) until DrainThrough advances past them —
  // the pipelined feedback contract's "not before its step" half.
  std::vector<ViolationEvent> events;
  if (replay_horizon_ == kNoReplayHorizon) {
    events = std::move(pending_violations_);
    pending_violations_.clear();
  } else {
    std::vector<ViolationEvent> held;
    events.reserve(pending_violations_.size());
    for (ViolationEvent& v : pending_violations_) {
      if (v.epoch <= replay_horizon_) {
        events.push_back(std::move(v));
      } else {
        held.push_back(std::move(v));
      }
    }
    pending_violations_ = std::move(held);
  }
  // Canonical replay order: epoch (= batch boundary) first, then
  // fabric::ViolationReplayLess — the one comparator StreamFabricator also
  // sorts with — stable so each F operator's reports keep their firing
  // order. Epoch-major grouping makes one replay that releases several
  // epochs identical to draining them one at a time, which is exactly the
  // per-batch replay the single-threaded fabricator performs; sharing the
  // comparator within an epoch is what makes feedback consumers evolve
  // identically for every shard count.
  std::stable_sort(events.begin(), events.end(),
                   [](const ViolationEvent& a, const ViolationEvent& b) {
                     if (a.epoch != b.epoch) {
                       return a.epoch < b.epoch;
                     }
                     return fabric::ViolationReplayLess(
                         {a.report.completed_at, a.attribute, a.cell},
                         {b.report.completed_at, b.attribute, b.cell});
                   });
  const fabric::ViolationCallback callback = violation_callback_;
  lock.unlock();
  if (callback) {
    for (const ViolationEvent& v : events) {
      callback(v.attribute, v.cell, v.report);
    }
  }
}

Status ShardedFabricator::EnqueueBatchLocked(
    const std::vector<ops::Tuple>& batch, std::uint64_t epoch) {
  // Convenience path (tests, benches): one scatter, then the hot overload.
  ops::TupleBatch columns(batch);
  return EnqueueBatchLocked(columns, epoch);
}

Status ShardedFabricator::EnqueueBatchLocked(ops::TupleBatch& batch,
                                             std::uint64_t epoch) {
  if (epoch < 1 || epoch <= last_enqueued_epoch_) {
    // Strictly increasing: if two batches shared an epoch, the first
    // completed task would satisfy WaitForEpochCompleted while the second
    // was still queued, and a partial drain could split the epoch's
    // delivery group across two merge-stage flushes.
    return Status::InvalidArgument(
        "batch epochs must be >= 1 and strictly increasing (got " +
        std::to_string(epoch) + " after " +
        std::to_string(last_enqueued_epoch_) + ")");
  }
  // Router-side enqueue cost (partition + shard pushes, including any
  // back-pressure blocking) — observation only.
  const bool timed = obs::IsEnabled();
  const std::uint64_t t0 = timed ? obs::NowNs() : 0;
  const std::uint64_t total_tuples = batch.size();
  // Histogram shard partition over the point column: one branch-free
  // flat-cell sweep, one gather through the static cell -> shard table,
  // one count -> prefix-sum -> scatter pass, then each shard's sub-batch
  // receives its whole row group as a column-wise AppendRows splice —
  // no per-row hash, no per-row dispatch branch.
  batch.Materialize();
  std::vector<ops::TupleBatch> sub(shards_.size());
  const auto n = static_cast<std::uint32_t>(batch.size());
  if (shards_.size() == 1) {
    // Nothing to partition: the lone shard's fabricator maps every row to
    // its cell itself and counts the rows outside R as its unrouted.
    sub[0].Swap(batch);
  } else if (n > 0 && !shard_for_flat_.empty()) {
    const auto num_shards = static_cast<std::uint32_t>(shards_.size());
    row_cells_.resize(n);
    grid_.FillFlatCells(batch.Points(), row_cells_.data(),
                        /*invalid_value=*/grid_.NumCells());
    row_shards_.resize(n);
    simd::GatherU32({row_cells_.data(), n},
                    {shard_for_flat_.data(), shard_for_flat_.size()},
                    row_shards_.data());
    shard_counts_.assign(num_shards + 1, 0);
    grouped_rows_.resize(n);
    simd::HistogramGroup({row_shards_.data(), n},
                         {shard_counts_.data(), num_shards + 1},
                         grouped_rows_.data());
    std::uint32_t begin = 0;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      const std::uint32_t end = shard_counts_[s];
      if (end != begin) {
        sub[s].AppendRows(batch,
                          {grouped_rows_.data() + begin, end - begin});
      }
      begin = end;
    }
    router_unrouted_ += n - begin;  // the sentinel bucket: outside R
  } else {
    // Per-row fallback (oversized grid table only).
    for (std::uint32_t i = 0; i < n; ++i) {
      const geom::SpaceTimePoint& p = batch.point_at(i);
      const auto cell = grid_.CellContaining(p.x, p.y);
      if (!cell.has_value()) {
        ++router_unrouted_;  // outside R; shards count in-grid drops
        continue;
      }
      sub[ShardForCellLocked(*cell)].AppendRow(batch, i);
    }
  }
  batch.Clear();
  const Status status = EnqueueSubBatchesLocked(sub, epoch);
  if (timed) {
    const std::uint64_t t1 = obs::NowNs();
    router_enqueue_ns_->Record(t1 - t0);
    if (router_trace_ != nullptr) {
      router_trace_->Record("enqueue", epoch, t0, t1, total_tuples);
    }
  }
  return status;
}

Status ShardedFabricator::EnqueueSubBatchesLocked(
    std::vector<ops::TupleBatch>& sub, std::uint64_t epoch) {
  last_enqueued_epoch_ = epoch;
  for (std::size_t i = 0; i < sub.size(); ++i) {
    if (sub[i].empty()) {
      continue;
    }
    const std::size_t tuples = sub[i].size();
    // Crash replay needs the sub-batch exactly as enqueued; copy before
    // the push consumes it. Zero cost with checkpointing off.
    ops::TupleBatch replay_copy;
    if (config_.checkpoint.enabled) {
      replay_copy.CopyFrom(sub[i]);
    }
    std::uint64_t unused = 0;
    const bool forced_full = CRAQR_FAULT_FIRE("runtime.queue_full", &unused);
    if (forced_full) {
      fault_injections_->Increment();
    }
    Status pushed = Status::OK();
    if (forced_full) {
      pushed = Status::ResourceExhausted("fault injection: shard " +
                                         std::to_string(i) + " queue full");
    } else {
      // Hard memory pressure turns every push into try-once: a blocked
      // producer would hold batch storage alive exactly when the governor
      // is trying to shrink it.
      const QueuePushPolicy queue_policy =
          mem_hard_.load(std::memory_order_relaxed)
              ? QueuePushPolicy::kTryOnce
              : config_.admission.queue_policy;
      switch (queue_policy) {
        case QueuePushPolicy::kBlock:
          pushed = shards_[i]->EnqueueBatch(std::move(sub[i]), epoch);
          break;
        case QueuePushPolicy::kTimedWait:
          pushed = shards_[i]->EnqueueBatchFor(
              std::move(sub[i]), epoch,
              std::chrono::milliseconds(
                  config_.admission.queue_push_timeout_ms));
          break;
        case QueuePushPolicy::kTryOnce:
          pushed = shards_[i]->TryEnqueueBatch(std::move(sub[i]), epoch);
          break;
      }
    }
    if (!pushed.ok()) {
      if (pushed.code() == StatusCode::kResourceExhausted) {
        // Shed this shard's sub-batch instead of wedging the producer.
        // No in-flight entry and no replay entry: the epoch never reached
        // the shard, so nothing may wait on it or replay it.
        admission_queue_rejects_->Increment();
        if (config_.admission.queue_policy == QueuePushPolicy::kTimedWait &&
            !forced_full) {
          admission_queue_timeouts_->Increment();
        }
        continue;
      }
      return pushed;
    }
    // Bookkeeping only after the push succeeds: a ghost in-flight epoch
    // for a task that never queued would turn the next partial drain
    // into an unbounded WaitForEpochCompleted.
    shard_tuples_enqueued_[i]->Add(tuples);
    shard_batches_enqueued_[i]->Increment();
    shard_inflight_epochs_[i].push_back(epoch);
    if (config_.checkpoint.enabled) {
      std::deque<ReplayEntry>& log = shard_replay_[i];
      ReplayEntry entry;
      entry.epoch = epoch;
      entry.batch.Swap(replay_copy);
      log.push_back(std::move(entry));
      while (log.size() > config_.checkpoint.replay_limit_epochs) {
        log.pop_front();
        replay_truncated_[i] = 1;
        fault_replaylog_truncated_->Increment();
      }
    }
  }
  return Status::OK();
}

Status ShardedFabricator::EnqueueBatch(const std::vector<ops::Tuple>& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  return EnqueueBatchLocked(batch, last_enqueued_epoch_ + 1);
}

Status ShardedFabricator::EnqueueBatch(ops::TupleBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  return EnqueueBatchLocked(batch, last_enqueued_epoch_ + 1);
}

Status ShardedFabricator::EnqueueBatch(ops::TupleBatch& batch,
                                       std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  return EnqueueBatchLocked(batch, epoch);
}

Status ShardedFabricator::ProcessBatch(const std::vector<ops::Tuple>& batch) {
  ops::TupleBatch columns(batch);
  return ProcessBatch(columns);
}

Status ShardedFabricator::ProcessBatch(ops::TupleBatch& batch) {
  std::unique_lock<std::mutex> lock(mu_);
  const Status status = [&]() -> Status {
    CRAQR_RETURN_NOT_OK(EnqueueBatchLocked(batch, last_enqueued_epoch_ + 1));
    CRAQR_RETURN_NOT_OK(BarrierLocked());
    CRAQR_RETURN_NOT_OK(CollectLocked());
    // Epoch boundary: the site the "runtime.shard_crash" fault targets.
    return MaybeInjectCrashLocked();
  }();
  ReplayViolationsAndUnlock(lock);
  return status;
}

Status ShardedFabricator::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  const Status status = [&]() -> Status {
    CRAQR_RETURN_NOT_OK(BarrierLocked());
    CRAQR_RETURN_NOT_OK(CollectLocked());
    // Epoch boundary: the site the "runtime.shard_crash" fault targets.
    return MaybeInjectCrashLocked();
  }();
  ReplayViolationsAndUnlock(lock);
  return status;
}

Status ShardedFabricator::DrainThrough(std::uint64_t epoch) {
  return DrainThrough(epoch, epoch);
}

Status ShardedFabricator::DrainThrough(std::uint64_t epoch,
                                       std::uint64_t release_through) {
  std::unique_lock<std::mutex> lock(mu_);
  const Status status = [&]() -> Status {
    // Time only the epoch wait — the pipeline-stall signal (how long the
    // router blocked on workers still short of the drain horizon).
    const bool timed = obs::IsEnabled();
    const std::uint64_t t0 = timed ? obs::NowNs() : 0;
    const Status waited = WaitThroughEpochLocked(epoch);
    if (timed) {
      const std::uint64_t t1 = obs::NowNs();
      router_drain_wait_ns_->Record(t1 - t0);
      if (router_trace_ != nullptr) {
        router_trace_->Record("drain", epoch, t0, t1, 0);
      }
    }
    CRAQR_RETURN_NOT_OK(waited);
    CRAQR_RETURN_NOT_OK(CollectLocked(epoch));
    // Epoch boundary: the site the "runtime.shard_crash" fault targets.
    return MaybeInjectCrashLocked();
  }();
  // Advancing the horizon is what releases feedback; a DrainThrough on a
  // runtime that never engaged the horizon engages it.
  if (replay_horizon_ == kNoReplayHorizon ||
      release_through > replay_horizon_) {
    replay_horizon_ = release_through;
  }
  ReplayViolationsAndUnlock(lock);
  return status;
}

void ShardedFabricator::SetReplayHorizon(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (replay_horizon_ == kNoReplayHorizon || epoch > replay_horizon_) {
    replay_horizon_ = epoch;
  }
}

Result<std::size_t> ShardedFabricator::Rebalance() {
  std::unique_lock<std::mutex> lock(mu_);
  Result<std::size_t> moved = RebalanceLocked();
  // The barrier inside collected deliveries and violation reports; replay
  // the ones the horizon releases exactly like any other drain point.
  ReplayViolationsAndUnlock(lock);
  return moved;
}

Result<std::size_t> ShardedFabricator::RebalanceLocked() {
  if (rebalancer_ == nullptr) {
    return Status::FailedPrecondition(
        "rebalancing is not enabled (ShardedConfig::enable_rebalancing)");
  }
  // Migrations are topology surgery and must happen between batches,
  // exactly like query insertion: full barrier, then collect so no
  // delivery is parked in an outbox while its producing cell moves.
  CRAQR_RETURN_NOT_OK(BarrierLocked());
  CRAQR_RETURN_NOT_OK(CollectLocked());
  const bool timed = obs::IsEnabled();
  const std::uint64_t t0 = timed ? obs::NowNs() : 0;
  // Load = deltas since the previous call, so each plan sees one window's
  // traffic instead of the process lifetime (which would never let a
  // cooled-down hot spot stop looking hot).
  const std::size_t num_cells = grid_.NumCells();
  std::vector<std::uint64_t> cell_load(num_cells, 0);
  for (std::size_t c = 0; c < num_cells; ++c) {
    const std::uint64_t now = cell_routed_bank_->value(c);
    cell_load[c] = now - std::min(now, cell_routed_prev_[c]);
    cell_routed_prev_[c] = now;
  }
  std::vector<std::uint64_t> shard_busy(shards_.size(), 0);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint64_t now = shards_[i]->LoadSnapshot().busy_ns;
    shard_busy[i] = now - std::min(now, shard_busy_prev_[i]);
    shard_busy_prev_[i] = now;
  }
  // shard_for_flat_ doubles as the owner column; its trailing sentinel is
  // past the planner's min(cell_load, cell_owner) bound and ignored.
  const RebalancePlan plan =
      rebalancer_->Plan(cell_load, shard_for_flat_, shard_busy);
  if (timed) {
    rebalance_plan_ns_->Record(obs::NowNs() - t0);
  }
  if (plan.moves.empty()) {
    return static_cast<std::size_t>(0);
  }
  std::size_t moved = 0;
  for (const CellMove& move : plan.moves) {
    CRAQR_RETURN_NOT_OK(MigrateCellLocked(move));
    ++moved;
  }
  ++routing_version_;
  ++rebalance_events_;
  cells_migrated_ += moved;
  rebalance_migrations_->Increment();
  rebalance_moved_cells_->Add(moved);
  if (config_.checkpoint.enabled) {
    // Cells moved between fabricators; the old per-shard blobs no longer
    // describe the live partition.
    CRAQR_RETURN_NOT_OK(CheckpointLocked());
  }
  return moved;
}

Status ShardedFabricator::MigrateCellLocked(const CellMove& move) {
  if (move.from >= shards_.size() || move.to >= shards_.size() ||
      move.from == move.to || move.flat_cell >= grid_.NumCells()) {
    return Status::Internal("rebalance plan produced an invalid move");
  }
  const std::uint32_t side = grid_.CellsPerSide();
  const geom::CellIndex index{move.flat_cell / side, move.flat_cell % side};
  Shard* src = shards_[move.from].get();
  Shard* dst = shards_[move.to].get();

  // Detach the live cell from the source fabricator (on its worker, like
  // every other topology command). NotFound means no query currently taps
  // the cell — only the ownership record moves.
  fabric::CellMigration payload;
  Status extracted = Status::OK();
  CRAQR_RETURN_NOT_OK(
      src->RunControl([&payload, &extracted, &index](fabric::StreamFabricator& f) {
        Result<fabric::CellMigration> r = f.ExtractCell(index);
        if (r.ok()) {
          payload = r.MoveValue();
        } else {
          extracted = r.status();
        }
      }));
  if (!extracted.ok()) {
    if (extracted.code() == StatusCode::kNotFound) {
      shard_for_flat_[move.flat_cell] = static_cast<std::uint32_t>(move.to);
      return Status::OK();
    }
    return extracted;
  }

  // Translate the payload's source-local tapping-query ids to
  // destination-local ids, materializing a delivery shell on the
  // destination for any query that owned no cell there yet.
  std::unordered_map<query::QueryId, query::QueryId> id_map;
  for (const query::QueryId src_local : payload.tap_query_ids()) {
    query::QueryId router_id = 0;
    QueryState* qs = nullptr;
    for (auto& [id, state] : queries_) {
      for (const ShardAttachment& a : state.attachments) {
        if (a.shard == move.from && a.local_id == src_local) {
          router_id = id;
          qs = &state;
          break;
        }
      }
      if (qs != nullptr) {
        break;
      }
    }
    if (qs == nullptr) {
      return Status::Internal("migrating cell " + index.ToString() +
                              " taps a query unknown to the router");
    }
    query::QueryId dst_local = 0;
    for (const ShardAttachment& a : qs->attachments) {
      if (a.shard == move.to) {
        dst_local = a.local_id;
        break;
      }
    }
    if (dst_local == 0) {
      Result<fabric::QueryStream> shell =
          Status::Internal("shell insert did not run");
      const fabric::QueryStream handle = qs->stream;
      CRAQR_RETURN_NOT_OK(dst->RunControl(
          [&shell, dst, router_id, &handle](fabric::StreamFabricator& f) {
            shell = f.InsertQueryShell(
                handle.attribute, handle.region, handle.rate,
                [dst, router_id](const ops::TupleBatch& batch) {
                  dst->DeliverBatch(router_id, batch);
                });
          }));
      CRAQR_RETURN_NOT_OK(shell.status());
      dst_local = shell->id;
      qs->attachments.push_back({move.to, dst_local});
    }
    id_map.emplace(src_local, dst_local);
  }

  Status adopted = Status::OK();
  CRAQR_RETURN_NOT_OK(dst->RunControl(
      [&payload, &adopted, &id_map](fabric::StreamFabricator& f) {
        adopted = f.AdoptCell(std::move(payload), id_map);
      }));
  CRAQR_RETURN_NOT_OK(adopted);
  shard_for_flat_[move.flat_cell] = static_cast<std::uint32_t>(move.to);
  return Status::OK();
}

Result<fabric::QueryStream> ShardedFabricator::InsertQuery(
    ops::AttributeId attribute, const geom::Rect& region, double rate) {
  std::unique_lock<std::mutex> lock(mu_);
  Result<fabric::QueryStream> result =
      InsertQueryLocked(attribute, region, rate);
  ReplayViolationsAndUnlock(lock);
  return result;
}

Result<fabric::QueryStream> ShardedFabricator::InsertQueryLocked(
    ops::AttributeId attribute, const geom::Rect& region, double rate) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    return Status::InvalidArgument("query rate must be > 0");
  }
  CRAQR_RETURN_NOT_OK(grid_.ValidateQueryRegion(region));
  CRAQR_ASSIGN_OR_RETURN(std::vector<geom::CellOverlap> overlaps,
                         grid_.Overlaps(region));
  const auto clipped = grid_.region().Intersection(region);
  if (!clipped.has_value()) {
    return Status::InvalidArgument(
        "query region does not intersect the system region");
  }

  // Reach a stable point before topology surgery, mirroring the
  // single-threaded fabricator where insertion happens between batches.
  CRAQR_RETURN_NOT_OK(BarrierLocked());
  CRAQR_RETURN_NOT_OK(CollectLocked());

  const query::QueryId id = next_query_id_++;
  QueryState qs;
  qs.stream.id = id;
  qs.stream.attribute = attribute;
  qs.stream.region = *clipped;
  qs.stream.rate = rate;

  // Cross-shard merge stage: built by the same fabric::BuildMergeStage the
  // single-threaded fabricator uses, so the two paths cannot diverge.
  CRAQR_ASSIGN_OR_RETURN(
      qs.merge_head,
      fabric::BuildMergeStage(&qs.stream, &qs.merge_pipeline, overlaps,
                              config_.fabric.monitor_window,
                              config_.fabric.sink_capacity));

  // Broadcast partial inserts to the shards owning overlapped cells, in
  // ascending shard order (insertion order inside each shard fabricator is
  // then deterministic).
  std::vector<std::vector<geom::CellOverlap>> per_shard(shards_.size());
  for (const auto& overlap : overlaps) {
    per_shard[ShardForCellLocked(overlap.cell)].push_back(overlap);
    qs.cells.push_back(overlap.cell);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) {
      continue;
    }
    Shard* shard = shards_[s].get();
    Result<fabric::QueryStream> local =
        Status::Internal("partial insert did not run");
    const Status control = shard->RunControl(
        [&local, shard, id, attribute, rate, &clipped,
         &shard_overlaps = per_shard[s]](fabric::StreamFabricator& f) {
          local = f.InsertQueryPartial(
              attribute, *clipped, rate, shard_overlaps,
              [shard, id](const ops::TupleBatch& batch) {
                shard->DeliverBatch(id, batch);
              });
        });
    if (control.ok() && local.ok()) {
      qs.attachments.push_back({s, local->id});
      continue;
    }
    // Roll back the shards already attached so a failed insert leaves no
    // orphan partial streams behind.
    for (const ShardAttachment& a : qs.attachments) {
      (void)shards_[a.shard]->RunControl(
          [&a](fabric::StreamFabricator& f) { (void)f.RemoveQuery(a.local_id); });
    }
    return control.ok() ? local.status() : control;
  }

  const fabric::QueryStream handle = qs.stream;
  queries_.emplace(id, std::move(qs));
  if (config_.checkpoint.enabled) {
    // Refresh so the snapshot's attachment map matches the new topology
    // (checkpoint-time shard-local ids == live ids, which is what lets
    // crash recovery re-point attachments through the restore id map).
    CRAQR_RETURN_NOT_OK(CheckpointLocked());
  }
  return handle;
}

Status ShardedFabricator::RemoveQuery(query::QueryId id) {
  std::unique_lock<std::mutex> lock(mu_);
  const Status status = RemoveQueryLocked(id);
  ReplayViolationsAndUnlock(lock);
  return status;
}

Status ShardedFabricator::RemoveQueryLocked(query::QueryId id) {
  const auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) + " is not live");
  }
  // Flush in-flight deliveries into the sink before detaching, so the
  // stream ends exactly where the single-threaded one would.
  CRAQR_RETURN_NOT_OK(BarrierLocked());
  CRAQR_RETURN_NOT_OK(CollectLocked());

  Status first = Status::OK();
  for (const ShardAttachment& a : it->second.attachments) {
    Status removed = Status::OK();
    const Status control = shards_[a.shard]->RunControl(
        [&removed, &a](fabric::StreamFabricator& f) {
          removed = f.RemoveQuery(a.local_id);
        });
    if (first.ok() && !control.ok()) {
      first = control;
    }
    if (first.ok() && !removed.ok()) {
      first = removed;
    }
  }
  queries_.erase(it);
  if (first.ok() && config_.checkpoint.enabled) {
    first = CheckpointLocked();  // snapshot must match the live topology
  }
  return first;
}

Status ShardedFabricator::DeliverEpochLocked(QueryState& qs,
                                             std::uint64_t epoch,
                                             ops::TupleBatch& batch) {
  const bool mem_hard = mem_hard_.load(std::memory_order_relaxed);
  if (!mem_hard) {
    // Spooled epochs are strictly older than this one and must re-deliver
    // first, or the query's stream would reorder across a credit refill.
    CRAQR_RETURN_NOT_OK(DrainSpoolLocked(qs));
    if (qs.credits == kUnlimitedCredits || qs.credits > 0) {
      if (qs.credits != kUnlimitedCredits) {
        --qs.credits;
      }
      CRAQR_RETURN_NOT_OK(qs.merge_head->PushBatch(batch));
      return qs.merge_pipeline.FlushAll();
    }
  }
  // Under hard memory pressure every delivery sheds per the governor's
  // policy — credits notwithstanding: bounded memory beats a complete
  // stream (the graceful-degradation half of the governance contract).
  const ShedPolicy policy =
      mem_hard ? (config_.memory.hard_reject ? ShedPolicy::kReject
                                             : ShedPolicy::kDropOldest)
               : config_.admission.shed_policy;
  switch (policy) {
    case ShedPolicy::kReject:
      admission_rejected_->Increment();
      return Status::OK();
    case ShedPolicy::kSpool:
      if (qs.spool.size() >= config_.admission.spool_limit_epochs) {
        admission_dropped_->Increment();  // the incoming epoch drops
        return Status::OK();
      }
      break;
    case ShedPolicy::kDropOldest:
      if (!qs.spool.empty() &&
          qs.spool.size() >= config_.admission.spool_limit_epochs) {
        qs.spool.pop_front();  // evict the oldest, keep fresh data
        admission_dropped_->Increment();
      }
      break;
  }
  SpooledDelivery held;
  held.epoch = epoch;
  held.batch.Swap(batch);
  qs.spool.push_back(std::move(held));
  admission_spooled_->Increment();
  return Status::OK();
}

Status ShardedFabricator::DrainSpoolLocked(QueryState& qs) {
  while (!qs.spool.empty() &&
         (qs.credits == kUnlimitedCredits || qs.credits > 0)) {
    SpooledDelivery held = std::move(qs.spool.front());
    qs.spool.pop_front();
    if (qs.credits != kUnlimitedCredits) {
      --qs.credits;
    }
    admission_delivered_spooled_->Increment();
    CRAQR_RETURN_NOT_OK(qs.merge_head->PushBatch(held.batch));
    CRAQR_RETURN_NOT_OK(qs.merge_pipeline.FlushAll());
  }
  return Status::OK();
}

ops::ValuePool& ShardedFabricator::PoolLocked() const {
  return config_.fabric.value_pool != nullptr ? *config_.fabric.value_pool
                                              : ops::ValuePool::Global();
}

MemoryGovernor::Usage ShardedFabricator::AccountMemoryLocked() const {
  MemoryGovernor::Usage usage;
  usage.pool_bytes = PoolLocked().ApproxBytes();
  for (const auto& shard : shards_) {
    usage.arena_bytes += shard->arena().free_bytes();
    usage.queue_bytes += shard->queue_bytes();
  }
  return usage;
}

Status ShardedFabricator::GovernMemory() {
  std::unique_lock<std::mutex> lock(mu_);
  const Status status = GovernMemoryLocked();
  // A reclamation pass collects outboxes, which buffers violation events;
  // replay them under the usual horizon discipline.
  ReplayViolationsAndUnlock(lock);
  return status;
}

Status ShardedFabricator::GovernMemoryLocked() {
  if (governor_ == nullptr || !governor_->enabled()) {
    return Status::OK();
  }
  const MemoryPressure pressure = governor_->Assess(AccountMemoryLocked());
  if (pressure == MemoryPressure::kNone) {
    mem_hard_.store(false, std::memory_order_relaxed);
    return Status::OK();
  }
  // Degradation engages before the reclamation barrier: a hard-pressure
  // collect already sheds instead of growing the merge stages further.
  mem_hard_.store(pressure == MemoryPressure::kHard,
                  std::memory_order_relaxed);

  // Value-preserving reclamation at a full epoch barrier — the same
  // observable pattern Checkpoint() performs, so delivered streams stay
  // byte-exact with governance on.
  CRAQR_RETURN_NOT_OK(BarrierLocked());
  CRAQR_RETURN_NOT_OK(CollectLocked());
  ops::ValuePool& pool = PoolLocked();
  // Rotate BEFORE re-interning: evacuated strings then land in the fresh
  // generation as first sights and die with their holders at a later
  // retirement. Re-interning into the *old* current generation would count
  // as a second sight and promote every live string into the persistent
  // tier — a slow permanent leak that defeats the plateau.
  pool.RotateGeneration();
  // Evacuate every live string holder into fresh handles before the
  // retirement below invalidates the older rotating generations:
  // shard-side operator buffers + chain inboxes (on the worker, which owns
  // the fabricator), then the router-side merge stages, shed spools and
  // crash replay logs.
  for (auto& shard : shards_) {
    CRAQR_RETURN_NOT_OK(
        shard->RunControl([&pool](fabric::StreamFabricator& f) {
          f.ReinternStrings(pool);
          f.TrimMemory();
        }));
  }
  for (auto& [id, qs] : queries_) {
    (void)id;
    for (const auto& op : qs.merge_pipeline.operators()) {
      op->ReinternStrings(pool);
    }
    for (SpooledDelivery& held : qs.spool) {
      held.batch.ReinternStrings(pool);
    }
  }
  for (auto& log : shard_replay_) {
    for (ReplayEntry& entry : log) {
      entry.batch.ReinternStrings(pool);
    }
  }
  const std::uint64_t retired_before = pool.generations_retired();
  std::size_t reclaimed =
      pool.RetireGenerationsBelow(pool.current_generation());
  for (auto& shard : shards_) {
    reclaimed += shard->arena().Trim();
  }
  governor_->RecordRetirement(pool.generations_retired() - retired_before);
  governor_->RecordReclaim(reclaimed);

  // Reassess with the post-reclamation accounting: hard pressure persists
  // only while reclamation alone cannot get back under the watermark.
  const MemoryPressure after = governor_->Assess(AccountMemoryLocked());
  mem_hard_.store(after == MemoryPressure::kHard, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedFabricator::SetDeliveryCredits(query::QueryId id,
                                             std::uint64_t credits) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) + " is not live");
  }
  it->second.credits = credits;
  return DrainSpoolLocked(it->second);
}

Status ShardedFabricator::AddDeliveryCredits(query::QueryId id,
                                             std::uint64_t credits) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) + " is not live");
  }
  QueryState& qs = it->second;
  if (qs.credits != kUnlimitedCredits) {
    // Saturate one below kUnlimitedCredits: adding credits must never
    // accidentally lift a finite budget to "unlimited".
    if (credits >= kUnlimitedCredits - qs.credits) {
      qs.credits = kUnlimitedCredits - 1;
    } else {
      qs.credits += credits;
    }
  }
  return DrainSpoolLocked(qs);
}

Result<std::size_t> ShardedFabricator::SpooledEpochs(query::QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) + " is not live");
  }
  return it->second.spool.size();
}

Status ShardedFabricator::CheckpointLocked() {
  if (!config_.checkpoint.enabled) {
    return Status::FailedPrecondition(
        "checkpointing is not enabled (ShardedConfig::checkpoint.enabled)");
  }
  if (CRAQR_FAULT_FIRE("runtime.alloc_fail", nullptr)) {
    fault_injections_->Increment();
    return Status::ResourceExhausted(
        "fault injection: checkpoint allocation failed");
  }
  // A stable point: every enqueued batch processed and every delivery
  // collected, so the snapshot holds no half-applied epoch and the replay
  // logs can restart empty.
  CRAQR_RETURN_NOT_OK(BarrierLocked());
  CRAQR_RETURN_NOT_OK(CollectLocked());
  CheckpointState next;
  next.epoch = last_enqueued_epoch_;
  next.shard_blobs.resize(shards_.size());
  next.local_to_router.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Status saved = Status::OK();
    std::string blob;
    CRAQR_RETURN_NOT_OK(shards_[i]->RunControl(
        [&saved, &blob](fabric::StreamFabricator& f) {
          saved = f.SaveState(&blob);
        }));
    CRAQR_RETURN_NOT_OK(saved);
    next.shard_blobs[i] = std::move(blob);
  }
  for (const auto& [id, qs] : queries_) {
    for (const ShardAttachment& a : qs.attachments) {
      next.local_to_router[a.shard].emplace(a.local_id, id);
    }
  }
  next.valid = true;
  checkpoint_ = std::move(next);
  for (auto& log : shard_replay_) {
    log.clear();
  }
  std::fill(replay_truncated_.begin(), replay_truncated_.end(), 0);
  fault_checkpoints_->Increment();
  return Status::OK();
}

Status ShardedFabricator::Checkpoint() {
  std::unique_lock<std::mutex> lock(mu_);
  const Status status = CheckpointLocked();
  ReplayViolationsAndUnlock(lock);
  return status;
}

bool ShardedFabricator::HasCheckpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_.valid;
}

std::uint64_t ShardedFabricator::CheckpointEpoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_.epoch;
}

Status ShardedFabricator::SaveCheckpointToFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!checkpoint_.valid) {
    return Status::FailedPrecondition("no checkpoint to save");
  }
  StateWriter w;
  w.WriteU32(kCheckpointFileMagic);
  w.WriteU32(kCheckpointFileVersion);
  w.WriteU64(checkpoint_.epoch);
  w.WriteU64(shards_.size());
  w.WriteU64(grid_.NumCells());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto& map = checkpoint_.local_to_router[i];
    std::vector<std::pair<query::QueryId, query::QueryId>> entries(
        map.begin(), map.end());
    std::sort(entries.begin(), entries.end());
    w.WriteU64(entries.size());
    for (const auto& [local, router] : entries) {
      w.WriteU64(local);
      w.WriteU64(router);
    }
    w.WriteString(checkpoint_.shard_blobs[i]);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  out.write(w.bytes().data(), static_cast<std::streamsize>(w.bytes().size()));
  out.flush();
  if (!out) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

Status ShardedFabricator::LoadCheckpointFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.checkpoint.enabled) {
    return Status::FailedPrecondition(
        "checkpointing is not enabled (ShardedConfig::checkpoint.enabled)");
  }
  StateReader r(bytes);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  CRAQR_RETURN_NOT_OK(r.ReadU32(&magic));
  CRAQR_RETURN_NOT_OK(r.ReadU32(&version));
  if (magic != kCheckpointFileMagic || version != kCheckpointFileVersion) {
    return Status::InvalidArgument("unrecognized checkpoint file " + path);
  }
  std::uint64_t epoch = 0;
  std::uint64_t num_shards = 0;
  std::uint64_t num_cells = 0;
  CRAQR_RETURN_NOT_OK(r.ReadU64(&epoch));
  CRAQR_RETURN_NOT_OK(r.ReadU64(&num_shards));
  CRAQR_RETURN_NOT_OK(r.ReadU64(&num_cells));
  if (num_shards != shards_.size() || num_cells != grid_.NumCells()) {
    return Status::InvalidArgument(
        "checkpoint topology mismatch: file has " +
        std::to_string(num_shards) + " shard(s) over " +
        std::to_string(num_cells) + " cell(s), runtime has " +
        std::to_string(shards_.size()) + " over " +
        std::to_string(grid_.NumCells()));
  }
  CheckpointState next;
  next.epoch = epoch;
  next.shard_blobs.resize(shards_.size());
  next.local_to_router.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::uint64_t entries = 0;
    CRAQR_RETURN_NOT_OK(r.ReadU64(&entries));
    for (std::uint64_t e = 0; e < entries; ++e) {
      std::uint64_t local = 0;
      std::uint64_t router = 0;
      CRAQR_RETURN_NOT_OK(r.ReadU64(&local));
      CRAQR_RETURN_NOT_OK(r.ReadU64(&router));
      next.local_to_router[i].emplace(local, router);
    }
    CRAQR_RETURN_NOT_OK(r.ReadString(&next.shard_blobs[i]));
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in checkpoint file " +
                                   path);
  }
  next.valid = true;
  checkpoint_ = std::move(next);
  // Only epochs enqueued after the load are replayable against it.
  for (auto& log : shard_replay_) {
    log.clear();
  }
  std::fill(replay_truncated_.begin(), replay_truncated_.end(), 0);
  return Status::OK();
}

Status ShardedFabricator::CrashAndRestoreLocked(std::size_t victim) {
  if (victim >= shards_.size()) {
    return Status::InvalidArgument("shard index " + std::to_string(victim) +
                                   " out of range");
  }
  if (!checkpoint_.valid) {
    return Status::FailedPrecondition(
        "no checkpoint (ShardedConfig::checkpoint.enabled)");
  }
  if (replay_truncated_[victim] != 0) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(victim) +
        " replay log was truncated; byte-exact recovery is impossible "
        "until the next Checkpoint()");
  }
  const bool timed = obs::IsEnabled();
  const std::uint64_t t0 = timed ? obs::NowNs() : 0;
  // The crash lands at an epoch boundary: every enqueued batch completes
  // first, so the victim's replay log is exactly its input since the
  // checkpoint and nothing is mid-batch when the fabricator dies.
  CRAQR_RETURN_NOT_OK(BarrierLocked());
  Shard* shard = shards_[victim].get();
  CRAQR_RETURN_NOT_OK(shard->CrashFabricator());
  const auto& local_to_router = checkpoint_.local_to_router[victim];
  std::unordered_map<query::QueryId, query::QueryId> id_map;
  Status restored = Status::OK();
  CRAQR_RETURN_NOT_OK(shard->RunControl([&restored, &id_map, shard,
                                         &local_to_router, this,
                                         victim](fabric::StreamFabricator& f) {
    restored = f.RestoreState(
        checkpoint_.shard_blobs[victim],
        [shard, &local_to_router](query::QueryId snap_id)
            -> ops::SinkOperator::BatchCallback {
          const auto it = local_to_router.find(snap_id);
          if (it == local_to_router.end()) {
            return nullptr;
          }
          const query::QueryId router_id = it->second;
          return [shard, router_id](const ops::TupleBatch& batch) {
            shard->DeliverBatch(router_id, batch);
          };
        },
        &id_map);
  }));
  CRAQR_RETURN_NOT_OK(restored);
  // Re-point the router's attachments at the restored fabricator's ids.
  // Resolve each attachment through its router id, NOT through its current
  // local id: after a previous restore of this same shard the attachment
  // already carries a restored id, while id_map stays keyed by the
  // checkpoint's snapshot-local ids (the blob never changes between
  // checkpoints). The checkpoint refreshes on every topology change, so
  // every live query on the victim has exactly one snapshot entry.
  std::unordered_map<query::QueryId, query::QueryId> router_to_snapshot;
  router_to_snapshot.reserve(local_to_router.size());
  for (const auto& [snap_id, router_id] : local_to_router) {
    router_to_snapshot.emplace(router_id, snap_id);
  }
  for (auto& [id, qs] : queries_) {
    for (ShardAttachment& a : qs.attachments) {
      if (a.shard != victim) {
        continue;
      }
      const auto snap = router_to_snapshot.find(id);
      const auto found = snap != router_to_snapshot.end()
                             ? id_map.find(snap->second)
                             : id_map.end();
      if (found == id_map.end()) {
        return Status::Internal("restored shard " + std::to_string(victim) +
                                " lost the partial stream of query " +
                                std::to_string(id));
      }
      a.local_id = found->second;
    }
  }
  // Replay the held epochs with their original stamps. The log survives
  // intact so a repeat crash before the next checkpoint replays the same
  // prefix.
  for (const ReplayEntry& entry : shard_replay_[victim]) {
    ops::TupleBatch copy;
    copy.CopyFrom(entry.batch);
    CRAQR_RETURN_NOT_OK(shard->EnqueueBatch(std::move(copy), entry.epoch));
  }
  CRAQR_RETURN_NOT_OK(shard->Drain());
  CRAQR_RETURN_NOT_OK(shard->status());
  // The replay regenerated deliveries and violations the router already
  // collected; discard those, keep everything later for the next collect.
  (void)shard->TakeOutbox(collected_through_);
  fault_shard_crashes_->Increment();
  if (timed) {
    fault_recovery_ns_->Record(obs::NowNs() - t0);
  }
  return Status::OK();
}

Status ShardedFabricator::InjectShardCrash(std::size_t shard) {
  std::unique_lock<std::mutex> lock(mu_);
  const Status status = CrashAndRestoreLocked(shard);
  ReplayViolationsAndUnlock(lock);
  return status;
}

Status ShardedFabricator::MaybeInjectCrashLocked() {
  std::uint64_t victim = 0;
  if (!CRAQR_FAULT_FIRE("runtime.shard_crash", &victim)) {
    return Status::OK();
  }
  fault_injections_->Increment();
  return CrashAndRestoreLocked(static_cast<std::size_t>(victim) %
                               shards_.size());
}

void ShardedFabricator::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(
        lock,
        std::chrono::milliseconds(config_.admission.watchdog_interval_ms));
    if (watchdog_stop_) {
      break;
    }
    // Lock-free sampling: atomic load counters plus the queue size — the
    // watchdog must stay responsive precisely when workers (and therefore
    // mu_ holders blocked on them) are stuck.
    bool any_stalled = false;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard::Load load = shards_[i]->LoadSnapshot();
      if (load.queue_depth > 0 &&
          load.batches_processed == watchdog_prev_batches_[i]) {
        ++watchdog_ticks_[i];
        if (watchdog_ticks_[i] == config_.admission.watchdog_stall_ticks) {
          // Once per stall episode, at the crossing tick.
          fault_worker_stalls_->Increment();
        }
        if (watchdog_ticks_[i] >= config_.admission.watchdog_stall_ticks) {
          any_stalled = true;
        }
      } else {
        watchdog_ticks_[i] = 0;
      }
      watchdog_prev_batches_[i] = load.batches_processed;
    }
    degraded_.store(any_stalled, std::memory_order_relaxed);
    admission_degraded_->Set(any_stalled ? 1 : 0);
  }
}

Result<fabric::QueryStream> ShardedFabricator::GetStream(
    query::QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) + " is not live");
  }
  return it->second.stream;
}

Result<std::vector<geom::CellIndex>> ShardedFabricator::QueryCells(
    query::QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) + " is not live");
  }
  return it->second.cells;
}

std::size_t ShardedFabricator::NumQueries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.size();
}

ShardedStats ShardedFabricator::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto stats = SnapshotLocked();
  if (!stats.ok()) {
    // No Status channel in this signature; the latched shard error still
    // surfaces on the next ProcessBatch/Drain/TrySnapshot.
    CRAQR_LOG(ERROR) << "Snapshot barrier failed, returning zeroed stats: "
                     << stats.status().ToString();
    return ShardedStats();
  }
  return *stats;
}

Result<ShardedStats> ShardedFabricator::TrySnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked();
}

Result<ShardedStats> ShardedFabricator::SnapshotLocked() const {
  ShardedStats stats;
  // The barrier publishes every worker's writes; afterwards the workers
  // block on their empty queues, so reading the fabricators is safe.
  CRAQR_RETURN_NOT_OK(BarrierLocked());
  stats.tuples_unrouted = router_unrouted_;
  // The runtime's actual pool — an instance pool when configured, the
  // process Global() pool otherwise (the pre-governance hardcode reported
  // Global() regardless, which read 0 growth for instance-pool embedders).
  ops::ValuePool& pool = PoolLocked();
  stats.value_pool_bytes = pool.ApproxBytes();
  stats.pool_generations_retired = pool.generations_retired();
  stats.memory_pressure =
      governor_ != nullptr ? static_cast<int>(governor_->pressure()) : 0;
  stats.routing_version = routing_version_;
  stats.rebalance_events = rebalance_events_;
  stats.cells_migrated = cells_migrated_;
  // Routing-table ownership census; cheap relative to the barrier above
  // and coherent with it (the table only changes under mu_).
  std::vector<std::size_t> cells_owned(shards_.size(), 0);
  if (!shard_for_flat_.empty()) {
    for (std::size_t c = 0; c + 1 < shard_for_flat_.size(); ++c) {
      if (shard_for_flat_[c] < cells_owned.size()) {
        ++cells_owned[shard_for_flat_[c]];
      }
    }
  } else {
    for (std::uint32_t q = 0; q < grid_.CellsPerSide(); ++q) {
      for (std::uint32_t r = 0; r < grid_.CellsPerSide(); ++r) {
        ++cells_owned[ShardForCellLocked({q, r})];
      }
    }
  }
  stats.per_shard.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    const fabric::StreamFabricator& f = shard.fabricator();
    stats.tuples_routed += f.tuples_routed();
    stats.tuples_unrouted += f.tuples_unrouted();
    stats.total_operator_evaluations += f.TotalOperatorEvaluations();
    stats.total_operators += f.TotalOperators();
    stats.materialized_cells += f.NumMaterializedCells();
    stats.shared_prefix_hits += f.shared_prefix_hits();
    stats.taps_detached += f.taps_detached();
    stats.stages_shared += f.SharedStagesLive();
    stats.arena_free_bytes += shard.arena().free_bytes();
    stats.arena_high_water_bytes += shard.arena().high_water_bytes();
    stats.arena_reuses += shard.arena().reuses();
    // Each cell lives on exactly one shard, so concatenating the per-shard
    // censuses never aliases a flat cell; one sort restores global order.
    for (const auto& entry : f.SharedStageCensus()) {
      stats.shared_stage_census.push_back(entry);
    }
    ShardLoadStats& load = stats.per_shard[i];
    load.shard = i;
    // Router-side counters under mu_, worker-side counters in one coherent
    // pass — with the barrier above this yields processed == enqueued and
    // queue_depth == 0 (the ShardLoadStats consistency contract).
    load.tuples_enqueued = shard_tuples_enqueued_[i]->value();
    load.batches_enqueued = shard_batches_enqueued_[i]->value();
    const Shard::Load worker = shard.LoadSnapshot();
    load.tuples_processed = worker.tuples_processed;
    load.batches_processed = worker.batches_processed;
    load.busy_ns = worker.busy_ns;
    load.queue_depth = worker.queue_depth;
    load.steals = shard.steals();
    load.cells_owned = cells_owned[i];
  }
  for (const auto& [id, qs] : queries_) {
    (void)id;
    stats.total_operator_evaluations +=
        qs.merge_pipeline.TotalOperatorEvaluations();
    stats.total_operators += qs.merge_pipeline.size();
  }
  stats.live_queries = queries_.size();
  std::sort(stats.shared_stage_census.begin(),
            stats.shared_stage_census.end());
  return stats;
}

Status ShardedFabricator::ValidateInvariants() const {
  std::lock_guard<std::mutex> lock(mu_);
  CRAQR_RETURN_NOT_OK(BarrierLocked());
  for (const auto& shard : shards_) {
    CRAQR_RETURN_NOT_OK(shard->fabricator().ValidateInvariants());
  }
  const auto fail = [](const std::string& what) {
    return Status::Internal("runtime invariant violated: " + what);
  };
  for (const auto& [id, qs] : queries_) {
    if (qs.attachments.empty()) {
      return fail("query " + std::to_string(id) + " has no shard attachments");
    }
    for (const ShardAttachment& a : qs.attachments) {
      if (a.shard >= shards_.size()) {
        return fail("query " + std::to_string(id) + " attached to bad shard");
      }
      const auto local = shards_[a.shard]->fabricator().GetStream(a.local_id);
      if (!local.ok()) {
        return fail("query " + std::to_string(id) +
                    " lost its partial stream on shard " +
                    std::to_string(a.shard));
      }
      if (local->attribute != qs.stream.attribute) {
        return fail("query " + std::to_string(id) +
                    " partial stream attribute mismatch");
      }
    }
    for (const geom::CellIndex& cell : qs.cells) {
      const std::size_t owner = ShardForCellLocked(cell);
      const bool attached =
          std::any_of(qs.attachments.begin(), qs.attachments.end(),
                      [owner](const ShardAttachment& a) {
                        return a.shard == owner;
                      });
      if (!attached) {
        return fail("query " + std::to_string(id) + " cell " +
                    cell.ToString() + " owned by unattached shard");
      }
    }
    // Counter conservation across batch emits, cross-shard edition: every
    // merge-stage operator accounts tuples_in/out exactly like the
    // per-tuple path...
    for (const auto& op : qs.merge_pipeline.operators()) {
      CRAQR_RETURN_NOT_OK(ops::ValidateStatsConservation(*op));
    }
    CRAQR_RETURN_NOT_OK(
        fabric::ValidateMergeStageCounters(qs.stream, *qs.merge_head));
    // ...and the merge head never sees more tuples than the shard partial
    // streams delivered (deliveries still sitting in shard outboxes make
    // this an inequality, not an equality).
    std::uint64_t partial_delivered = 0;
    for (const ShardAttachment& a : qs.attachments) {
      const auto local = shards_[a.shard]->fabricator().GetStream(a.local_id);
      if (local.ok()) {
        partial_delivered += local->sink->total_received();
      }
    }
    if (qs.merge_head->stats().tuples_in > partial_delivered) {
      return fail("query " + std::to_string(id) + " merge head received " +
                  std::to_string(qs.merge_head->stats().tuples_in) +
                  " tuples but shard partial streams only delivered " +
                  std::to_string(partial_delivered));
    }
  }
  return Status::OK();
}

void ShardedFabricator::VisitOperators(
    const std::function<void(const ops::Operator&)>& visitor) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!BarrierLocked().ok()) {
    return;  // a latched shard error; TrySnapshot reports it
  }
  for (const auto& shard : shards_) {
    shard->fabricator().VisitOperators(visitor);
  }
  for (const auto& [id, qs] : queries_) {
    (void)id;
    for (const auto& op : qs.merge_pipeline.operators()) {
      visitor(*op);
    }
  }
}

std::string ShardedFabricator::DescribeTopology() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  if (!BarrierLocked().ok()) {
    return "<runtime failed>";
  }
  for (const auto& shard : shards_) {
    os << "shard " << shard->index() << ":\n"
       << shard->fabricator().DescribeTopology();
  }
  for (const auto& [id, qs] : queries_) {
    os << "Q" << id << " merge: " << qs.attachments.size()
       << " shard stream(s) -> "
       << (qs.merge_head->kind() == ops::OperatorKind::kUnion ? "U" : "Id")
       << " -> Mon -> Sink\n";
  }
  return os.str();
}

}  // namespace runtime
}  // namespace craqr
