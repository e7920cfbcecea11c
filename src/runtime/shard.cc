#include "runtime/shard.h"

#include <chrono>
#include <exception>
#include <future>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "runtime/faultpoint.h"

namespace craqr {
namespace runtime {

Result<std::unique_ptr<Shard>> Shard::Make(
    std::size_t index, const geom::Grid& grid,
    const fabric::FabricConfig& config, std::size_t queue_capacity,
    const std::string& metrics_scope, std::size_t trace_capacity,
    std::shared_ptr<StealDomain> steal_domain, bool run_inline) {
  if (queue_capacity < 1) {
    return Status::InvalidArgument("shard queue capacity must be >= 1");
  }
  CRAQR_ASSIGN_OR_RETURN(auto fabricator,
                         fabric::StreamFabricator::Make(grid, config));
  // Standalone shards (no router) get their own runtime instance scope so
  // two of them never alias each other's registry counters.
  const std::string scope =
      metrics_scope.empty()
          ? "craqr.rt" +
                std::to_string(obs::Registry::Global().NextInstanceId())
          : metrics_scope;
  auto shard = std::unique_ptr<Shard>(
      new Shard(index, grid, config, std::move(fabricator), queue_capacity,
                scope, trace_capacity));
  // Enroll in the work-stealing group before the worker starts: peers
  // must only ever observe fully constructed members.
  shard->steal_domain_ = std::move(steal_domain);
  if (shard->steal_domain_ != nullptr) {
    shard->steal_domain_->Register(shard.get());
  }
  // F-operator reports fire on the worker thread mid-batch; buffer them in
  // the outbox so the router can replay them single-threaded. The epoch of
  // the in-flight batch task rides along so replay can be held back to an
  // epoch horizon (pipelined engine feedback contract).
  Shard* raw = shard.get();
  shard->fabricator_->SetViolationCallback(
      [raw](ops::AttributeId attribute, const geom::CellIndex& cell,
            const ops::FlattenBatchReport& report) {
        std::lock_guard<std::mutex> lock(raw->outbox_mu_);
        raw->outbox_.violations.push_back(
            {attribute, cell, report, raw->current_epoch_});
      });
  shard->inline_ = run_inline;
  if (!run_inline) {
    shard->worker_ = std::thread([raw] { raw->WorkerLoop(); });
  }
  return shard;
}

Shard::Shard(std::size_t index, const geom::Grid& grid,
             const fabric::FabricConfig& config,
             std::unique_ptr<fabric::StreamFabricator> fabricator,
             std::size_t queue_capacity, const std::string& metrics_scope,
             std::size_t trace_capacity)
    : index_(index),
      fabricator_(std::move(fabricator)),
      grid_(grid),
      fabric_config_(config),
      queue_(queue_capacity) {
  // Registry lookups happen once here; the worker loop then writes
  // through the cached pointers lock-free.
  const std::string base = metrics_scope + ".shard" + std::to_string(index);
  batches_processed_ = obs::GetCounter(base + ".batches_processed");
  tuples_processed_ = obs::GetCounter(base + ".tuples_processed");
  busy_ns_ = obs::GetCounter(base + ".busy_ns");
  steals_ = obs::GetCounter(base + ".steals");
  queue_wait_ns_ = obs::GetHistogram(base + ".queue_wait_ns");
  process_ns_ = obs::GetHistogram(base + ".process_ns");
  batch_latency_ns_ = obs::GetHistogram(base + ".batch_latency_ns");
  trace_ = obs::Tracer::Global().CreateRing(base, trace_capacity);
}

Shard::~Shard() { Stop(); }

void Shard::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  queue_.Close();
  if (steal_domain_ != nullptr) {
    // Wake idle workers so they observe the closed queue and exit.
    steal_domain_->Signal();
  }
  if (worker_.joinable()) {
    worker_.join();
  }
}

Shard::Task Shard::MakeBatchTask(ops::TupleBatch batch, std::uint64_t epoch) {
  Task task;
  task.batch = std::move(batch);
  task.epoch = epoch;
  // Timestamp for the queue-wait / enqueue->drain histograms; one clock
  // read per sub-batch, skipped entirely when observability is off.
  task.enqueue_ns = obs::IsEnabled() ? obs::NowNs() : 0;
  return task;
}

void Shard::NoteEnqueued() {
  if (steal_domain_ != nullptr) {
    steal_domain_->Signal();
  }
}

Status Shard::RunInline(Task task) {
  if (stopped_) {
    return Status::FailedPrecondition("shard is stopped");
  }
  ProcessTask(std::move(task));
  return Status::OK();
}

Status Shard::EnqueueBatch(ops::TupleBatch batch, std::uint64_t epoch) {
  if (inline_) {
    return RunInline(MakeBatchTask(std::move(batch), epoch));
  }
  // Account queue bytes *before* the push: the worker may pop and settle
  // the task the instant it lands, and the counter must never go negative.
  const std::size_t bytes = batch.ApproxBytes();
  queue_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (!queue_.Push(MakeBatchTask(std::move(batch), epoch))) {
    queue_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    return Status::FailedPrecondition("shard is stopped");
  }
  NoteEnqueued();
  return Status::OK();
}

Status Shard::TryEnqueueBatch(ops::TupleBatch batch, std::uint64_t epoch) {
  if (inline_) {
    return RunInline(MakeBatchTask(std::move(batch), epoch));
  }
  using PushResult = BoundedTaskQueue<Task>::PushResult;
  const std::size_t bytes = batch.ApproxBytes();
  queue_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  switch (queue_.TryPush(MakeBatchTask(std::move(batch), epoch))) {
    case PushResult::kAccepted:
      NoteEnqueued();
      return Status::OK();
    case PushResult::kFull:
      queue_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "shard " + std::to_string(index_) + " queue is full");
    case PushResult::kClosed:
    default:
      queue_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      return Status::FailedPrecondition("shard is stopped");
  }
}

Status Shard::EnqueueBatchFor(ops::TupleBatch batch, std::uint64_t epoch,
                              std::chrono::milliseconds timeout) {
  if (inline_) {
    return RunInline(MakeBatchTask(std::move(batch), epoch));
  }
  using PushResult = BoundedTaskQueue<Task>::PushResult;
  const std::size_t bytes = batch.ApproxBytes();
  queue_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  switch (queue_.PushFor(MakeBatchTask(std::move(batch), epoch), timeout)) {
    case PushResult::kAccepted:
      NoteEnqueued();
      return Status::OK();
    case PushResult::kFull:
      queue_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "shard " + std::to_string(index_) + " queue still full after " +
          std::to_string(timeout.count()) + "ms");
    case PushResult::kClosed:
    default:
      queue_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      return Status::FailedPrecondition("shard is stopped");
  }
}

Status Shard::RunControl(ControlFn fn) {
  // A throwing control fn surfaces as Internal instead of unwinding through
  // the worker (which would leave the waiting caller deadlocked).
  const auto guarded = [this, &fn](fabric::StreamFabricator& f) -> Status {
    try {
      fn(f);
    } catch (const std::exception& e) {
      return Status::Internal("shard " + std::to_string(index_) +
                              " control task threw: " + e.what());
    } catch (...) {
      return Status::Internal("shard " + std::to_string(index_) +
                              " control task threw a foreign object");
    }
    return Status::OK();
  };
  if (inline_) {
    return stopped_ ? Status::FailedPrecondition("shard is stopped")
                    : guarded(*fabricator_);
  }
  std::promise<void> done;
  std::future<void> future = done.get_future();
  // The worker writes ctl_status before set_value and the caller reads it
  // only after future.wait(), so the stack captures are safe and ordered.
  Status ctl_status;
  Task task;
  task.control = [&done, &ctl_status, &guarded](fabric::StreamFabricator& f) {
    ctl_status = guarded(f);
    done.set_value();
  };
  if (!queue_.Push(std::move(task))) {
    return Status::FailedPrecondition("shard is stopped");
  }
  NoteEnqueued();
  future.wait();
  return ctl_status;
}

Status Shard::CrashFabricator() {
  CRAQR_ASSIGN_OR_RETURN(auto fresh,
                         fabric::StreamFabricator::Make(grid_, fabric_config_));
  // Rewire the violation callback exactly as Make did for the original.
  Shard* raw = this;
  fresh->SetViolationCallback(
      [raw](ops::AttributeId attribute, const geom::CellIndex& cell,
            const ops::FlattenBatchReport& report) {
        std::lock_guard<std::mutex> lock(raw->outbox_mu_);
        raw->outbox_.violations.push_back(
            {attribute, cell, report, raw->current_epoch_});
      });
  // The swap is a control task: it happens at a task boundary with the
  // worker holding exclusive fabricator access. The ControlFn's reference
  // parameter goes stale the moment we assign, so it must not be touched —
  // we capture `this` instead.
  CRAQR_RETURN_NOT_OK(RunControl([this, &fresh](fabric::StreamFabricator&) {
    fabricator_ = std::move(fresh);
  }));
  // Everything the dead fabricator had half-delivered is gone with it;
  // recovery replays the held epochs, which regenerates these deliveries.
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    outbox_.delivered.clear();
    outbox_.violations.clear();
  }
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    status_ = Status::OK();
  }
  return Status::OK();
}

Status Shard::WaitForEpochCompleted(std::uint64_t epoch) {
  if (epoch > 0) {
    std::unique_lock<std::mutex> lock(epoch_mu_);
    epoch_cv_.wait(lock, [this, epoch] { return completed_epoch_ >= epoch; });
  }
  return status();
}

void Shard::DeliverBatch(query::QueryId query, const ops::TupleBatch& batch) {
  std::lock_guard<std::mutex> lock(outbox_mu_);
  // Column-wise splice of the active rows into the current epoch's
  // per-query batch. A new (epoch, query) group starts from arena-recycled
  // storage (the router releases collected batches back), so steady-state
  // epochs splice allocation-free.
  auto& per_query = outbox_.delivered[current_epoch_];
  auto it = per_query.find(query);
  if (it == per_query.end()) {
    it = per_query.emplace(query, arena_.Acquire()).first;
  }
  it->second.AppendActiveFrom(batch);
}

ShardOutbox Shard::TakeOutbox(std::uint64_t max_delivery_epoch) {
  std::lock_guard<std::mutex> lock(outbox_mu_);
  ShardOutbox out;
  if (max_delivery_epoch == ~static_cast<std::uint64_t>(0)) {
    out.violations = std::move(outbox_.violations);
    outbox_.violations.clear();
  } else {
    // Epoch-gate the violations like the deliveries: later-epoch events
    // wait for a later collection (see the header contract — this is what
    // keeps crash recovery from double-replaying applied feedback).
    std::vector<ViolationEvent> kept;
    for (ViolationEvent& v : outbox_.violations) {
      if (v.epoch <= max_delivery_epoch) {
        out.violations.push_back(std::move(v));
      } else {
        kept.push_back(std::move(v));
      }
    }
    outbox_.violations = std::move(kept);
  }
  const auto end = outbox_.delivered.upper_bound(max_delivery_epoch);
  for (auto it = outbox_.delivered.begin(); it != end; ++it) {
    out.delivered[it->first] = std::move(it->second);
  }
  outbox_.delivered.erase(outbox_.delivered.begin(), end);
  return out;
}

Status Shard::status() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return status_;
}

void Shard::WorkerLoop() {
  while (true) {
    std::optional<Task> task;
    if (steal_domain_ == nullptr) {
      task = queue_.Pop();
      if (!task.has_value()) {
        return;  // closed and drained
      }
    } else {
      // Steal-aware idle loop: own queue first, then the deepest peer's
      // job board, then sleep until the domain signals new work. The
      // version read before the scan makes a signal between the scan and
      // the sleep impossible to miss.
      for (;;) {
        const std::uint64_t seen = steal_domain_->Version();
        bool closed = false;
        task = queue_.TryPop(&closed);
        if (task.has_value()) {
          break;
        }
        if (closed) {
          return;
        }
        if (TryStealOnce()) {
          continue;  // helped a peer; the own queue may have filled
        }
        steal_domain_->WaitForChange(seen);
      }
    }
    // Settle the queue-byte account: the storage hasn't been touched since
    // enqueue, so this subtracts exactly what the producer added.
    queue_bytes_.fetch_sub(task->batch.ApproxBytes(),
                           std::memory_order_relaxed);
    ProcessTask(std::move(*task));
  }
}

void Shard::ProcessTask(Task task) {
  if (task.control) {
    task.control(*fabricator_);
    return;
  }
  if (task.epoch > 0) {
    // Sticky: control tasks between batches keep reporting under the
    // latest epoch.
    current_epoch_ = task.epoch;
  }
  const auto tuples = static_cast<std::uint64_t>(task.batch.size());
  const std::uint64_t start_ns = obs::NowNs();
  // The batch path is exception-hardened: an operator or fabricator throw
  // is converted to an Internal status carrying the shard and epoch
  // context, latched like any processing error. The shard stays parked in
  // the failed state but remains drainable — control tasks (and hence
  // Drain / crash recovery) keep running.
  Status status;
  try {
    std::uint64_t stall_ms = 0;
    if (CRAQR_FAULT_FIRE("runtime.worker_stall", &stall_ms)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    }
    if (CRAQR_FAULT_FIRE("runtime.worker_throw", nullptr)) {
      throw std::runtime_error("fault injection: worker throw");
    }
    status = steal_domain_ != nullptr ? ProcessBatchCooperative(task.batch)
                                      : fabricator_->ProcessBatch(task.batch);
  } catch (const std::exception& e) {
    status = Status::Internal("shard " + std::to_string(index_) +
                              " worker threw at epoch " +
                              std::to_string(task.epoch) + ": " + e.what());
  } catch (...) {
    status = Status::Internal("shard " + std::to_string(index_) +
                              " worker threw a foreign object at epoch " +
                              std::to_string(task.epoch));
  }
  const std::uint64_t end_ns = obs::NowNs();
  busy_ns_->Add(end_ns - start_ns);
  batches_processed_->Increment();
  tuples_processed_->Add(tuples);
  // Latency distributions + trace span, observation-only (the task
  // carries an enqueue stamp only when observability was on at enqueue).
  if (task.enqueue_ns != 0 && obs::IsEnabled()) {
    queue_wait_ns_->Record(start_ns - task.enqueue_ns);
    process_ns_->Record(end_ns - start_ns);
    batch_latency_ns_->Record(end_ns - task.enqueue_ns);
    if (trace_ != nullptr) {
      trace_->Record("process", task.epoch, start_ns, end_ns, tuples);
    }
  }
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(status_mu_);
    if (status_.ok()) {
      status_ = std::move(status);  // latch the first failure
    }
  }
  // Publish epoch completion even on failure — a waiter must wake up and
  // read the latched status instead of hanging.
  if (task.epoch > 0) {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    if (task.epoch > completed_epoch_) {
      completed_epoch_ = task.epoch;
    }
    epoch_cv_.notify_all();
  }
}

Status Shard::ProcessBatchCooperative(ops::TupleBatch& batch) {
  const Result<std::size_t> jobs = fabricator_->BeginDispatch(batch);
  if (!jobs.ok()) {
    return jobs.status();
  }
  const auto total = static_cast<std::uint32_t>(*jobs);
  if (total <= 1) {
    // Nothing shareable; skip the board (and its Signal broadcast).
    const Status status =
        total == 1 ? fabricator_->RunDispatchJob(0) : Status::OK();
    const Status finished = fabricator_->FinishDispatch();
    return status.ok() ? finished : status;
  }
  {
    std::lock_guard<std::mutex> lock(job_mu_);
    job_next_ = 0;
    job_total_ = total;
    job_done_ = 0;
    job_status_ = Status::OK();
    job_active_ = true;
  }
  steal_domain_->Signal();
  // The owner claims too — it is never idle while peers help.
  while (ClaimAndRunOneJob()) {
  }
  Status status;
  {
    std::unique_lock<std::mutex> lock(job_mu_);
    job_cv_.wait(lock, [this] { return job_done_ == job_total_; });
    job_active_ = false;
    status = job_status_;
  }
  // Every job has completed and the board is closed: the owner again has
  // exclusive fabricator access for the flush + violation replay.
  const Status finished = fabricator_->FinishDispatch();
  return status.ok() ? finished : status;
}

bool Shard::ClaimAndRunOneJob() {
  std::uint32_t job = 0;
  {
    std::lock_guard<std::mutex> lock(job_mu_);
    if (!job_active_ || job_next_ == job_total_) {
      return false;
    }
    job = job_next_++;
  }
  // The board stays active until job_done_ reaches job_total_, which
  // cannot happen before this job is accounted below — so the dispatch
  // (and the fabricator topology under it) is stable while we run.
  const Status status = fabricator_->RunDispatchJob(job);
  std::lock_guard<std::mutex> lock(job_mu_);
  if (!status.ok() && job_status_.ok()) {
    job_status_ = status;
  }
  if (++job_done_ == job_total_) {
    job_cv_.notify_all();
  }
  return true;
}

bool Shard::TryStealOnce() {
  // Help the peer with the deepest backlog of unclaimed chain-group jobs.
  Shard* best = nullptr;
  std::uint32_t best_pending = 0;
  for (Shard* peer : steal_domain_->MembersSnapshot()) {
    if (peer == this) {
      continue;
    }
    std::lock_guard<std::mutex> lock(peer->job_mu_);
    if (!peer->job_active_) {
      continue;
    }
    const std::uint32_t pending = peer->job_total_ - peer->job_next_;
    if (pending > best_pending) {
      best = peer;
      best_pending = pending;
    }
  }
  if (best == nullptr || !best->ClaimAndRunOneJob()) {
    return false;
  }
  steals_->Increment();
  return true;
}

}  // namespace runtime
}  // namespace craqr
