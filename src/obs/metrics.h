#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

/// \file metrics.h
/// \brief Process-wide observability registry: lock-free counters, gauges,
/// log-scale latency histograms and dense per-cell counter banks.
///
/// Design goals, in order:
///   1. **Hot-path cost.** A write is one relaxed load + store (two for a
///      histogram: bucket + sum) on the *writing thread's own stripe*: no
///      lock, no lock-prefixed read-modify-write, no allocation, no branch
///      beyond the enable check and the stripe lookup. Metric objects are
///      looked up once (at construction / first touch) and cached as raw
///      pointers; the registry guarantees pointer stability for the
///      process lifetime (entries live in deques and are never destroyed
///      or moved).
///   2. **Observation only.** Nothing in this subsystem feeds back into
///      execution: disabling it (runtime SetEnabled(false) or compile-time
///      -DCRAQR_OBS_DISABLED) must leave every delivered stream
///      byte-identical. Timestamps come from the steady clock and never
///      influence control flow.
///   3. **One source of truth.** The runtime's functional load counters
///      (ShardLoadStats) read the same registry counters the exporter
///      snapshots, so the two can never disagree.
///
/// The stripe contract. Every Counter and LogHistogram holds kStripes + 1
/// cache-line-aligned copies of its state ("stripes"; a histogram
/// allocates each on its first write); reads (`value()`,
/// `Snapshot()`) sum them (max: the largest stripe max). A thread leases
/// one of kStripes slots on its first write and hands it back when it
/// exits, so while at most kStripes threads are alive and writing, no two
/// of them share a slot. A leased slot has a single writer, which is why
/// its writes need no atomic read-modify-write, and the router and the
/// shard workers recording the same per-kind operator metric never bounce
/// one cache line between cores. Threads beyond kStripes write the extra,
/// shared stripe with atomic adds (exact, just contended). What a thread
/// wrote stays in its stripe after it exits and keeps counting in every
/// read (the next lessee continues from it), so totals are exact at
/// quiescent points; a read racing writers may miss the writes in flight.
/// kStripes is a compile-time constant.
///
/// Naming scheme (dotted, lowercase; Prometheus export substitutes '_'):
///   craqr.ops.<Kind>.{evaluations,tuples_in}    per-operator-kind counters
///   craqr.ops.<Kind>.batch_size                 per-dispatch batch sizes
///   craqr.rt<id>.shard<i>.{tuples,batches}_{enqueued,processed}
///   craqr.rt<id>.shard<i>.{queue_wait_ns,process_ns,batch_latency_ns}
///   craqr.rt<id>.router.{enqueue_ns,drain_wait_ns,collect_ns,merge_ns}
///   craqr.engine.phase.{world,handler,drain,dispatch}_ns
///   craqr.fabric.cell_routed.h<num_cells>       per-flat-cell counter bank
/// `rt<id>` is a per-runtime instance scope (monotone id) so several
/// runtimes in one process never alias each other's load counters.

namespace craqr {
namespace obs {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// \brief Runtime enable switch for the *gated* instrumentation (per-kind
/// operator metrics, latency histograms, per-cell bank, trace rings).
/// Functional counters that feed ShardLoadStats are never gated. Defaults
/// to enabled. With -DCRAQR_OBS_DISABLED the gated paths compile out and
/// IsEnabled() is constant false.
#ifdef CRAQR_OBS_DISABLED
inline bool IsEnabled() { return false; }
inline void SetEnabled(bool) {}
#else
inline bool IsEnabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
inline void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}
#endif

/// Steady-clock timestamp in nanoseconds (monotone within the process).
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Leasable stripe slots per Counter / LogHistogram (see the stripe
/// contract in the file comment). Covers the router, the shard workers
/// and the exporter of a typical runtime.
inline constexpr std::size_t kStripes = 8;

namespace internal {
inline constexpr std::uint32_t kNoStripe = ~static_cast<std::uint32_t>(0);
/// The stripe of threads holding no lease; written with atomic adds.
inline constexpr std::uint32_t kSharedStripe = kStripes;
/// The calling thread's stripe; kNoStripe until its first write.
/// Constant-initialized, so reading it costs one TLS load.
inline thread_local std::uint32_t t_stripe = kNoStripe;
/// Slow path of StripeIndex(): leases a free slot (handed back when the
/// thread exits), or returns kSharedStripe when all kStripes are leased.
std::uint32_t AcquireStripe();
inline std::uint32_t StripeIndex() {
  const std::uint32_t stripe = t_stripe;
  return stripe != kNoStripe ? stripe : AcquireStripe();
}
/// Adds `n` to one stripe cell. A leased stripe has one writer, so a
/// relaxed load + store is exact; the shared stripe needs the atomic add.
inline void StripeAdd(std::atomic<std::uint64_t>& cell, std::uint64_t n,
                      std::uint32_t stripe) {
  if (stripe != kSharedStripe) {
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  } else {
    cell.fetch_add(n, std::memory_order_relaxed);
  }
}
}  // namespace internal

/// Stripe slots currently leased to live threads (<= kStripes).
std::size_t StripesInUse();

/// \brief Monotone event counter, striped per writer thread (see the file
/// comment); `value()` sums the stripes. Each stripe has its own cache
/// line, so neither writers of one counter nor unrelated counters
/// false-share.
class Counter {
 public:
  void Add(std::uint64_t n) {
    const std::uint32_t stripe = internal::StripeIndex();
    internal::StripeAdd(stripes_[stripe].value, n, stripe);
  }
  void Increment() { Add(1); }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Stripe, kStripes + 1> stripes_;
};

/// \brief Last-write-wins signed level (queue depths, byte footprints).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::int64_t> value_{0};
};

/// \brief Point-in-time view of a LogHistogram with derived statistics.
struct HistogramSnapshot {
  static constexpr std::size_t kNumBuckets = 65;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// Exact largest recorded value (0 when empty).
  std::uint64_t max = 0;
  std::array<std::uint64_t, kNumBuckets> buckets{};

  /// Exact mean (sum / count); 0 when empty.
  double Mean() const;
  /// Quantile estimate from the cumulative bucket walk: the upper bound of
  /// the bucket containing rank ceil(q * count), clamped to the exact max
  /// (so Quantile(1.0) == max). 0 when empty. `q` in [0, 1].
  double Quantile(double q) const;
  /// Folds the buckets into a RunningStats (one weighted insert per
  /// non-empty bucket at its representative value) for mean/variance in
  /// the common/stats.h vocabulary. Bucket-resolution approximation.
  RunningStats ToRunningStats() const;
};

/// \brief Fixed-bucket log2-scale histogram for latency-style values.
///
/// Bucket 0 holds the exact value 0; bucket i >= 1 holds [2^(i-1), 2^i).
/// 65 buckets cover the full uint64 range, so Record never clamps. A
/// record adds to a bucket and the sum and raises the running max, all on
/// the calling thread's stripe (see the file comment). p50/p95/p99 derive
/// from the buckets at snapshot time; mean is exact (sum / count).
///
/// A stripe is ~600 bytes, so stripes are allocated on their first
/// record: a histogram only one thread writes (most per-runtime timers)
/// costs one stripe.
class LogHistogram {
 public:
  static constexpr std::size_t kNumBuckets = HistogramSnapshot::kNumBuckets;

  LogHistogram() = default;
  LogHistogram(const LogHistogram&) = delete;
  LogHistogram& operator=(const LogHistogram&) = delete;
  ~LogHistogram();

  /// Bucket index for a value: 0 for 0, otherwise bit_width(value).
  static std::size_t BucketFor(std::uint64_t value) {
    if (value == 0) {
      return 0;
    }
    return static_cast<std::size_t>(64 - __builtin_clzll(value));
  }

  /// Largest value bucket `i` can hold (inclusive).
  static std::uint64_t BucketUpperBound(std::size_t i) {
    if (i == 0) {
      return 0;
    }
    if (i >= 64) {
      return ~static_cast<std::uint64_t>(0);
    }
    return (static_cast<std::uint64_t>(1) << i) - 1;
  }

  void Record(std::uint64_t value) {
    const std::uint32_t index = internal::StripeIndex();
    Stripe* allocated = stripes_[index].load(std::memory_order_acquire);
    Stripe& stripe = allocated != nullptr ? *allocated : AddStripe(index);
    internal::StripeAdd(stripe.buckets[BucketFor(value)], 1, index);
    internal::StripeAdd(stripe.sum, value, index);
    std::uint64_t prev = stripe.max.load(std::memory_order_relaxed);
    if (index != internal::kSharedStripe) {
      if (value > prev) {
        stripe.max.store(value, std::memory_order_relaxed);
      }
      return;
    }
    while (value > prev && !stripe.max.compare_exchange_weak(
                               prev, value, std::memory_order_relaxed)) {
    }
  }

  /// Coherent-enough view for reporting: the stripes' buckets are read
  /// individually (relaxed) and summed, so a snapshot taken while writers
  /// are active may be off by the writes in flight; taken at a quiescent
  /// point it is exact.
  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };
  /// Allocates stripe `index` on its first record (a racing allocation
  /// of the shared stripe installs once).
  Stripe& AddStripe(std::uint32_t index);

  std::array<std::atomic<Stripe*>, kStripes + 1> stripes_{};
};

/// \brief A dense indexed array of counters under one name — the per-cell
/// hot-spot signal (one slot per flat grid cell). Out-of-range indices are
/// ignored (the router's sentinel bucket).
class CounterBank {
 public:
  CounterBank(std::string name, std::size_t size)
      : name_(std::move(name)), slots_(size) {}

  void Add(std::size_t index, std::uint64_t n) {
    if (index < slots_.size()) {
      slots_[index].fetch_add(n, std::memory_order_relaxed);
    }
  }

  std::size_t size() const { return slots_.size(); }
  const std::string& name() const { return name_; }
  std::uint64_t value(std::size_t index) const {
    return index < slots_.size()
               ? slots_[index].load(std::memory_order_relaxed)
               : 0;
  }
  std::uint64_t Total() const;
  /// The `k` largest slots as (index, count), descending by count then
  /// ascending by index; empty slots excluded.
  std::vector<std::pair<std::size_t, std::uint64_t>> TopK(
      std::size_t k) const;

 private:
  std::string name_;
  std::vector<std::atomic<std::uint64_t>> slots_;
};

/// \brief Process-wide get-or-create metric registry.
///
/// Entries are owned by deques and never destroyed, so the returned raw
/// pointers stay valid for the process lifetime — instrumented objects
/// (shards, operators) cache them once and write lock-free forever after.
/// Lookups take a mutex; do them at construction, not per event.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LogHistogram* GetHistogram(const std::string& name);
  /// Get-or-create a bank with at least `size` slots. A pre-existing
  /// smaller bank under the same name is replaced (the old storage stays
  /// alive for pointer stability; its counts are not carried over).
  CounterBank* GetCounterBank(const std::string& name, std::size_t size);

  /// Monotone per-process instance ids for runtime metric scoping
  /// ("craqr.rt<id>"); see the file comment.
  std::uint64_t NextInstanceId() {
    return next_instance_.fetch_add(1, std::memory_order_relaxed);
  }

  /// \brief One JSON object over everything registered, sorted by name:
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, mean, stddev, p50, p95, p99, max, buckets: [[le, n], ...]}},
  /// "banks": {name: {size, total, top: [[index, n], ...]}}}. `bank_top_k`
  /// bounds the per-bank top list.
  std::string SnapshotJson(std::size_t bank_top_k = 16) const;

  /// \brief Prometheus-style text exposition ('.' -> '_' in names):
  /// counters/gauges one line each, histograms as <name>_bucket{le="..."}
  /// cumulative lines plus _sum/_count, banks as <name>_total plus the
  /// top-k slots labelled {cell="<index>"}.
  std::string SnapshotPrometheus(std::size_t bank_top_k = 16) const;

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::deque<Counter> counters_;
  std::map<std::string, Counter*> counters_by_name_;
  std::deque<Gauge> gauges_;
  std::map<std::string, Gauge*> gauges_by_name_;
  std::deque<LogHistogram> histograms_;
  std::map<std::string, LogHistogram*> histograms_by_name_;
  std::deque<CounterBank> banks_;
  std::map<std::string, CounterBank*> banks_by_name_;
  std::atomic<std::uint64_t> next_instance_{0};
};

/// Convenience forwarders to Registry::Global().
inline Counter* GetCounter(const std::string& name) {
  return Registry::Global().GetCounter(name);
}
inline Gauge* GetGauge(const std::string& name) {
  return Registry::Global().GetGauge(name);
}
inline LogHistogram* GetHistogram(const std::string& name) {
  return Registry::Global().GetHistogram(name);
}
inline CounterBank* GetCounterBank(const std::string& name,
                                   std::size_t size) {
  return Registry::Global().GetCounterBank(name, size);
}

/// Registry::Global().SnapshotJson() — the one-call export surface.
std::string SnapshotJson(std::size_t bank_top_k = 16);

/// Registry::Global().SnapshotPrometheus().
std::string SnapshotPrometheus(std::size_t bank_top_k = 16);

}  // namespace obs
}  // namespace craqr
