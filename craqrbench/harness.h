#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/tuple.h"
#include "ops/tuple_batch.h"
#include "runtime/sharded_fabricator.h"

/// \file harness.h
/// \brief Shared pieces of the CrAQR benchmark: the metric table, the
/// percentile rule, the delivered-stream digest, the delivered-rate error,
/// the benchmark-side span log and the run report.
///
/// Everything here observes the program from outside: spans wrap the
/// benchmark's own calls into public functions, and layer counters are
/// read from the structs and registry metrics the program already exports.

namespace craqrbench {

// ------------------------------------------------------------------ metrics

/// One metric the benchmark reports. `layer` is "e2e" for end-to-end
/// metrics; for per-layer metrics `target` names the end-to-end metric and
/// workload the layer number is expected to move. A metric with `gated`
/// false is printed in the table but left out of the result line, so no
/// bound applies to it.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* layer;
  const char* target;
  bool gated = true;
};

/// End-to-end metrics, reported by every untraced run.
const std::vector<MetricDef>& EndToEndMetrics();

/// Per-layer metrics, reported by every traced run.
const std::vector<MetricDef>& PerLayerMetrics();

/// \brief A run's outcome: measured metric values (with sample counts), the
/// operation tally and every correctness failure.
class Report {
 public:
  void Set(const std::string& name, double value, std::uint64_t samples);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  std::uint64_t Samples(const std::string& name) const;

  /// Counts one attempted operation (batch, step or churn call).
  void Attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and records why.
  void Fail(const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  struct Value {
    double value = 0.0;
    std::uint64_t samples = 0;
  };
  std::map<std::string, Value> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// --------------------------------------------------------------- statistics

/// Nearest-rank quantile of ascending `sorted` (q in (0, 1]); 0 when empty.
double NearestRank(const std::vector<double>& sorted, double q);

/// \brief The highest quantile, capped at 0.99, that leaves at least ten
/// samples above it under the nearest-rank rule: 0.99 from 1000 samples
/// on, 1 - 10/n below that, and the median when n <= 20.
double TailQuantile(std::size_t n);

/// \brief Median, tail and sample count of per-unit latencies. The tail is
/// the whole run's TailQuantile: p99 once the run holds 1000 samples.
struct Distribution {
  double p50 = 0.0;
  double tail = 0.0;
  std::size_t samples = 0;
};
Distribution Summarize(std::vector<double> samples);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Mean of `values` (0 when empty).
double Mean(const std::vector<double>& values);

// ------------------------------------------------------------ stream digest

/// \brief Order-sensitive FNV-1a digest of a delivered stream, folded one
/// 64-bit word at a time over each tuple's id, sensor id, attribute and
/// space-time point.
class StreamDigest {
 public:
  void Add(const craqr::ops::Tuple& tuple);
  /// Folds every retained tuple of `tuples` in order.
  void AddAll(const std::vector<craqr::ops::Tuple>& tuples);

  std::uint64_t hash() const { return hash_; }
  std::uint64_t count() const { return count_; }
  bool operator==(const StreamDigest& other) const {
    return hash_ == other.hash_ && count_ == other.count_;
  }
  bool operator!=(const StreamDigest& other) const { return !(*this == other); }

 private:
  void Fold(std::uint64_t word) {
    hash_ = (hash_ ^ word) * 0x100000001b3ull;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
  std::uint64_t count_ = 0;
};

// ------------------------------------------------------- delivered-rate error

/// One query's delivery over a window: tuples delivered, region area
/// (km^2), minutes the query was live in the window, requested rate.
struct RateSample {
  double delivered = 0.0;
  double area_km2 = 0.0;
  double minutes = 0.0;
  double lambda = 0.0;
};

/// Mean over samples of |delivered / (area * minutes) - lambda| / lambda.
/// Samples with no area, time or rate are skipped; 0 when none remain.
double RateRelErr(const std::vector<RateSample>& samples);

// ------------------------------------------------------------------- memory

/// Process resident-set high-water mark in MB (getrusage ru_maxrss).
double PeakRssMb();

// -------------------------------------------------------------------- spans

/// \brief Spans around the benchmark's own calls into the program.
///
/// Disabled (the untraced run), Record is a no-op. Enabled, every span's
/// duration is kept per call name and mirrored into an obs trace ring, so
/// the Chrome trace shows it next to the program's own engine / router /
/// shard rings. Spans recorded while the timed window is open also add to
/// the covered time; the benchmark's spans never nest.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  /// `name` must have static storage (it labels trace-ring events).
  void Record(const char* name, std::uint64_t epoch, std::uint64_t start_ns,
              std::uint64_t end_ns);

  void OpenWindow() { window_open_ = true; }
  void CloseWindow() { window_open_ = false; }

  /// Span durations recorded under `name`, in ms (DurationsMs) or us
  /// (DurationsUs); empty when none.
  std::vector<double> DurationsMs(const std::string& name) const;
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Nanoseconds of the timed window covered by spans.
  std::uint64_t covered_ns() const { return covered_ns_; }

 private:
  bool enabled_;
  bool window_open_ = false;
  std::uint64_t covered_ns_ = 0;
  craqr::obs::TraceRing* ring_ = nullptr;
  std::map<std::string, std::vector<double>> durations_ns_;
};

// ------------------------------------------------------------ program reads

/// Registry histogram totals (count, sum in ns) at one point in time;
/// differences of two reads give the values recorded in between.
struct HistogramTotals {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};
HistogramTotals ReadHistogram(const std::string& name);

/// Sum over every operator kind of craqr.ops.<Kind>.batch_size.
HistogramTotals ReadOperatorBatchSizes();

/// Registry counter value (0 for a name nothing has registered).
std::uint64_t ReadCounter(const std::string& name);

/// Shed, dropped or rejected deliveries and queue pushes, summed over the
/// runtime's admission counters.
std::uint64_t ReadShedCount();

/// Metric scope ("craqr.rt<id>") of the most recently created sharded
/// runtime, read from obs::SnapshotJson; empty when none exists.
std::string LatestRuntimeScope();

/// Program counters read around the timed loop.
struct LayerCounters {
  craqr::runtime::ShardedStats stats;
  HistogramTotals batch_rows;  // ReadOperatorBatchSizes()
};

/// \brief What the program's counters moved by over the timed loop: the
/// differences of LayerCounters read before and after it, summed over every
/// timed pass, plus the gauges read at the end of the last pass.
struct LayerDelta {
  std::uint64_t evaluations = 0;
  std::uint64_t unrouted = 0;
  std::uint64_t shared_prefix_hits = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t dispatched_rows = 0;
  std::size_t live_operators = 0;
  std::size_t arena_high_water_bytes = 0;
  std::size_t value_pool_bytes = 0;

  void Add(const LayerCounters& before, const LayerCounters& after);
};

/// What the benchmark itself saw during the timed loop.
struct LoopTally {
  double tuples = 0.0;          // fed to the fabric
  std::uint64_t units = 0;      // batches or steps
  std::uint64_t delivered = 0;  // tuples the sinks received
  std::size_t retained_max = 0;  // most tuples the sinks held at one read
  double wall_s = 0.0;
};

/// \brief Reports the per-layer figures every workload derives the same
/// way: fabric.{evals_per_tuple, unrouted_ratio, live_operators},
/// ops.{delivered_per_tuple, mean_batch_rows, sink_retained_mb,
/// sink_read_ms}, runtime.{arena_high_water_mb, value_pool_mb} and
/// obs.uncovered_share.
void ReportCommonLayers(const LayerDelta& delta, const LoopTally& loop,
                        const SpanLog& spans, Report* report);

// ------------------------------------------------------------------ traffic

/// \brief Pre-generated tuple traffic, stored compactly so a long run's
/// inputs fit in little memory: per row only the attribute and the point;
/// row r (0-based over the whole stream) gets id r + 1, time
/// (r + 1) * minutes_per_tuple and sensor id (r + 1) % 997.
class Traffic {
 public:
  Traffic(std::size_t rows_per_batch, double minutes_per_tuple,
          std::size_t batches);

  /// Sets row `row` (over the whole stream).
  void Set(std::size_t row, craqr::ops::AttributeId attribute, double x,
           double y);

  /// Materializes batch `batch` (0-based) into `out` (cleared first).
  void Fill(std::size_t batch, craqr::ops::TupleBatch* out) const;

  std::size_t batches() const { return batches_; }
  double batch_minutes() const {
    return static_cast<double>(rows_per_batch_) * minutes_per_tuple_;
  }

 private:
  std::size_t rows_per_batch_;
  double minutes_per_tuple_;
  std::size_t batches_;
  std::vector<float> xy_;
  std::vector<std::uint8_t> attributes_;
};

// ------------------------------------------------------------ thread placement

/// \brief Keeps the benchmark's calling thread on one CPU and the worker
/// threads the program starts on the others, so a run never depends on
/// where the scheduler happens to put them.
///
/// PinCaller() moves the calling thread to the first CPU of the process's
/// allowed set. While a WorkerCpus object lives, the calling thread may run
/// on every other allowed CPU, and threads it starts inherit that set; the
/// destructor pins the caller back. Returns false / does nothing when fewer
/// than two CPUs are allowed.
bool PinCaller();

class WorkerCpus {
 public:
  WorkerCpus();
  ~WorkerCpus();
  WorkerCpus(const WorkerCpus&) = delete;
  WorkerCpus& operator=(const WorkerCpus&) = delete;

 private:
  bool moved_ = false;
};

/// CPUs the process may run on.
std::size_t AllowedCpus();

// ----------------------------------------------------------------- running

/// Command-line parameters a workload runs with.
struct RunOptions {
  std::uint64_t seed = 1;
  /// Timed seconds of this measurement.
  double seconds = 10.0;
  bool traced = false;
};

/// Steady-clock seconds between two obs::NowNs stamps.
inline double Seconds(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

}  // namespace craqrbench
