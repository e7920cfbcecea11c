#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "ops/operator.h"

namespace craqrbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"tuples_per_s", "tuples/s", "higher", "e2e", "all"},
      {"latency_p50_ms", "ms", "lower", "e2e", "all"},
      // Not gated: fanin's whole-run p99 takes in host noise on all four
      // vCPUs, and in two of the ten-seed sets measured its spread reached
      // 0.31 and 0.37 of the median, past the largest bound (0.25).
      {"latency_p99_ms", "ms", "lower", "e2e", "all", false},
      // Not gated: fanin and the engine admit queries only while setting
      // up (5 x 64 InsertQuery calls to three idle shard workers, 5 x 8
      // SubmitText calls), and that median's spread across seeds went past
      // the largest bound (0.25).
      {"query_admit_p50_us", "us", "lower", "e2e", "all", false},
      {"rate_rel_err", "ratio", "lower", "e2e", "all"},
      {"peak_rss_mb", "MB", "lower", "e2e", "all"},
      {"setup_s", "s", "lower", "e2e", "all"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"sensing.world_ms", "ms", "lower", "sensing",
       "latency_p50_ms,tuples_per_s@engine_loop"},
      {"sensing.responses_per_step", "1/step", "higher", "sensing",
       "latency_p50_ms,tuples_per_s@engine_loop"},
      {"server.handler_ms", "ms", "lower", "server",
       "latency_p50_ms,tuples_per_s@engine_loop"},
      {"server.requests_per_step", "1/step", "lower", "server",
       "latency_p50_ms,tuples_per_s@engine_loop"},
      {"server.response_ratio", "ratio", "higher", "server",
       "rate_rel_err@engine_loop"},
      {"server.budget_changes", "1/step", "lower", "server",
       "rate_rel_err@engine_loop"},
      {"server.incentive_raises", "1/step", "lower", "server",
       "rate_rel_err@engine_loop"},
      {"query.submit_us", "us", "lower", "query", "setup_s@engine_loop"},
      {"core.dispatch_ms", "ms", "lower", "core",
       "latency_p50_ms@engine_loop"},
      {"core.unattributed_share", "ratio", "lower", "core",
       "latency_p50_ms@engine_loop"},
      {"fabric.insert_us", "us", "lower", "fabric",
       "tuples_per_s@city_churn_1shard,setup_s@fanin_3shard"},
      {"fabric.remove_us", "us", "lower", "fabric",
       "tuples_per_s@city_churn_1shard"},
      {"fabric.evals_per_tuple", "evals/tuple", "lower", "fabric",
       "tuples_per_s@city_churn_1shard,fanin_3shard"},
      {"fabric.process_batch_ms", "ms", "lower", "fabric",
       "tuples_per_s@fanin_3shard,city_churn_1shard"},
      {"fabric.shared_hit_ratio", "hits/insert", "higher", "fabric",
       "tuples_per_s@city_churn_1shard"},
      {"fabric.unrouted_ratio", "ratio", "lower", "fabric",
       "rate_rel_err@all"},
      {"fabric.live_operators", "count", "lower", "fabric",
       "peak_rss_mb@city_churn_1shard"},
      {"ops.delivered_per_tuple", "tuples/tuple", "higher", "ops",
       "rate_rel_err@all"},
      {"ops.mean_batch_rows", "rows", "higher", "ops",
       "tuples_per_s@city_churn_1shard"},
      {"ops.sink_retained_mb", "MB", "lower", "ops",
       "peak_rss_mb,latency_p99_ms@fanin_3shard"},
      {"ops.sink_read_ms", "ms", "lower", "ops", "tuples_per_s@all"},
      {"runtime.enqueue_ms", "ms", "lower", "runtime",
       "latency_p50_ms@fanin_3shard"},
      {"runtime.drain_ms", "ms", "lower", "runtime",
       "latency_p50_ms@fanin_3shard"},
      {"runtime.shard_wait_ms", "ms", "lower", "runtime",
       "latency_p50_ms@fanin_3shard"},
      {"runtime.merge_tail_ms", "ms", "lower", "runtime",
       "tuples_per_s,latency_p99_ms@fanin_3shard"},
      {"runtime.process_batch_ms", "ms", "lower", "runtime",
       "latency_p50_ms@city_churn_1shard"},
      {"runtime.shard_busy_share", "ratio", "higher", "runtime",
       "tuples_per_s@fanin_3shard"},
      {"runtime.shard_skew", "ratio", "lower", "runtime",
       "tuples_per_s@fanin_3shard"},
      {"runtime.arena_high_water_mb", "MB", "lower", "runtime",
       "peak_rss_mb@fanin_3shard,city_churn_1shard"},
      {"runtime.value_pool_mb", "MB", "lower", "runtime",
       "peak_rss_mb@fanin_3shard,city_churn_1shard"},
      {"obs.trace_overhead", "ratio", "lower", "obs", "none"},
      {"obs.uncovered_share", "ratio", "lower", "obs", "none"},
  };
  return defs;
}

// ------------------------------------------------------------------- Report

void Report::Set(const std::string& name, double value,
                 std::uint64_t samples) {
  values_[name] = Value{value, samples};
}

bool Report::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

double Report::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

std::uint64_t Report::Samples(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.samples;
}

void Report::Fail(const std::string& what) {
  ++failed_;
  errors_.push_back(what);
}

// --------------------------------------------------------------- statistics

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

double TailQuantile(std::size_t n) {
  if (n <= 20) {
    return 0.5;
  }
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

Distribution Summarize(std::vector<double> samples) {
  Distribution d;
  d.samples = samples.size();
  std::sort(samples.begin(), samples.end());
  d.p50 = NearestRank(samples, 0.5);
  d.tail = NearestRank(samples, TailQuantile(samples.size()));
  return d;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// ------------------------------------------------------------ stream digest

void StreamDigest::Add(const craqr::ops::Tuple& tuple) {
  std::uint64_t words[6] = {tuple.id, tuple.sensor_id,
                            static_cast<std::uint64_t>(tuple.attribute), 0, 0,
                            0};
  std::memcpy(&words[3], &tuple.point.t, sizeof(double));
  std::memcpy(&words[4], &tuple.point.x, sizeof(double));
  std::memcpy(&words[5], &tuple.point.y, sizeof(double));
  for (const std::uint64_t w : words) {
    Fold(w);
  }
  ++count_;
}

void StreamDigest::AddAll(const std::vector<craqr::ops::Tuple>& tuples) {
  for (const craqr::ops::Tuple& t : tuples) {
    Add(t);
  }
}

// ------------------------------------------------------- delivered-rate error

double RateRelErr(const std::vector<RateSample>& samples) {
  double total = 0.0;
  std::size_t n = 0;
  for (const RateSample& s : samples) {
    if (!(s.area_km2 > 0.0) || !(s.minutes > 0.0) || !(s.lambda > 0.0)) {
      continue;
    }
    const double achieved = s.delivered / (s.area_km2 * s.minutes);
    total += std::fabs(achieved - s.lambda) / s.lambda;
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

// ------------------------------------------------------------------- memory

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}


// -------------------------------------------------------------------- spans

SpanLog::SpanLog(bool enabled) : enabled_(enabled) {
  if (enabled_) {
    ring_ = craqr::obs::Tracer::Global().CreateRing("craqrbench.calls",
                                                    1 << 16);
  }
}

void SpanLog::Record(const char* name, std::uint64_t epoch,
                     std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!enabled_) {
    return;
  }
  durations_ns_[name].push_back(static_cast<double>(end_ns - start_ns));
  if (window_open_) {
    covered_ns_ += end_ns - start_ns;
  }
  ring_->Record(name, epoch, start_ns, end_ns, 0);
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::vector<double> out = DurationsUs(name);
  for (double& d : out) {
    d *= 1e-3;
  }
  return out;
}

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  const auto it = durations_ns_.find(name);
  std::vector<double> out;
  if (it != durations_ns_.end()) {
    for (const double ns : it->second) {
      out.push_back(ns * 1e-3);
    }
  }
  return out;
}

// ------------------------------------------------------------ program reads

HistogramTotals ReadHistogram(const std::string& name) {
  const craqr::obs::HistogramSnapshot snap =
      craqr::obs::GetHistogram(name)->Snapshot();
  return HistogramTotals{snap.count, snap.sum};
}

HistogramTotals ReadOperatorBatchSizes() {
  HistogramTotals total;
  for (std::size_t k = 0; k < craqr::ops::kNumOperatorKinds; ++k) {
    const HistogramTotals h = ReadHistogram(
        std::string("craqr.ops.") +
        craqr::ops::OperatorKindLabel(static_cast<craqr::ops::OperatorKind>(k)) +
        ".batch_size");
    total.count += h.count;
    total.sum += h.sum;
  }
  return total;
}

std::uint64_t ReadCounter(const std::string& name) {
  return craqr::obs::GetCounter(name)->value();
}

std::uint64_t ReadShedCount() {
  return ReadCounter("craqr.admission.spooled") +
         ReadCounter("craqr.admission.dropped") +
         ReadCounter("craqr.admission.rejected") +
         ReadCounter("craqr.admission.queue_timeouts") +
         ReadCounter("craqr.admission.queue_rejects");
}

std::string LatestRuntimeScope() {
  const std::string json = craqr::obs::SnapshotJson(0);
  const std::string prefix = "\"craqr.rt";
  long best = -1;
  for (std::size_t pos = json.find(prefix); pos != std::string::npos;
       pos = json.find(prefix, pos + 1)) {
    std::size_t i = pos + prefix.size();
    long id = 0;
    bool digits = false;
    while (i < json.size() && json[i] >= '0' && json[i] <= '9') {
      id = id * 10 + (json[i] - '0');
      digits = true;
      ++i;
    }
    if (digits && i < json.size() && json[i] == '.') {
      best = std::max(best, id);
    }
  }
  return best < 0 ? std::string() : "craqr.rt" + std::to_string(best);
}

// ------------------------------------------------------------------ traffic

Traffic::Traffic(std::size_t rows_per_batch, double minutes_per_tuple,
                 std::size_t batches)
    : rows_per_batch_(rows_per_batch),
      minutes_per_tuple_(minutes_per_tuple),
      batches_(batches),
      xy_(2 * rows_per_batch * batches),
      attributes_(rows_per_batch * batches) {}

void Traffic::Set(std::size_t row, craqr::ops::AttributeId attribute,
                  double x, double y) {
  xy_[2 * row] = static_cast<float>(x);
  xy_[2 * row + 1] = static_cast<float>(y);
  attributes_[row] = static_cast<std::uint8_t>(attribute);
}

void Traffic::Fill(std::size_t batch, craqr::ops::TupleBatch* out) const {
  out->Clear();
  out->Reserve(rows_per_batch_);
  const std::size_t first = batch * rows_per_batch_;
  for (std::size_t r = first; r < first + rows_per_batch_; ++r) {
    const std::uint64_t id = r + 1;
    out->Append(id, attributes_[r],
                craqr::geom::SpaceTimePoint{
                    static_cast<double>(id) * minutes_per_tuple_,
                    static_cast<double>(xy_[2 * r]),
                    static_cast<double>(xy_[2 * r + 1])},
                craqr::ops::PayloadRef(), id % 997);
  }
}

// ------------------------------------------------------------ thread placement

namespace {

std::vector<int> AllowedCpuList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return cpus;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) {
      cpus.push_back(c);
    }
  }
  return cpus;
}

/// The process's allowed CPUs, read once before any pinning.
const std::vector<int>& Cpus() {
  static const std::vector<int> cpus = AllowedCpuList();
  return cpus;
}

bool SetCallerCpus(std::size_t first, std::size_t last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = first; i < last; ++i) {
    CPU_SET(Cpus()[i], &set);
  }
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

std::size_t AllowedCpus() { return Cpus().size(); }

bool PinCaller() { return Cpus().size() >= 2 && SetCallerCpus(0, 1); }

WorkerCpus::WorkerCpus() {
  moved_ = Cpus().size() >= 2 && SetCallerCpus(1, Cpus().size());
}

WorkerCpus::~WorkerCpus() {
  if (moved_) {
    SetCallerCpus(0, 1);
  }
}

void LayerDelta::Add(const LayerCounters& before,
                     const LayerCounters& after) {
  const craqr::runtime::ShardedStats& s0 = before.stats;
  const craqr::runtime::ShardedStats& s1 = after.stats;
  evaluations += s1.total_operator_evaluations - s0.total_operator_evaluations;
  unrouted += s1.tuples_unrouted - s0.tuples_unrouted;
  shared_prefix_hits += s1.shared_prefix_hits - s0.shared_prefix_hits;
  dispatches += after.batch_rows.count - before.batch_rows.count;
  dispatched_rows += after.batch_rows.sum - before.batch_rows.sum;
  live_operators = s1.total_operators;
  arena_high_water_bytes = s1.arena_high_water_bytes;
  value_pool_bytes = s1.value_pool_bytes;
}

void ReportCommonLayers(const LayerDelta& delta, const LoopTally& loop,
                        const SpanLog& spans, Report* report) {
  constexpr double kMb = 1024.0 * 1024.0;
  const std::vector<double> reads = spans.DurationsMs("ops.SinkRead");
  report->Set("fabric.evals_per_tuple",
              static_cast<double>(delta.evaluations) / loop.tuples,
              loop.units);
  report->Set("fabric.unrouted_ratio",
              static_cast<double>(delta.unrouted) / loop.tuples,
              loop.units);
  report->Set("fabric.live_operators", static_cast<double>(delta.live_operators),
              1);
  report->Set("ops.delivered_per_tuple",
              static_cast<double>(loop.delivered) / loop.tuples, loop.units);
  report->Set("ops.mean_batch_rows",
              delta.dispatches == 0
                  ? 0.0
                  : static_cast<double>(delta.dispatched_rows) /
                        static_cast<double>(delta.dispatches),
              delta.dispatches);
  report->Set("ops.sink_retained_mb",
              static_cast<double>(loop.retained_max * sizeof(craqr::ops::Tuple)) /
                  kMb,
              loop.units);
  report->Set("ops.sink_read_ms", Mean(reads), reads.size());
  report->Set("runtime.arena_high_water_mb",
              static_cast<double>(delta.arena_high_water_bytes) / kMb, 1);
  report->Set("runtime.value_pool_mb",
              static_cast<double>(delta.value_pool_bytes) / kMb, 1);
  report->Set("obs.uncovered_share",
              1.0 - static_cast<double>(spans.covered_ns()) /
                        (loop.wall_s * 1e9),
              loop.units);
}

}  // namespace craqrbench
