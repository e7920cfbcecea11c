/// \file fanin.cc
/// \brief fanin_3shard: 64 long-lived, overlapping, wide queries over an
/// 8x8 km region, fed dense uniform 4096-tuple batches through a 3-shard
/// runtime::ShardedFabricator with two batches in flight.
///
/// Every query spans tens to hundreds of cells, so each delivered tuple
/// passes the router's serial collect / Union / Reorder / Sink tail; there
/// is no churn, so topology maintenance is bypassed. The grid has 16x16
/// cells: at 64x64 the Union sweep alone held a batch for 300 ms, too slow
/// for a run to time enough batches.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fabric/fabricator.h"
#include "geometry/grid.h"
#include "runtime/sharded_fabricator.h"
#include "workloads.h"

namespace craqrbench {
namespace {

namespace fabric = craqr::fabric;
namespace geom = craqr::geom;
namespace ops = craqr::ops;
namespace runtime = craqr::runtime;
using craqr::obs::NowNs;

constexpr double kSide = 8.0;  // km
constexpr std::uint32_t kCells = 16 * 16;
constexpr std::size_t kShards = 3;
constexpr std::size_t kQueries = 64;
constexpr std::size_t kBatchRows = 4096;
constexpr double kMinutesPerTuple = 0.0005;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kWarmupBatches = 48;
/// Timed batches whose deliveries define rate_rel_err; the loop always
/// runs at least this many, so the figure does not depend on speed.
constexpr std::size_t kRatePrefix = 400;
/// Timed batches generated up front; the loop stops early if it runs out.
constexpr std::size_t kMaxBatches = 3000;

struct QuerySpec {
  ops::AttributeId attribute = 0;
  geom::Rect region;
  double rate = 1.0;
};

/// Full-region monitors, half-region queries and roaming 2x2 km squares
/// over two attributes; the roaming squares move with the seed.
std::vector<QuerySpec> MakeQueries(std::uint64_t seed) {
  craqr::Rng rng(craqr::SplitMix64(seed ^ 0xFA171ull));
  std::vector<QuerySpec> out;
  for (std::size_t i = 0; i < kQueries; ++i) {
    QuerySpec q;
    q.attribute = i % 3 == 0 ? 1 : 0;
    q.region = geom::Rect(0, 0, kSide, kSide);
    if (i % 4 == 1) {
      q.region = geom::Rect(0, 0, kSide / 2, kSide);
    } else if (i % 4 == 2) {
      const double x0 = rng.Uniform(0.0, kSide - 2.0);
      const double y0 = rng.Uniform(0.0, kSide - 2.0);
      q.region = geom::Rect(x0, y0, x0 + 2.0, y0 + 2.0);
    }
    q.rate = 0.5 + static_cast<double>(i % 6);
    out.push_back(q);
  }
  return out;
}

/// Dense uniform traffic, one attribute-1 row in three.
Traffic MakeTraffic(std::uint64_t seed) {
  Traffic traffic(kBatchRows, kMinutesPerTuple, kWarmupBatches + kMaxBatches);
  craqr::Rng rng(craqr::SplitMix64(seed ^ 0x7AFF1Cull));
  for (std::size_t r = 0; r < traffic.batches() * kBatchRows; ++r) {
    const double x = rng.Uniform(0.0, kSide);
    const double y = rng.Uniform(0.0, kSide);
    traffic.Set(r, r % 3 == 0 ? 1 : 0, x, y);
  }
  return traffic;
}

fabric::FabricConfig FabricConfigFor(std::uint64_t seed) {
  fabric::FabricConfig config;
  config.flatten_batch_size = 16;
  config.seed = craqr::SplitMix64(seed);
  return config;
}

geom::Grid MakeGrid() {
  return geom::Grid::Make(geom::Rect(0, 0, kSide, kSide), kCells).MoveValue();
}

/// One query's delivered stream as the benchmark consumes it.
struct Subscriber {
  fabric::QueryStream stream;
  StreamDigest digest;
};

/// Reads and clears every subscriber's sink, as a streaming consumer
/// would; returns the tuples read.
std::size_t Consume(std::vector<Subscriber>* subs) {
  std::size_t n = 0;
  for (Subscriber& s : *subs) {
    const std::vector<ops::Tuple>& tuples = s.stream.sink->tuples();
    n += tuples.size();
    s.digest.AddAll(tuples);
    s.stream.sink->Clear();
  }
  return n;
}

template <typename Fab>
bool InsertAll(Fab* fab, const std::vector<QuerySpec>& queries,
               std::vector<Subscriber>* subs, std::vector<double>* admit_us,
               SpanLog* spans, Report* report) {
  for (const QuerySpec& q : queries) {
    const std::uint64_t t0 = NowNs();
    auto stream = fab->InsertQuery(q.attribute, q.region, q.rate);
    const std::uint64_t t1 = NowNs();
    if (!stream.ok()) {
      report->Fail("fanin InsertQuery: " + stream.status().ToString());
      return false;
    }
    if (admit_us != nullptr) {
      admit_us->push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    if (spans != nullptr) {
      spans->Record("runtime.InsertQuery", 0, t0, t1);
    }
    subs->push_back(Subscriber{stream.MoveValue(), StreamDigest()});
  }
  return true;
}

struct Instance {
  std::unique_ptr<runtime::ShardedFabricator> fab;
  std::vector<Subscriber> subs;
};

/// Builds the runtime (its workers on every CPU but the caller's), inserts
/// the queries and runs the warm-up epochs 1..kWarmupBatches. Returns the
/// set-up seconds, or a negative value on failure.
double Setup(std::uint64_t seed, bool traced, const Traffic& traffic,
             const std::vector<QuerySpec>& queries, Instance* inst,
             std::vector<double>* admit_us, SpanLog* spans, Report* report) {
  std::vector<ops::TupleBatch> warmup(kWarmupBatches);
  for (std::size_t b = 0; b < kWarmupBatches; ++b) {
    traffic.Fill(b, &warmup[b]);
  }
  const std::uint64_t start = NowNs();
  runtime::ShardedConfig config;
  config.num_shards = kShards;
  config.fabric = FabricConfigFor(seed);
  config.trace_capacity = traced ? (1 << 14) : 0;
  auto fab = [&] {
    const WorkerCpus workers;
    return runtime::ShardedFabricator::Make(MakeGrid(), config);
  }();
  if (!fab.ok()) {
    report->Fail("fanin Make: " + fab.status().ToString());
    return -1.0;
  }
  inst->fab = fab.MoveValue();
  if (!InsertAll(inst->fab.get(), queries, &inst->subs, admit_us, spans,
                 report)) {
    return -1.0;
  }
  for (std::size_t e = 1; e <= kWarmupBatches; ++e) {
    craqr::Status st = inst->fab->EnqueueBatch(warmup[e - 1], e);
    if (st.ok() && e > 1) {
      st = inst->fab->DrainThrough(e - 1);
    }
    if (!st.ok()) {
      report->Fail("fanin warm-up: " + st.ToString());
      return -1.0;
    }
    Consume(&inst->subs);
  }
  const craqr::Status st = inst->fab->DrainThrough(kWarmupBatches);
  if (!st.ok()) {
    report->Fail("fanin warm-up drain: " + st.ToString());
    return -1.0;
  }
  Consume(&inst->subs);
  return Seconds(start, NowNs());
}

/// Replays the first `batches` batches through a single in-process
/// fabricator; every query's digest must equal the sharded run's. Its
/// ProcessBatch calls are the single-threaded baseline `spans` records.
void CheckAgainstReference(std::uint64_t seed, const Traffic& traffic,
                           const std::vector<QuerySpec>& queries,
                           std::size_t batches,
                           const std::vector<Subscriber>& timed,
                           SpanLog* spans, Report* report) {
  auto ref = fabric::StreamFabricator::Make(MakeGrid(), FabricConfigFor(seed));
  if (!ref.ok()) {
    report->Fail("fanin reference Make: " + ref.status().ToString());
    return;
  }
  std::vector<Subscriber> subs;
  if (!InsertAll(ref.value().get(), queries, &subs, nullptr, nullptr,
                 report)) {
    return;
  }
  ops::TupleBatch batch;
  for (std::size_t b = 0; b < batches; ++b) {
    traffic.Fill(b, &batch);
    const std::uint64_t t0 = NowNs();
    const craqr::Status st = ref.value()->ProcessBatch(batch);
    spans->Record("fabric.ProcessBatch", b + 1, t0, NowNs());
    if (!st.ok()) {
      report->Fail("fanin reference ProcessBatch: " + st.ToString());
      return;
    }
    Consume(&subs);
  }
  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (subs[i].digest != timed[i].digest) {
      report->Fail("fanin query " + std::to_string(i) +
                   " delivered stream differs from the reference (" +
                   std::to_string(timed[i].digest.count()) + " vs " +
                   std::to_string(subs[i].digest.count()) + " tuples)");
    }
  }
}

}  // namespace

std::size_t FaninThreads() { return kShards + 1; }

void RunFanin(const RunOptions& options, Report* report) {
  const std::vector<QuerySpec> queries = MakeQueries(options.seed);
  const Traffic traffic = MakeTraffic(options.seed);
  const double rss_base = PeakRssMb();

  SpanLog spans(options.traced);
  std::vector<double> setup_s;
  std::vector<double> admit_us;  // every set-up's InsertQuery calls
  Instance inst;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    inst = Instance();
    const double s = Setup(options.seed, options.traced, traffic, queries,
                           &inst, &admit_us, &spans, report);
    if (s < 0.0) {
      return;
    }
    setup_s.push_back(s);
  }
  runtime::ShardedFabricator& fab = *inst.fab;

  auto before = fab.TrySnapshot();
  if (!before.ok()) {
    report->Fail("fanin snapshot: " + before.status().ToString());
    return;
  }
  const std::string scope = LatestRuntimeScope();
  const HistogramTotals wait0 = ReadHistogram(scope + ".router.drain_wait_ns");
  const LayerCounters counters0{before.value(), ReadOperatorBatchSizes()};
  const std::uint64_t shed0 = ReadShedCount();
  std::vector<std::uint64_t> received0;
  for (const Subscriber& s : inst.subs) {
    received0.push_back(s.stream.sink->total_received());
  }
  std::vector<std::uint64_t> received_prefix;

  // Per timed batch: when its enqueue started, and its latency.
  std::vector<std::uint64_t> enqueued_at;
  std::vector<double> latency_ms;
  std::size_t retained_max = 0;
  bool ok = true;
  ops::TupleBatch batch;

  spans.OpenWindow();
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(options.seconds * 1e9);

  // Drains epoch `e`, records its latency and hands its deliveries to the
  // consumer.
  auto drain = [&](std::size_t e) {
    const std::uint64_t t0 = NowNs();
    const craqr::Status st = fab.DrainThrough(e);
    const std::uint64_t t1 = NowNs();
    spans.Record("runtime.DrainThrough", e, t0, t1);
    if (!st.ok()) {
      report->Fail("fanin DrainThrough: " + st.ToString());
      ok = false;
      return;
    }
    latency_ms.push_back(
        static_cast<double>(t1 - enqueued_at[e - kWarmupBatches - 1]) * 1e-6);
    retained_max = std::max(retained_max, Consume(&inst.subs));
    spans.Record("ops.SinkRead", e, t1, NowNs());
    if (e == kWarmupBatches + kRatePrefix) {
      for (const Subscriber& s : inst.subs) {
        received_prefix.push_back(s.stream.sink->total_received());
      }
    }
  };

  std::size_t fed = 0;
  for (std::size_t b = kWarmupBatches; b < traffic.batches() && ok; ++b) {
    const std::size_t e = b + 1;
    traffic.Fill(b, &batch);
    report->Attempt();
    const std::uint64_t t0 = NowNs();
    const craqr::Status st = fab.EnqueueBatch(batch, e);
    spans.Record("runtime.EnqueueBatch", e, t0, NowNs());
    if (!st.ok()) {
      report->Fail("fanin EnqueueBatch: " + st.ToString());
      ok = false;
      break;
    }
    enqueued_at.push_back(t0);
    ++fed;
    if (fed > 1) {
      drain(e - 1);
    }
    if (fed > kRatePrefix && NowNs() >= deadline) {
      break;
    }
  }
  if (ok && fed > 0) {
    drain(kWarmupBatches + fed);
  }
  const std::uint64_t end = NowNs();
  spans.CloseWindow();
  const double peak_mb = PeakRssMb() - rss_base;
  if (!ok) {
    return;
  }
  if (fed <= kRatePrefix) {
    report->Fail("fanin ran out of generated batches before the rate window");
    return;
  }
  const double wall = Seconds(start, end);
  const double tuples = static_cast<double>(fed * kBatchRows);

  // ---------------------------------------------------- correctness gate
  auto after = fab.TrySnapshot();
  if (!after.ok()) {
    report->Fail("fanin snapshot: " + after.status().ToString());
    return;
  }
  const runtime::ShardedStats& s1 = after.value();
  if (s1.tuples_routed + s1.tuples_unrouted !=
      (kWarmupBatches + fed) * kBatchRows) {
    report->Fail("fanin routed + unrouted != fed");
  }
  const craqr::Status valid = fab.ValidateInvariants();
  if (!valid.ok()) {
    report->Fail("fanin ValidateInvariants: " + valid.ToString());
  }
  if (ReadShedCount() != shed0) {
    report->Fail("fanin shed or dropped deliveries");
  }
  CheckAgainstReference(options.seed, traffic, queries, kWarmupBatches + fed,
                        inst.subs, &spans, report);

  std::vector<RateSample> rates;
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < inst.subs.size(); ++i) {
    const fabric::QueryStream& q = inst.subs[i].stream;
    delivered += q.sink->total_received() - received0[i];
    rates.push_back(RateSample{
        static_cast<double>(received_prefix[i] - received0[i]),
        q.region.Area(),
        static_cast<double>(kRatePrefix) * traffic.batch_minutes(), q.rate});
  }

  report->Set("tuples_per_s", tuples / wall, fed);
  if (!options.traced) {
    const Distribution lat = Summarize(latency_ms);
    report->Set("latency_p50_ms", lat.p50, lat.samples);
    report->Set("latency_p99_ms", lat.tail, lat.samples);
    report->Set("query_admit_p50_us", Median(admit_us), admit_us.size());
    report->Set("rate_rel_err", RateRelErr(rates), rates.size());
    report->Set("peak_rss_mb", peak_mb, 1);
    report->Set("setup_s", Median(setup_s), setup_s.size());
    return;
  }

  // ------------------------------------------------------ per-layer (traced)
  const runtime::ShardedStats& s0 = before.value();
  const HistogramTotals wait1 = ReadHistogram(scope + ".router.drain_wait_ns");
  LayerDelta layers;
  layers.Add(counters0, {s1, ReadOperatorBatchSizes()});
  ReportCommonLayers(layers, {tuples, fed, delivered, retained_max, wall},
                     spans, report);
  const std::vector<double> drains = spans.DurationsMs("runtime.DrainThrough");
  const double shard_wait_ms =
      static_cast<double>(wait1.sum - wait0.sum) * 1e-6 /
      static_cast<double>(drains.size());
  std::uint64_t busy = 0;
  double max_tuples = 0.0;
  double sum_tuples = 0.0;
  for (std::size_t k = 0; k < s1.per_shard.size(); ++k) {
    busy += s1.per_shard[k].busy_ns - s0.per_shard[k].busy_ns;
    const double t = static_cast<double>(s1.per_shard[k].tuples_processed -
                                         s0.per_shard[k].tuples_processed);
    max_tuples = std::max(max_tuples, t);
    sum_tuples += t;
  }
  const double mean_tuples = sum_tuples / static_cast<double>(kShards);

  // Teardown: every query leaves, so removal cost is measured too.
  for (const Subscriber& s : inst.subs) {
    const std::uint64_t t0 = NowNs();
    const craqr::Status st = fab.RemoveQuery(s.stream.id);
    spans.Record("runtime.RemoveQuery", 0, t0, NowNs());
    if (!st.ok()) {
      report->Fail("fanin RemoveQuery: " + st.ToString());
      return;
    }
  }

  const std::vector<double> insert_us = spans.DurationsUs("runtime.InsertQuery");
  const std::vector<double> remove_us = spans.DurationsUs("runtime.RemoveQuery");
  const std::vector<double> enqueues =
      spans.DurationsMs("runtime.EnqueueBatch");
  const std::vector<double> inprocess =
      spans.DurationsMs("fabric.ProcessBatch");
  report->Set("fabric.insert_us", Median(insert_us), insert_us.size());
  report->Set("fabric.remove_us", Median(remove_us), remove_us.size());
  report->Set("fabric.process_batch_ms", Median(inprocess), inprocess.size());
  report->Set("fabric.shared_hit_ratio",
              static_cast<double>(s0.shared_prefix_hits) /
                  static_cast<double>(kQueries),
              kQueries);
  report->Set("runtime.enqueue_ms", Median(enqueues), enqueues.size());
  report->Set("runtime.drain_ms", Median(drains), drains.size());
  report->Set("runtime.shard_wait_ms", shard_wait_ms, drains.size());
  report->Set("runtime.merge_tail_ms", Mean(drains) - shard_wait_ms,
              drains.size());
  report->Set("runtime.shard_busy_share",
              static_cast<double>(busy) /
                  (static_cast<double>(kShards) * wall * 1e9),
              kShards);
  report->Set("runtime.shard_skew",
              mean_tuples > 0.0 ? max_tuples / mean_tuples : 0.0, kShards);
}

}  // namespace craqrbench
