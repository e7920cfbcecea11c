/// \file city.cc
/// \brief city_churn_1shard: the bench/workload_gen city mix — 256 query
/// arrivals at overlap 0.9 and churn 0.25 over corridor regions, hot-spot
/// traffic in 2048-tuple batches on a 32x32-cell grid — driven through a
/// 1-shard runtime::ShardedFabricator with synchronous ProcessBatch calls
/// and the schedule's inserts/removes between batches.
///
/// 256 arrivals, not the generator's 1024: with 1024 the fabric's working
/// set outgrows a core's L2, the run leans on the L3 it shares with other
/// tenants, and across six seeds the throughput's quartile spread was 0.22
/// of its median against 0.07 with 256, measured interleaved on a 4-vCPU
/// Xeon VM. A cache-thrashing process on another CPU slowed the 1024 city
/// by 27% and left the 256 city unchanged.
///
/// A run times whole passes over the schedule window, each on a freshly
/// set-up runtime, until the timed wall reaches --seconds; every pass does
/// the same work, so a faster program times more passes of the same mix.
///
/// It exercises topology surgery (P carve-out sharing, route-LUT patching)
/// and the per-cell operator path on many small per-chain batches, on one
/// execution shard.
///
/// The query mix (template pool and churn schedule) is the generator's
/// default city, the same for every seed; the seed draws the traffic over
/// those hot spots and the operators' randomness. Every seed therefore
/// measures the same city, and a seed's delivered-rate shortfall reflects
/// the program rather than a different choice of hot spots.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fabric/fabricator.h"
#include "geometry/grid.h"
#include "runtime/sharded_fabricator.h"
#include "workload_gen.h"
#include "workloads.h"

namespace craqrbench {
namespace {

namespace fabric = craqr::fabric;
namespace geom = craqr::geom;
namespace ops = craqr::ops;
namespace runtime = craqr::runtime;
using craqr::bench::QueryEvent;
using craqr::bench::WorkloadGenerator;
using craqr::obs::NowNs;

constexpr double kSide = 8.0;  // km
constexpr std::uint32_t kCells = 32 * 32;
constexpr std::size_t kBatchRows = 2048;
constexpr double kMinutesPerTuple = 0.0005;
/// Set-ups made before the passes (each pass adds its own). A city set-up
/// takes ~10 ms, so a run makes many to keep the median setup_s steady.
constexpr std::size_t kSpareSetups = 20;
/// Batches (and the schedule events before them) replayed during set-up.
constexpr std::size_t kWarmupBatches = 64;
/// The generator spaces its arrival bursts 1-4 batches apart, so its 256
/// arrivals span ~90 batches; stretching the schedule this many times
/// spreads the churn over ~1450 batches, one timed pass.
constexpr std::size_t kScheduleStretch = 16;
/// A query counts toward rate_rel_err when live this many window batches.
constexpr std::size_t kMinRateBatches = 50;

/// The city: the generator's default mix at the sizes above, with its
/// schedule stretched. A timed pass is exactly the schedule window, batches
/// [kWarmupBatches, window_end), so every pass does the same churn over the
/// same mix of light and heavy batches whatever the program's speed.
struct CityMix {
  WorkloadGenerator gen;
  std::vector<QueryEvent> schedule;
  /// First batch after the last schedule event.
  std::size_t window_end = 0;
};

CityMix MakeMix() {
  craqr::bench::WorkloadConfig config;
  config.region = geom::Rect(0, 0, kSide, kSide);
  config.num_queries = 256;
  config.overlap_fraction = 0.9;
  config.churn_fraction = 0.25;
  config.batch_size = kBatchRows;
  config.dt = kMinutesPerTuple;
  config.num_batches = 1 << 20;  // leaves the schedule uncapped
  CityMix mix{WorkloadGenerator(config), {}, 0};
  mix.schedule = mix.gen.schedule();
  for (QueryEvent& ev : mix.schedule) {
    ev.at_batch *= kScheduleStretch;
    mix.window_end = std::max(mix.window_end, ev.at_batch + 1);
  }
  return mix;
}

/// The generator's traffic model over the mix's hot spots, drawn from the
/// seed: a traffic_skew share of rows lands uniformly in a template region
/// widened by hot_halo (templates weighted (k+1)^-template_alpha), the rest
/// uniformly anywhere.
Traffic MakeTraffic(const CityMix& mix, std::uint64_t seed) {
  const craqr::bench::WorkloadConfig& c = mix.gen.config();
  const std::vector<craqr::bench::QuerySpec>& hot = mix.gen.templates();
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t k = 0; k < hot.size(); ++k) {
    total += std::pow(static_cast<double>(k + 1), -c.template_alpha);
    cdf.push_back(total);
  }
  Traffic traffic(kBatchRows, kMinutesPerTuple, mix.window_end);
  craqr::Rng rng(craqr::SplitMix64(seed ^ 0xC17C7Aull));
  for (std::size_t r = 0; r < traffic.batches() * kBatchRows; ++r) {
    const auto attribute = static_cast<ops::AttributeId>(
        rng.UniformInt(std::max<std::size_t>(c.num_attributes, 1)));
    geom::Rect target = c.region;
    if (rng.Bernoulli(c.traffic_skew)) {
      const double u = rng.Uniform() * total;
      const std::size_t k = std::min<std::size_t>(
          static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                   cdf.begin()),
          hot.size() - 1);
      const geom::Rect& h = hot[k].region;
      target = geom::Rect(std::max(c.region.x_min(), h.x_min() - c.hot_halo),
                          std::max(c.region.y_min(), h.y_min() - c.hot_halo),
                          std::min(c.region.x_max(), h.x_max() + c.hot_halo),
                          std::min(c.region.y_max(), h.y_max() + c.hot_halo));
    }
    const double x = rng.Uniform(target.x_min(), target.x_max());
    const double y = rng.Uniform(target.y_min(), target.y_max());
    traffic.Set(r, attribute, x, y);
  }
  return traffic;
}

fabric::FabricConfig FabricConfigFor(std::uint64_t seed) {
  fabric::FabricConfig config;
  config.flatten_batch_size = 16;
  config.seed = craqr::SplitMix64(seed + 1);
  return config;
}

geom::Grid MakeGrid() {
  return geom::Grid::Make(geom::Rect(0, 0, kSide, kSide), kCells).MoveValue();
}

/// One query slot's delivered stream as the benchmark consumes it, plus
/// its delivered-count bookkeeping for rate_rel_err.
struct Subscriber {
  bool live = false;
  fabric::QueryStream stream;
  StreamDigest digest;
  std::size_t inserted_at = 0;  // batch index
  std::size_t removed_at = 0;   // batch index; 0 while live
  /// Sink total_received when the query entered the timed window (0 for
  /// queries inserted during it), and at its removal or the window's end.
  std::uint64_t received_at_start = 0;
  std::uint64_t received_last = 0;
};

/// Reads and clears every live sink; returns the tuples read.
std::size_t Consume(std::vector<Subscriber>* subs) {
  std::size_t n = 0;
  for (Subscriber& s : *subs) {
    if (!s.live) {
      continue;
    }
    const std::vector<ops::Tuple>& tuples = s.stream.sink->tuples();
    n += tuples.size();
    s.digest.AddAll(tuples);
    s.stream.sink->Clear();
  }
  return n;
}

/// Applies one schedule event before batch `batch`. `admit_us`, when set,
/// receives the call's duration; `spans`, when set, records the call.
template <typename Fab>
bool Apply(Fab* fab, const QueryEvent& ev, std::size_t batch,
           std::vector<Subscriber>* subs, std::vector<double>* admit_us,
           SpanLog* spans, Report* report) {
  Subscriber& s = (*subs)[ev.slot];
  if (ev.kind == QueryEvent::Kind::kInsert) {
    const std::uint64_t t0 = NowNs();
    auto stream =
        fab->InsertQuery(ev.spec.attribute, ev.spec.region, ev.spec.rate);
    const std::uint64_t t1 = NowNs();
    if (spans != nullptr) {
      spans->Record("runtime.InsertQuery", batch, t0, t1);
    }
    if (!stream.ok()) {
      report->Fail("city InsertQuery: " + stream.status().ToString());
      return false;
    }
    if (admit_us != nullptr) {
      admit_us->push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    s.live = true;
    s.stream = stream.MoveValue();
    s.inserted_at = batch;
    return true;
  }
  if (!s.live) {
    report->Fail("city schedule cancels slot " + std::to_string(ev.slot) +
                 " which is not live");
    return false;
  }
  // Whatever was delivered before the removal is part of the stream.
  s.digest.AddAll(s.stream.sink->tuples());
  s.stream.sink->Clear();
  s.received_last = s.stream.sink->total_received();
  const std::uint64_t t0 = NowNs();
  const craqr::Status st = fab->RemoveQuery(s.stream.id);
  const std::uint64_t t1 = NowNs();
  if (spans != nullptr) {
    spans->Record("runtime.RemoveQuery", batch, t0, t1);
  }
  if (!st.ok()) {
    report->Fail("city RemoveQuery: " + st.ToString());
    return false;
  }
  if (admit_us != nullptr) {
    admit_us->push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  s.live = false;
  s.removed_at = batch;
  return true;
}

struct Instance {
  std::unique_ptr<runtime::ShardedFabricator> fab;
  std::vector<Subscriber> subs;
  std::size_t next_event = 0;
};

/// Builds the 1-shard runtime and replays the warm-up batches with the
/// schedule events due before them. The shard worker shares the caller's
/// CPU: ProcessBatch is synchronous, so the two never run at once. Returns
/// seconds, negative on failure.
double Setup(std::uint64_t seed, bool traced, const CityMix& mix,
             const Traffic& traffic, Instance* inst, Report* report) {
  std::vector<ops::TupleBatch> warmup(kWarmupBatches);
  for (std::size_t b = 0; b < kWarmupBatches; ++b) {
    traffic.Fill(b, &warmup[b]);
  }
  const std::uint64_t start = NowNs();
  runtime::ShardedConfig config;
  config.num_shards = 1;
  config.fabric = FabricConfigFor(seed);
  config.trace_capacity = traced ? (1 << 14) : 0;
  auto fab = runtime::ShardedFabricator::Make(MakeGrid(), config);
  if (!fab.ok()) {
    report->Fail("city Make: " + fab.status().ToString());
    return -1.0;
  }
  inst->fab = fab.MoveValue();
  inst->subs.assign(mix.gen.config().num_queries, Subscriber());
  const std::vector<QueryEvent>& schedule = mix.schedule;
  for (std::size_t b = 0; b < kWarmupBatches; ++b) {
    while (inst->next_event < schedule.size() &&
           schedule[inst->next_event].at_batch <= b) {
      if (!Apply(inst->fab.get(), schedule[inst->next_event], b, &inst->subs,
                 nullptr, nullptr, report)) {
        return -1.0;
      }
      ++inst->next_event;
    }
    const craqr::Status st = inst->fab->ProcessBatch(warmup[b]);
    if (!st.ok()) {
      report->Fail("city warm-up: " + st.ToString());
      return -1.0;
    }
    Consume(&inst->subs);
  }
  return Seconds(start, NowNs());
}

/// What one timed pass delivered: every slot's digest, the rate samples
/// over the window and the tuples the sinks received during it.
struct PassOutput {
  std::vector<StreamDigest> digests;
  std::vector<RateSample> rates;
  std::uint64_t delivered = 0;
};

/// Everything the timed passes measured, summed over passes.
struct Measured {
  std::vector<double> latency_ms;
  std::vector<double> admit_us;
  LayerDelta layers;
  LoopTally loop;
  std::size_t inserts = 0;
};

/// Times one pass over the schedule window on a set-up instance, then
/// (untimed) checks the runtime's invariants and collects the pass's
/// output. Returns false when an operation failed.
bool TimePass(const CityMix& mix, const Traffic& traffic, Instance* inst,
              SpanLog* spans, Measured* m, PassOutput* out, Report* report) {
  runtime::ShardedFabricator& fab = *inst->fab;
  auto before = fab.TrySnapshot();
  if (!before.ok()) {
    report->Fail("city snapshot: " + before.status().ToString());
    return false;
  }
  const LayerCounters counters0{before.value(), ReadOperatorBatchSizes()};
  const std::uint64_t shed0 = ReadShedCount();
  for (Subscriber& s : inst->subs) {
    // Queries already removed during set-up deliver nothing from here on.
    s.received_at_start = s.live ? s.stream.sink->total_received() : 0;
    s.received_last = s.received_at_start;
  }

  const std::vector<QueryEvent>& schedule = mix.schedule;
  ops::TupleBatch batch;
  spans->OpenWindow();
  const std::uint64_t start = NowNs();
  for (std::size_t b = kWarmupBatches; b < mix.window_end; ++b) {
    while (inst->next_event < schedule.size() &&
           schedule[inst->next_event].at_batch <= b) {
      const QueryEvent& ev = schedule[inst->next_event];
      report->Attempt();
      if (!Apply(&fab, ev, b, &inst->subs, &m->admit_us, spans, report)) {
        return false;
      }
      m->inserts += ev.kind == QueryEvent::Kind::kInsert ? 1 : 0;
      ++inst->next_event;
    }
    traffic.Fill(b, &batch);
    report->Attempt();
    const std::uint64_t t0 = NowNs();
    const craqr::Status st = fab.ProcessBatch(batch);
    const std::uint64_t t1 = NowNs();
    spans->Record("runtime.ProcessBatch", b, t0, t1);
    if (!st.ok()) {
      report->Fail("city ProcessBatch: " + st.ToString());
      return false;
    }
    m->latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    m->loop.retained_max =
        std::max(m->loop.retained_max, Consume(&inst->subs));
    spans->Record("ops.SinkRead", b, t1, NowNs());
  }
  const std::uint64_t end = NowNs();
  spans->CloseWindow();
  const std::size_t fed = mix.window_end - kWarmupBatches;
  m->loop.wall_s += Seconds(start, end);
  m->loop.tuples += static_cast<double>(fed * kBatchRows);
  m->loop.units += fed;

  // ---------------------------------------------------- correctness gate
  auto after = fab.TrySnapshot();
  if (!after.ok()) {
    report->Fail("city snapshot: " + after.status().ToString());
    return false;
  }
  const runtime::ShardedStats& s1 = after.value();
  if (s1.tuples_routed + s1.tuples_unrouted != mix.window_end * kBatchRows) {
    report->Fail("city routed + unrouted != fed");
  }
  const craqr::Status valid = fab.ValidateInvariants();
  if (!valid.ok()) {
    report->Fail("city ValidateInvariants: " + valid.ToString());
  }
  if (ReadShedCount() != shed0) {
    report->Fail("city shed or dropped deliveries");
  }
  m->layers.Add(counters0, {s1, ReadOperatorBatchSizes()});

  // rate_rel_err over the window: each query's live span inside
  // [kWarmupBatches, window_end).
  for (Subscriber& s : inst->subs) {
    out->digests.push_back(s.digest);
    if (s.stream.sink == nullptr) {
      continue;  // never inserted
    }
    if (s.live) {
      s.received_last = s.stream.sink->total_received();
    }
    out->delivered += s.received_last - s.received_at_start;
    const std::size_t from = std::max(s.inserted_at, kWarmupBatches);
    const std::size_t to = s.removed_at != 0 ? s.removed_at : mix.window_end;
    if (to < from + kMinRateBatches) {
      continue;
    }
    out->rates.push_back(RateSample{
        static_cast<double>(s.received_last - s.received_at_start),
        s.stream.region.Area(),
        static_cast<double>(to - from) * traffic.batch_minutes(),
        s.stream.rate});
  }
  return true;
}

/// Replays the same schedule and batches through a single in-process
/// fabricator and compares every slot's digest with `timed`. Its
/// ProcessBatch calls are the single-threaded baseline `spans` records.
void CheckAgainstReference(std::uint64_t seed, const CityMix& mix,
                           const Traffic& traffic,
                           const std::vector<StreamDigest>& timed,
                           SpanLog* spans, Report* report) {
  auto ref = fabric::StreamFabricator::Make(MakeGrid(), FabricConfigFor(seed));
  if (!ref.ok()) {
    report->Fail("city reference Make: " + ref.status().ToString());
    return;
  }
  std::vector<Subscriber> subs(mix.gen.config().num_queries);
  std::size_t next = 0;
  const std::vector<QueryEvent>& schedule = mix.schedule;
  ops::TupleBatch batch;
  for (std::size_t b = 0; b < mix.window_end; ++b) {
    while (next < schedule.size() && schedule[next].at_batch <= b) {
      if (!Apply(ref.value().get(), schedule[next], b, &subs, nullptr,
                 nullptr, report)) {
        return;
      }
      ++next;
    }
    traffic.Fill(b, &batch);
    const std::uint64_t t0 = NowNs();
    const craqr::Status st = ref.value()->ProcessBatch(batch);
    spans->Record("fabric.ProcessBatch", b, t0, NowNs());
    if (!st.ok()) {
      report->Fail("city reference ProcessBatch: " + st.ToString());
      return;
    }
    Consume(&subs);
  }
  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (subs[i].digest != timed[i]) {
      report->Fail("city slot " + std::to_string(i) +
                   " delivered stream differs from the reference (" +
                   std::to_string(timed[i].count()) + " vs " +
                   std::to_string(subs[i].digest.count()) + " tuples)");
    }
  }
}

}  // namespace

std::size_t CityThreads() { return 2; }  // the caller and one shard worker

void RunCity(const RunOptions& options, Report* report) {
  const CityMix mix = MakeMix();
  const Traffic traffic = MakeTraffic(mix, options.seed);
  const double rss_base = PeakRssMb();

  SpanLog spans(options.traced);
  std::vector<double> setup_s;
  for (std::size_t r = 0; r < kSpareSetups; ++r) {
    Instance spare;
    const double s =
        Setup(options.seed, options.traced, mix, traffic, &spare, report);
    if (s < 0.0) {
      return;
    }
    setup_s.push_back(s);
  }

  // Whole passes over the schedule window, each on a freshly set-up
  // runtime, until the timed wall reaches `seconds`. Every pass gets the
  // same inputs and seed, so each must deliver what the first did.
  Measured m;
  PassOutput first;
  std::size_t passes = 0;
  while (passes == 0 || m.loop.wall_s < options.seconds) {
    Instance inst;
    const double s =
        Setup(options.seed, options.traced, mix, traffic, &inst, report);
    if (s < 0.0) {
      return;
    }
    setup_s.push_back(s);
    PassOutput out;
    if (!TimePass(mix, traffic, &inst, &spans, &m, &out, report)) {
      return;
    }
    m.loop.delivered += out.delivered;
    if (passes == 0) {
      first = std::move(out);
    } else if (out.digests != first.digests) {
      report->Fail("city pass " + std::to_string(passes) +
                   " delivered other streams than the first pass");
    }
    ++passes;
  }
  const double peak_mb = PeakRssMb() - rss_base;
  CheckAgainstReference(options.seed, mix, traffic, first.digests, &spans,
                        report);

  report->Set("tuples_per_s", m.loop.tuples / m.loop.wall_s, m.loop.units);
  if (!options.traced) {
    const Distribution lat = Summarize(m.latency_ms);
    const Distribution admit = Summarize(m.admit_us);
    report->Set("latency_p50_ms", lat.p50, lat.samples);
    report->Set("latency_p99_ms", lat.tail, lat.samples);
    report->Set("query_admit_p50_us", admit.p50, admit.samples);
    report->Set("rate_rel_err", RateRelErr(first.rates), first.rates.size());
    report->Set("peak_rss_mb", peak_mb, 1);
    report->Set("setup_s", Median(setup_s), setup_s.size());
    return;
  }

  // ------------------------------------------------------ per-layer (traced)
  ReportCommonLayers(m.layers, m.loop, spans, report);
  const std::vector<double> insert_us = spans.DurationsUs("runtime.InsertQuery");
  const std::vector<double> remove_us = spans.DurationsUs("runtime.RemoveQuery");
  const std::vector<double> process = spans.DurationsMs("runtime.ProcessBatch");
  const std::vector<double> inprocess = spans.DurationsMs("fabric.ProcessBatch");
  report->Set("fabric.insert_us", Median(insert_us), insert_us.size());
  report->Set("fabric.remove_us", Median(remove_us), remove_us.size());
  report->Set("fabric.process_batch_ms", Median(inprocess), inprocess.size());
  report->Set("fabric.shared_hit_ratio",
              static_cast<double>(m.layers.shared_prefix_hits) /
                  static_cast<double>(std::max<std::size_t>(m.inserts, 1)),
              m.inserts);
  report->Set("runtime.process_batch_ms", Median(process), process.size());
}

}  // namespace craqrbench
