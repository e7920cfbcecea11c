/// \file engine_loop.cc
/// \brief engine_loop: the full engine::CraqrEngine on the path every
/// example uses (num_shards 1, pipeline_depth 2). 20 000 random-waypoint
/// sensors on an 8x8 km region with a 16x16-cell grid report a device
/// attribute (temp) and a human one (rain, with incentives on) for eight
/// overlapping SubmitText queries; set-up includes a 20-minute warm-up.
///
/// Step time is mostly sensing and the request/response handler, so
/// server/sensing work shows here and fabric/runtime work should not. The
/// handler scans every sensor once per subscribed cell, so at 64x64 cells a
/// step took 780 ms, too slow for a run to time enough steps.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "sensing/mobility.h"
#include "sensing/phenomena.h"
#include "sensing/population.h"
#include "sensing/response.h"
#include "sensing/world.h"
#include "workloads.h"

namespace craqrbench {
namespace {

namespace engine = craqr::engine;
namespace fabric = craqr::fabric;
namespace geom = craqr::geom;
namespace ops = craqr::ops;
namespace sensing = craqr::sensing;
using craqr::obs::NowNs;

constexpr double kSide = 8.0;  // km
constexpr std::uint32_t kCells = 16 * 16;
constexpr std::size_t kSensors = 20000;
constexpr std::size_t kSetupReps = 5;
constexpr double kWarmupMinutes = 20.0;
/// Timed steps whose deliveries define rate_rel_err; the loop always runs
/// at least this many, so the figure does not depend on speed.
constexpr std::uint64_t kRatePrefix = 60;

/// Eight overlapping queries. The last asks a rain hot spot for far more
/// than the reluctant crowd delivers (about a sixth of it on a 20-minute
/// warm engine), so budgets climb, incentives rise, and most of the
/// delivered-rate error is a shortfall the control loop does not close;
/// that keeps rate_rel_err from being Poisson noise alone.
const char* const kQueries[] = {
    "ACQUIRE temp FROM REGION(0, 0, 8, 8) RATE 1.5 PER KM2 PER MIN",
    "ACQUIRE temp FROM REGION(0, 0, 4, 8) RATE 0.5 PER KM2 PER MIN",
    "ACQUIRE temp FROM REGION(2, 2, 6, 6) RATE 3 PER KM2 PER MIN",
    "ACQUIRE temp FROM REGION(4, 0, 8, 4) RATE 1 PER KM2 PER MIN",
    "ACQUIRE rain FROM REGION(1, 1, 7, 7) RATE 2 PER KM2 PER MIN",
    "ACQUIRE rain FROM REGION(0, 0, 3, 3) RATE 0.75 PER KM2 PER MIN",
    "ACQUIRE rain FROM REGION(3, 3, 8, 8) RATE 1.25 PER KM2 PER MIN",
    "ACQUIRE rain FROM REGION(5, 5, 6, 6) RATE 400 PER KM2 PER MIN",
};

/// The crowd world for one engine; a pure function of the seed.
craqr::Result<sensing::CrowdWorld> MakeWorld(std::uint64_t seed) {
  auto walker = sensing::RandomWaypointMobility::Make(0.05, 0.5);
  if (!walker.ok()) {
    return walker.status();
  }
  sensing::PopulationConfig pc;
  pc.region = geom::Rect(0, 0, kSide, kSide);
  pc.num_sensors = kSensors;
  pc.mobility_prototype = walker.value().get();
  pc.responsiveness_sigma = 0.2;
  craqr::Rng rng(craqr::SplitMix64(seed ^ 0xE291Eull));
  auto population = sensing::SensorPopulation::Make(pc, &rng);
  if (!population.ok()) {
    return population.status();
  }
  auto world =
      sensing::CrowdWorld::Make(population.MoveValue(), rng.Fork());
  if (!world.ok()) {
    return world.status();
  }
  sensing::TemperatureField::Params tp;
  auto temp = sensing::TemperatureField::Make(tp);
  if (!temp.ok()) {
    return temp.status();
  }
  auto st = world.value().RegisterAttribute(
      "temp", false, temp.MoveValue(),
      sensing::ResponseModel::DeviceBehavior());
  if (!st.ok()) {
    return st.status();
  }
  sensing::RainCell cell;
  cell.x0 = 4.0;
  cell.y0 = 4.0;
  cell.radius = 2.5;
  cell.vx = 0.01;
  auto rain = sensing::RainField::Make({cell});
  if (!rain.ok()) {
    return rain.status();
  }
  // A reluctant crowd: few answer unpaid, incentives raise the odds.
  sensing::ResponseBehavior human;
  human.base_logit = -3.0;
  human.incentive_weight = 1.2;
  human.delay_mu = -0.5;
  human.delay_sigma = 0.5;
  st = world.value().RegisterAttribute("rain", true, rain.MoveValue(), human);
  if (!st.ok()) {
    return st.status();
  }
  return world;
}

engine::EngineConfig ConfigFor(std::uint64_t seed, bool traced) {
  engine::EngineConfig config;
  config.grid_h = kCells;
  config.step_dt = 1.0;
  config.fabric.seed = craqr::SplitMix64(seed + 7);
  config.budget.initial = 16.0;
  config.budget.delta = 8.0;
  config.budget.max = 96.0;
  config.enable_incentives = true;
  config.incentive.initial = 0.0;
  config.incentive.raise_step = 0.5;
  config.incentive.max = 6.0;
  config.num_shards = 1;
  config.pipeline_depth = 2;
  config.trace_capacity = traced ? (1 << 14) : 0;
  return config;
}

/// Reads and clears every query's sink; returns the tuples read.
std::size_t Consume(const std::vector<fabric::QueryStream>& streams) {
  std::size_t n = 0;
  for (const fabric::QueryStream& q : streams) {
    n += q.sink->tuples().size();
    q.sink->Clear();
  }
  return n;
}

struct PhaseTotals {
  HistogramTotals world;
  HistogramTotals handler;
  HistogramTotals drain;
  HistogramTotals dispatch;
};

PhaseTotals ReadPhases() {
  return PhaseTotals{ReadHistogram("craqr.engine.phase.world_ns"),
                     ReadHistogram("craqr.engine.phase.handler_ns"),
                     ReadHistogram("craqr.engine.phase.drain_ns"),
                     ReadHistogram("craqr.engine.phase.dispatch_ns")};
}

double MeanMs(const HistogramTotals& a, const HistogramTotals& b) {
  const std::uint64_t n = b.count - a.count;
  return n == 0 ? 0.0
                : static_cast<double>(b.sum - a.sum) * 1e-6 /
                      static_cast<double>(n);
}

/// Builds the engine over `world`, submits the queries and warms up.
/// Returns seconds, negative on failure.
double Setup(std::uint64_t seed, bool traced, sensing::CrowdWorld world,
             std::unique_ptr<engine::CraqrEngine>* out,
             std::vector<fabric::QueryStream>* streams,
             std::vector<double>* admit_us, SpanLog* spans, Report* report) {
  const std::uint64_t start = NowNs();
  auto made = engine::CraqrEngine::Make(std::move(world),
                                        ConfigFor(seed, traced));
  if (!made.ok()) {
    report->Fail("engine Make: " + made.status().ToString());
    return -1.0;
  }
  *out = made.MoveValue();
  streams->clear();
  for (const char* text : kQueries) {
    const std::uint64_t t0 = NowNs();
    auto stream = (*out)->SubmitText(text);
    const std::uint64_t t1 = NowNs();
    spans->Record("engine.SubmitText", 0, t0, t1);
    if (!stream.ok()) {
      report->Fail("engine SubmitText: " + stream.status().ToString());
      return -1.0;
    }
    admit_us->push_back(static_cast<double>(t1 - t0) * 1e-3);
    streams->push_back(stream.value());
  }
  const craqr::Status st = (*out)->RunFor(kWarmupMinutes);
  if (!st.ok()) {
    report->Fail("engine warm-up: " + st.ToString());
    return -1.0;
  }
  Consume(*streams);
  return Seconds(start, NowNs());
}

}  // namespace

std::size_t EngineLoopThreads() { return 1; }

void RunEngineLoop(const RunOptions& options, Report* report) {
  std::vector<sensing::CrowdWorld> worlds;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    auto world = MakeWorld(options.seed);
    if (!world.ok()) {
      report->Fail("engine world: " + world.status().ToString());
      return;
    }
    worlds.push_back(world.MoveValue());
  }
  const double rss_base = PeakRssMb();

  SpanLog spans(options.traced);
  std::vector<double> setup_s;
  std::vector<double> admit_us;  // every set-up's SubmitText calls
  std::unique_ptr<engine::CraqrEngine> eng;
  std::vector<fabric::QueryStream> streams;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    eng.reset();
    const double s = Setup(options.seed, options.traced, std::move(worlds[r]),
                           &eng, &streams, &admit_us, &spans, report);
    if (s < 0.0) {
      return;
    }
    setup_s.push_back(s);
  }
  worlds.clear();

  const LayerCounters counters0{eng->Stats(), ReadOperatorBatchSizes()};
  const PhaseTotals phases0 = ReadPhases();
  const std::uint64_t fed0 = eng->handler().tuples_delivered();
  const std::uint64_t requests0 = eng->world().total_requests_sent();
  const std::uint64_t responses0 = eng->world().total_responses();
  const std::uint64_t budget0 =
      eng->budgets().increases() + eng->budgets().decreases();
  const std::uint64_t raises0 = eng->incentives().raises();
  std::vector<std::uint64_t> received0;
  for (const fabric::QueryStream& q : streams) {
    received0.push_back(q.sink->total_received());
  }
  std::vector<std::uint64_t> received_prefix;

  std::vector<double> latency_ms;
  std::size_t retained_max = 0;
  std::uint64_t steps = 0;
  spans.OpenWindow();
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(options.seconds * 1e9);
  while (true) {
    report->Attempt();
    const std::uint64_t t0 = NowNs();
    const craqr::Status st = eng->Step();
    const std::uint64_t t1 = NowNs();
    spans.Record("engine.Step", steps + 1, t0, t1);
    if (!st.ok()) {
      report->Fail("engine Step: " + st.ToString());
      return;
    }
    latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    ++steps;
    retained_max = std::max(retained_max, Consume(streams));
    const std::uint64_t t2 = NowNs();
    spans.Record("ops.SinkRead", steps, t1, t2);
    if (steps == kRatePrefix) {
      for (const fabric::QueryStream& q : streams) {
        received_prefix.push_back(q.sink->total_received());
      }
    }
    if (steps >= kRatePrefix && t2 >= deadline) {
      break;
    }
  }
  const std::uint64_t end = NowNs();
  spans.CloseWindow();
  const double peak_mb = PeakRssMb() - rss_base;
  const double wall = Seconds(start, end);
  const std::uint64_t fed = eng->handler().tuples_delivered() - fed0;
  const double tuples = static_cast<double>(fed);

  // ---------------------------------------------------- correctness gate
  const craqr::runtime::ShardedStats after = eng->Stats();
  if (after.tuples_routed + after.tuples_unrouted !=
      eng->handler().tuples_delivered()) {
    report->Fail("engine routed + unrouted != tuples the handler fed");
  }
  const craqr::Status valid = eng->ValidateTopology();
  if (!valid.ok()) {
    report->Fail("engine ValidateTopology: " + valid.ToString());
  }
  if (fed == 0) {
    report->Fail("engine fed no tuples to the fabric");
  }

  std::vector<RateSample> rates;
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    delivered += streams[i].sink->total_received() - received0[i];
    rates.push_back(RateSample{
        static_cast<double>(received_prefix[i] - received0[i]),
        streams[i].region.Area(), static_cast<double>(kRatePrefix),
        streams[i].rate});
  }

  report->Set("tuples_per_s", tuples / wall, steps);
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
  LayerDelta layers;
  layers.Add(counters0, {after, ReadOperatorBatchSizes()});
  ReportCommonLayers(layers, {tuples, steps, delivered, retained_max, wall},
                     spans, report);
  const PhaseTotals phases1 = ReadPhases();
  const std::vector<double> step_ms = spans.DurationsMs("engine.Step");
  double step_total_ms = 0.0;
  for (const double ms : step_ms) {
    step_total_ms += ms;
  }
  const double phase_total_ms =
      static_cast<double>(
          (phases1.world.sum - phases0.world.sum) +
          (phases1.handler.sum - phases0.handler.sum) +
          (phases1.drain.sum - phases0.drain.sum) +
          (phases1.dispatch.sum - phases0.dispatch.sum)) *
      1e-6;
  const double per_step = 1.0 / static_cast<double>(steps);
  const std::uint64_t requests = eng->world().total_requests_sent() - requests0;
  const std::uint64_t responses = eng->world().total_responses() - responses0;

  // Teardown: every query is cancelled, so removal cost is measured too.
  for (const fabric::QueryStream& q : streams) {
    const std::uint64_t t0 = NowNs();
    const craqr::Status st = eng->Cancel(q.id);
    spans.Record("engine.Cancel", 0, t0, NowNs());
    if (!st.ok()) {
      report->Fail("engine Cancel: " + st.ToString());
      return;
    }
  }
  const std::vector<double> remove_us = spans.DurationsUs("engine.Cancel");

  report->Set("sensing.world_ms", MeanMs(phases0.world, phases1.world), steps);
  report->Set("sensing.responses_per_step",
              static_cast<double>(responses) * per_step, steps);
  report->Set("server.handler_ms", MeanMs(phases0.handler, phases1.handler),
              steps);
  report->Set("server.requests_per_step",
              static_cast<double>(requests) * per_step, steps);
  report->Set("server.response_ratio",
              requests == 0 ? 0.0
                            : static_cast<double>(responses) /
                                  static_cast<double>(requests),
              steps);
  report->Set("server.budget_changes",
              static_cast<double>(eng->budgets().increases() +
                                  eng->budgets().decreases() - budget0) *
                  per_step,
              steps);
  report->Set("server.incentive_raises",
              static_cast<double>(eng->incentives().raises() - raises0) *
                  per_step,
              steps);
  const std::vector<double> submit_us = spans.DurationsUs("engine.SubmitText");
  report->Set("query.submit_us", Median(submit_us), submit_us.size());
  report->Set("core.dispatch_ms", MeanMs(phases0.dispatch, phases1.dispatch),
              steps);
  report->Set("core.unattributed_share",
              step_total_ms > 0.0 ? 1.0 - phase_total_ms / step_total_ms : 0.0,
              steps);
  report->Set("fabric.remove_us", Median(remove_us), remove_us.size());
  report->Set("fabric.shared_hit_ratio",
              static_cast<double>(counters0.stats.shared_prefix_hits) /
                  static_cast<double>(streams.size()),
              streams.size());
}

}  // namespace craqrbench
