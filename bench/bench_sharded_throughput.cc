/// \file bench_sharded_throughput.cc
/// \brief Sharded-runtime scaling sweep: tuples/sec for shards ∈ {1,2,4,8},
/// plus the engine-loop benchmarks BM_EngineStepSync, BM_EngineStepPipelined
/// and BM_EngineStepOneShard.
///
/// Drives the multi-query operator-throughput workload (many overlapping
/// acquisitional queries over an 8x8-cell grid, dense monotone-time tuple
/// batches) through the single-threaded StreamFabricator and through the
/// runtime::ShardedFabricator at increasing shard counts, using the
/// pipelined EnqueueBatch path so shard workers overlap with routing.
/// Prints tuples/sec per configuration and the speedup over one shard.
///
/// The engine-step section then measures the full CraqrEngine loop (world
/// advance + handler dispatch + shard processing) at the same shard count
/// with pipeline_depth 1 (BM_EngineStepSync: drain every step) vs
/// pipeline_depth 2 (BM_EngineStepPipelined: world simulation and handler
/// dispatch of tick t+1 overlap the shards chewing tick t) and logs the
/// steps/sec ratio — the CI release-bench job greps this. A third row,
/// BM_EngineStepOneShard, runs one inline shard at depth 2 (no worker:
/// the shard processes each batch inside Step()) and must route exactly
/// what the 4-shard depth-2 run routes. For every row it prints each
/// engine phase's share (world / handler / drain / dispatch, from the
/// craqr.engine.phase.* histograms) of the summed Step() wall time, and
/// exits non-zero when the phases cover less than 90% of it.
///
/// Scaling is bounded by std::thread::hardware_concurrency(): on a
/// single-core container every configuration serializes onto one CPU and
/// speedups hover near (or slightly below) 1x; the >= 2x target at four
/// shards needs >= 4 physical cores. The same bound applies to the
/// engine-step overlap.
///
/// `--skew <frac>` switches to the load-imbalance sweep: `frac` of the
/// traffic (e.g. 0.9) lands in a hot corner covering ~5% of the grid's
/// cells, and each shard count runs three ways — static hash partition,
/// with epoch-barrier cell rebalancing, and with rebalancing plus work
/// stealing — against a balanced-traffic control. Routed counts must be
/// identical across all of them (rebalancing/stealing never change what is
/// delivered, only where it executes).
///
/// Usage: bench_sharded_throughput [--json <path>] [--metrics-json <path>]
///                                 [batches] [batch_size] [queries]
///        bench_sharded_throughput [--json <path>] [--metrics-json <path>]
///                                 --skew <frac> [batches] [batch_size] [queries]
///        bench_sharded_throughput [--json <path>] [--metrics-json <path>]
///                                 --engine-step [steps] [sensors]
///
/// `--json <path>` writes every configuration's result as
/// `{name, iters, ns_per_op, tuples_per_sec}` (engine-step rows report
/// steps/sec in the rate column) — the format of the repo-level
/// BENCH_*.json perf trajectory the release-bench CI job uploads.
/// `--metrics-json <path>` additionally dumps the final obs registry
/// snapshot (per-operator-kind counters, per-shard latency histograms,
/// per-cell routing bank) as obs::SnapshotJson output.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "core/engine.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "fabric/fabricator.h"
#include "runtime/sharded_fabricator.h"
#include "sensing/world.h"

namespace {

using namespace craqr;  // NOLINT

std::vector<benchjson::Entry> g_json_entries;

/// Records one --json row; `rate` is the bench's primary rate
/// (tuples/sec for the sweep, steps/sec for the engine-step rows).
void AddJsonEntry(const std::string& name, std::uint64_t iters, double rate) {
  benchjson::Entry e;
  e.name = name;
  e.iters = iters;
  e.ns_per_op = rate > 0.0 ? 1e9 / rate : 0.0;
  e.tuples_per_sec = rate;
  g_json_entries.push_back(std::move(e));
}

constexpr double kWorldSize = 8.0;

geom::Grid BenchGrid() {
  return geom::Grid::Make(geom::Rect(0, 0, kWorldSize, kWorldSize), 64)
      .MoveValue();
}

fabric::FabricConfig BenchFabricConfig() {
  fabric::FabricConfig config;
  config.flatten_batch_size = 64;
  config.seed = 0xBE7CB;
  return config;
}

/// Overlapping multi-query mix: full-region monitors, quadrant queries and
/// small roaming rectangles across two attributes.
template <typename Fab>
bool InsertQueries(Fab* fab, std::size_t queries) {
  Rng rng(17);
  for (std::size_t i = 0; i < queries; ++i) {
    const ops::AttributeId attribute = i % 3 == 0 ? 1 : 0;
    geom::Rect region(0, 0, kWorldSize, kWorldSize);
    if (i % 4 == 1) {
      region = geom::Rect(0, 0, kWorldSize / 2, kWorldSize);
    } else if (i % 4 == 2) {
      const double x0 = rng.Uniform(0.0, kWorldSize - 2.0);
      const double y0 = rng.Uniform(0.0, kWorldSize - 2.0);
      region = geom::Rect(x0, y0, x0 + 2.0, y0 + 2.0);
    }
    const double rate = 0.5 + static_cast<double>(i % 6);
    if (!fab->InsertQuery(attribute, region, rate).ok()) {
      return false;
    }
  }
  return true;
}

/// `skew_frac` of the tuples land in the hot corner — 1.75x1.75 of an
/// 8x8 world is 14x14 of the 64x64 grid's cells, ~4.8% of them; the rest
/// stay uniform. skew_frac 0 is the balanced workload.
std::vector<std::vector<ops::Tuple>> MakeBatches(std::size_t batches,
                                                 std::size_t batch_size,
                                                 double skew_frac = 0.0) {
  constexpr double kHotSize = 1.75;
  Rng rng(23);
  double t = 0.0;
  std::uint64_t id = 1;
  std::vector<std::vector<ops::Tuple>> out;
  out.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    std::vector<ops::Tuple> batch;
    batch.reserve(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      ops::Tuple tuple;
      tuple.id = id++;
      tuple.attribute = i % 3 == 0 ? 1 : 0;
      t += 0.0005;
      const double extent =
          rng.Uniform(0.0, 1.0) < skew_frac ? kHotSize : kWorldSize;
      tuple.point = geom::SpaceTimePoint{t, rng.Uniform(0.0, extent),
                                         rng.Uniform(0.0, extent)};
      batch.push_back(tuple);
    }
    out.push_back(std::move(batch));
  }
  return out;
}

struct RunResult {
  double tuples_per_sec = 0.0;
  std::uint64_t routed = 0;
  std::uint64_t migrated = 0;
  std::uint64_t steals = 0;
};

/// Pumps every batch and reports end-to-end tuples/sec (routing + shard
/// processing + merge). `pump` owns the per-path batch submission.
template <typename PumpFn>
RunResult TimedRun(const std::vector<std::vector<ops::Tuple>>& batches,
                   PumpFn&& pump) {
  const auto start = std::chrono::steady_clock::now();
  pump();
  const auto end = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  std::size_t total = 0;
  for (const auto& batch : batches) {
    total += batch.size();
  }
  RunResult result;
  result.tuples_per_sec =
      seconds > 0.0 ? static_cast<double>(total) / seconds : 0.0;
  return result;
}

RunResult RunSingleThreaded(const std::vector<std::vector<ops::Tuple>>& batches,
                            std::size_t queries) {
  auto fab =
      fabric::StreamFabricator::Make(BenchGrid(), BenchFabricConfig())
          .MoveValue();
  if (!InsertQueries(fab.get(), queries)) {
    std::fprintf(stderr, "query insertion failed\n");
    std::exit(1);
  }
  auto result = TimedRun(batches, [&] {
    for (const auto& batch : batches) {
      if (!fab->ProcessBatch(batch).ok()) {
        std::fprintf(stderr, "ProcessBatch failed\n");
        std::exit(1);
      }
    }
  });
  result.routed = fab->tuples_routed();
  return result;
}

/// Knobs for the skew sweep: the static baseline leaves both off; the
/// rebalanced configurations call Rebalance() every `rebalance_every`
/// batches, mimicking the engine's rebalance_every_steps cadence.
struct ShardedRunOptions {
  bool rebalancing = false;
  bool stealing = false;
  std::size_t rebalance_every = 16;
};

RunResult RunSharded(const std::vector<std::vector<ops::Tuple>>& batches,
                     std::size_t queries, std::size_t num_shards,
                     const ShardedRunOptions& opts = {}) {
  runtime::ShardedConfig config;
  config.num_shards = num_shards;
  config.fabric = BenchFabricConfig();
  config.enable_stealing = opts.stealing;
  config.enable_rebalancing = opts.rebalancing;
  config.rebalance.imbalance_trigger = 1.1;
  config.rebalance.max_moves_per_event = 32;
  auto fab = runtime::ShardedFabricator::Make(BenchGrid(), config).MoveValue();
  if (!InsertQueries(fab.get(), queries)) {
    std::fprintf(stderr, "query insertion failed\n");
    std::exit(1);
  }
  auto result = TimedRun(batches, [&] {
    std::size_t since_rebalance = 0;
    for (const auto& batch : batches) {
      if (!fab->EnqueueBatch(batch).ok()) {
        std::fprintf(stderr, "EnqueueBatch failed\n");
        std::exit(1);
      }
      if (opts.rebalancing && ++since_rebalance >= opts.rebalance_every) {
        since_rebalance = 0;
        if (!fab->Rebalance().ok()) {
          std::fprintf(stderr, "Rebalance failed\n");
          std::exit(1);
        }
      }
    }
    if (!fab->Drain().ok()) {
      std::fprintf(stderr, "Drain failed\n");
      std::exit(1);
    }
  });
  const auto stats = fab->TrySnapshot();
  if (!stats.ok()) {
    std::fprintf(stderr, "TrySnapshot failed: %s\n",
                 stats.status().ToString().c_str());
    std::exit(1);
  }
  result.routed = stats->tuples_routed;
  result.migrated = stats->cells_migrated;
  for (const auto& shard : stats->per_shard) {
    result.steals += shard.steals;
  }
  return result;
}

// ----------------------------------------------------------------- skew sweep

/// Load-imbalance sweep: a balanced control plus three treatments of the
/// skewed workload per shard count. Routed counts are pinned within each
/// batch set — migrating cells or stealing jobs must never change what is
/// delivered. Returns false on a routed-count mismatch.
bool RunSkewSweep(double skew_frac, std::size_t batches,
                  std::size_t batch_size, std::size_t queries) {
  std::printf("skewed-load rebalancing sweep\n");
  std::printf(
      "  workload: %zu queries, %zu batches x %zu tuples, skew %.2f into "
      "~5%% of cells\n",
      queries, batches, batch_size, skew_frac);
  std::printf("  hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
  std::printf("%-40s %14s %12s %9s %8s\n", "configuration", "tuples/sec",
              "routed", "migrated", "steals");

  const auto balanced = MakeBatches(batches, batch_size, 0.0);
  const auto skewed = MakeBatches(batches, batch_size, skew_frac);

  ShardedRunOptions kStatic;
  ShardedRunOptions rebalance;
  rebalance.rebalancing = true;
  ShardedRunOptions rebalance_steal = rebalance;
  rebalance_steal.stealing = true;

  struct Treatment {
    const char* label;
    const std::vector<std::vector<ops::Tuple>>* input;
    const ShardedRunOptions* opts;
  };
  const Treatment treatments[] = {
      {"balanced_static", &balanced, &kStatic},
      {"skewed_static", &skewed, &kStatic},
      {"skewed_rebalance", &skewed, &rebalance},
      {"skewed_rebalance_steal", &skewed, &rebalance_steal},
  };

  for (const std::size_t shards : {2u, 4u}) {
    // Per batch set, every configuration must route the same tuple count.
    std::uint64_t balanced_routed = 0;
    std::uint64_t skewed_routed = 0;
    for (const Treatment& t : treatments) {
      const RunResult r = RunSharded(*t.input, queries, shards, *t.opts);
      const std::string label = "BM_SkewedSweep/shards:" +
                                std::to_string(shards) + "/" + t.label;
      std::printf("%-40s %14.0f %12llu %9llu %8llu\n", label.c_str(),
                  r.tuples_per_sec, static_cast<unsigned long long>(r.routed),
                  static_cast<unsigned long long>(r.migrated),
                  static_cast<unsigned long long>(r.steals));
      AddJsonEntry(label, batches, r.tuples_per_sec);
      std::uint64_t& expected =
          t.input == &balanced ? balanced_routed : skewed_routed;
      if (expected == 0) {
        expected = r.routed;
      } else if (r.routed != expected) {
        std::fprintf(stderr,
                     "FAIL: %s routed %llu tuples, expected %llu (rebalancing "
                     "or stealing changed the delivered stream)\n",
                     label.c_str(), static_cast<unsigned long long>(r.routed),
                     static_cast<unsigned long long>(expected));
        return false;
      }
    }
    std::printf("\n");
  }
  return true;
}

// ---------------------------------------------------------------- engine step

/// Deterministic crowd world for the engine-loop benchmark (mirrors the
/// engine tests' two-attribute setup at benchmark scale).
sensing::CrowdWorld MakeEngineWorld(std::size_t sensors) {
  sensing::PopulationConfig pc;
  pc.region = geom::Rect(0, 0, 6, 6);
  pc.num_sensors = sensors;
  pc.responsiveness_sigma = 0.2;
  Rng rng(5);
  auto population = sensing::SensorPopulation::Make(pc, &rng).MoveValue();
  auto world =
      sensing::CrowdWorld::Make(std::move(population), rng.Fork()).MoveValue();
  sensing::TemperatureField::Params tp;
  const sensing::ResponseBehavior device =
      sensing::ResponseModel::DeviceBehavior();
  if (!world
           .RegisterAttribute("temp", false,
                              sensing::TemperatureField::Make(tp).MoveValue(),
                              device)
           .ok()) {
    std::fprintf(stderr, "RegisterAttribute failed\n");
    std::exit(1);
  }
  sensing::RainCell cell;
  cell.x0 = 3.0;
  cell.y0 = 3.0;
  cell.radius = 2.0;
  sensing::ResponseBehavior human = sensing::ResponseModel::HumanBehavior();
  human.base_logit = 2.0;
  human.delay_mu = -1.0;
  if (!world
           .RegisterAttribute("rain", true,
                              sensing::RainField::Make({cell}).MoveValue(),
                              human)
           .ok()) {
    std::fprintf(stderr, "RegisterAttribute failed\n");
    std::exit(1);
  }
  return world;
}

/// The engine's Step phases (craqr.engine.phase.*_ns), in order.
const char* const kEnginePhases[] = {"world", "handler", "drain", "dispatch"};

/// Running sums, in ns, of the engine's phase histograms.
std::vector<std::uint64_t> ReadPhaseSums() {
  std::vector<std::uint64_t> sums;
  for (const char* phase : kEnginePhases) {
    sums.push_back(
        obs::GetHistogram(std::string("craqr.engine.phase.") + phase + "_ns")
            ->Snapshot()
            .sum);
  }
  return sums;
}

struct EngineRunResult {
  double steps_per_sec = 0.0;
  std::uint64_t routed = 0;
  /// Summed wall time of the timed Step() calls.
  std::uint64_t step_ns = 0;
  /// Each phase's recorded time over the timed steps.
  std::vector<std::uint64_t> phase_ns;
};

/// Full engine loop at `num_shards` shards and the given pipeline depth:
/// warms up, times `steps` Step() calls one by one, and reports steps/sec,
/// routed tuples (the latter must be depth-independent) and the phase
/// times recorded over the timed steps.
EngineRunResult RunEngineSteps(std::size_t num_shards,
                               std::size_t pipeline_depth, std::size_t steps,
                               std::size_t sensors) {
  craqr::engine::EngineConfig config;
  config.grid_h = 9;
  config.step_dt = 1.0;
  config.fabric.flatten_batch_size = 64;
  config.budget.initial = 24.0;
  config.budget.delta = 8.0;
  config.budget.max = 256.0;
  config.num_shards = num_shards;
  config.pipeline_depth = pipeline_depth;
  auto engine =
      craqr::engine::CraqrEngine::Make(MakeEngineWorld(sensors), config)
          .MoveValue();
  const char* queries[] = {
      "ACQUIRE temp FROM REGION(0, 0, 6, 6) RATE 1.5 PER KM2 PER MIN",
      "ACQUIRE temp FROM REGION(0, 0, 4, 4) RATE 0.5 PER KM2 PER MIN",
      "ACQUIRE rain FROM REGION(1, 1, 6, 6) RATE 2 PER KM2 PER MIN",
      "ACQUIRE rain FROM REGION(0, 0, 3, 3) RATE 0.75 PER KM2 PER MIN",
  };
  for (const char* q : queries) {
    if (!engine->SubmitText(q).ok()) {
      std::fprintf(stderr, "SubmitText failed\n");
      std::exit(1);
    }
  }
  if (!engine->RunFor(10.0).ok()) {  // warm-up: budgets settle, F buffers fill
    std::fprintf(stderr, "warm-up RunFor failed\n");
    std::exit(1);
  }
  EngineRunResult result;
  const std::vector<std::uint64_t> phases_before = ReadPhaseSums();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < steps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!engine->Step().ok()) {
      std::fprintf(stderr, "timed Step failed\n");
      std::exit(1);
    }
    result.step_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  const auto end = std::chrono::steady_clock::now();
  const std::vector<std::uint64_t> phases_after = ReadPhaseSums();
  for (std::size_t p = 0; p < phases_after.size(); ++p) {
    result.phase_ns.push_back(phases_after[p] - phases_before[p]);
  }
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  result.steps_per_sec =
      seconds > 0.0 ? static_cast<double>(steps) / seconds : 0.0;
  result.routed = engine->TuplesRouted();
  return result;
}

/// Smallest share of the summed Step wall time the phase timers must
/// cover; below it, untimed work hides in a step.
constexpr double kMinPhaseCoverage = 0.9;

/// Prints each phase's share of the summed Step wall time; false when the
/// phases cover less than kMinPhaseCoverage of it. Nothing to check with
/// observability off, since the phases are then not recorded.
bool ReportPhaseShares(const char* label, const EngineRunResult& run) {
  if (!obs::IsEnabled()) {
    std::printf("%-28s phases not recorded (observability off)\n", label);
    return true;
  }
  const double total = static_cast<double>(run.step_ns);
  double covered = 0.0;
  std::printf("%-28s", label);
  for (std::size_t p = 0; p < run.phase_ns.size(); ++p) {
    const double share =
        total > 0.0 ? static_cast<double>(run.phase_ns[p]) / total : 0.0;
    covered += share;
    std::printf(" %s %5.1f%%", kEnginePhases[p], 100.0 * share);
  }
  std::printf("  covered %5.1f%%\n", 100.0 * covered);
  if (covered < kMinPhaseCoverage) {
    std::fprintf(stderr,
                 "FAIL: %s engine phases cover %.1f%% of the Step wall time "
                 "(< %.0f%%)\n",
                 label, 100.0 * covered, 100.0 * kMinPhaseCoverage);
    return false;
  }
  return true;
}

/// Prints BM_EngineStepSync / BM_EngineStepPipelined and their ratio, then
/// BM_EngineStepOneShard. The two depths follow different feedback
/// contracts (depth 2 applies budget feedback one step later), so their
/// routed counts are close but not identical; a gross mismatch still
/// indicates a routing bug. At equal depth the shard count must not change
/// what is routed at all.
bool RunEngineStepBench(std::size_t steps, std::size_t sensors) {
  const std::size_t shards = 4;
  std::printf("\nengine step loop (%zu shards, %zu sensors, %zu steps)\n",
              shards, sensors, steps);
  std::printf("%-28s %14s %12s %10s\n", "benchmark", "steps/sec", "routed",
              "ratio");
  const EngineRunResult sync = RunEngineSteps(shards, 1, steps, sensors);
  std::printf("%-28s %14.1f %12llu %9s\n", "BM_EngineStepSync",
              sync.steps_per_sec, static_cast<unsigned long long>(sync.routed),
              "-");
  AddJsonEntry("BM_EngineStepSync", steps, sync.steps_per_sec);
  const EngineRunResult pipelined = RunEngineSteps(shards, 2, steps, sensors);
  AddJsonEntry("BM_EngineStepPipelined", steps, pipelined.steps_per_sec);
  const double ratio = sync.steps_per_sec > 0.0
                           ? pipelined.steps_per_sec / sync.steps_per_sec
                           : 0.0;
  std::printf("%-28s %14.1f %12llu %9.2fx\n", "BM_EngineStepPipelined",
              pipelined.steps_per_sec,
              static_cast<unsigned long long>(pipelined.routed), ratio);
  const EngineRunResult one_shard = RunEngineSteps(1, 2, steps, sensors);
  AddJsonEntry("BM_EngineStepOneShard", steps, one_shard.steps_per_sec);
  std::printf("%-28s %14.1f %12llu %9s\n", "BM_EngineStepOneShard",
              one_shard.steps_per_sec,
              static_cast<unsigned long long>(one_shard.routed), "-");
  std::printf("share of summed Step wall time per phase:\n");
  const bool sync_covered = ReportPhaseShares("BM_EngineStepSync", sync);
  const bool pipelined_covered =
      ReportPhaseShares("BM_EngineStepPipelined", pipelined);
  const bool one_shard_covered =
      ReportPhaseShares("BM_EngineStepOneShard", one_shard);
  if (!sync_covered || !pipelined_covered || !one_shard_covered) {
    return false;
  }
  if (one_shard.routed != pipelined.routed) {
    std::fprintf(stderr,
                 "FAIL: one-shard engine routed %llu tuples, 4-shard engine "
                 "at the same depth routed %llu\n",
                 static_cast<unsigned long long>(one_shard.routed),
                 static_cast<unsigned long long>(pipelined.routed));
    return false;
  }
  const double low = static_cast<double>(sync.routed) * 0.5;
  const double high = static_cast<double>(sync.routed) * 2.0;
  if (static_cast<double>(pipelined.routed) < low ||
      static_cast<double>(pipelined.routed) > high) {
    std::fprintf(stderr,
                 "FAIL: pipelined engine routed %llu tuples, sync routed "
                 "%llu (beyond contract-lag tolerance)\n",
                 static_cast<unsigned long long>(pipelined.routed),
                 static_cast<unsigned long long>(sync.routed));
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // --json <path>: additionally emit the results in the BENCH_*.json
  // perf-trajectory format (shared parser: flag accepted anywhere).
  const std::string json_path = benchjson::ExtractJsonPath(&argc, argv);
  // --metrics-json <path>: dump the obs registry as JSON on success.
  const std::string metrics_path =
      benchjson::ExtractFlagValue(&argc, argv, "--metrics-json");
  const auto dump_metrics = [&metrics_path]() {
    if (metrics_path.empty()) {
      return true;
    }
    const craqr::Status status =
        craqr::obs::MetricsExporter::WriteJsonSnapshot(metrics_path);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot write metrics snapshot: %s\n",
                   status.ToString().c_str());
      return false;
    }
    return true;
  };
  // --skew <frac>: run the load-imbalance sweep instead of the scaling
  // sweep (frac in (0,1]: share of traffic aimed at the hot corner).
  const std::string skew_text =
      benchjson::ExtractFlagValue(&argc, argv, "--skew");
  double skew_frac = 0.0;
  if (!skew_text.empty()) {
    try {
      skew_frac = std::stod(skew_text);
    } catch (const std::exception&) {
      skew_frac = -1.0;
    }
    if (skew_frac <= 0.0 || skew_frac > 1.0) {
      std::fprintf(stderr, "invalid --skew '%s' (expected 0 < frac <= 1)\n",
                   skew_text.c_str());
      return 2;
    }
  }
  // --engine-step: run only the engine-loop benchmarks (the CI
  // release-bench filter for BM_EngineStepSync/Pipelined/OneShard).
  bool engine_step_only = false;
  if (argc > 1 && std::string(argv[1]) == "--engine-step") {
    engine_step_only = true;
    --argc;
    ++argv;
  }
  // std::stoul alone accepts "-5" (wrapping to a huge unsigned), so args
  // must be all-digits, and are capped to keep allocations sane.
  constexpr std::size_t kMaxArg = 1u << 24;
  const auto parse_arg = [&](int index, std::size_t fallback) {
    if (argc <= index) {
      return fallback;
    }
    const std::string text = argv[index];
    std::size_t value = 0;
    try {
      if (text.empty() ||
          text.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument(text);
      }
      value = static_cast<std::size_t>(std::stoul(text));
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "invalid argument '%s' (expected 0..%zu)\n"
                   "usage: %s [batches] [batch_size] [queries]\n",
                   argv[index], kMaxArg, argv[0]);
      std::exit(2);
    }
    return std::min(value, kMaxArg);
  };
  if (engine_step_only) {
    const std::size_t steps = parse_arg(1, 120);
    const std::size_t sensors = parse_arg(2, 1200);
    std::printf("engine-step overlap benchmark\n");
    std::printf("  hardware threads: %u\n",
                std::thread::hardware_concurrency());
    const bool ok = RunEngineStepBench(steps, sensors);
    if (ok && !json_path.empty()) {
      benchjson::WriteEntries(json_path, g_json_entries);
    }
    if (ok && !dump_metrics()) {
      return 1;
    }
    return ok ? 0 : 1;
  }

  const std::size_t batches = parse_arg(1, 150);
  const std::size_t batch_size = parse_arg(2, 512);
  const std::size_t queries = parse_arg(3, 24);

  if (skew_frac > 0.0) {
    const bool ok = RunSkewSweep(skew_frac, batches, batch_size, queries);
    if (ok && !json_path.empty()) {
      benchjson::WriteEntries(json_path, g_json_entries);
    }
    if (ok && !dump_metrics()) {
      return 1;
    }
    return ok ? 0 : 1;
  }

  std::printf("sharded-runtime throughput sweep\n");
  std::printf("  workload: %zu queries, %zu batches x %zu tuples\n", queries,
              batches, batch_size);
  std::printf("  hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
  std::printf("%-28s %14s %12s %10s\n", "configuration", "tuples/sec",
              "routed", "speedup");

  const auto all_batches = MakeBatches(batches, batch_size);

  const RunResult base = RunSingleThreaded(all_batches, queries);
  std::printf("%-28s %14.0f %12llu %9s\n", "fabricator (in-process)",
              base.tuples_per_sec,
              static_cast<unsigned long long>(base.routed), "-");
  AddJsonEntry("BM_FabricatorInProcess", batches, base.tuples_per_sec);

  double one_shard = 0.0;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const RunResult r = RunSharded(all_batches, queries, shards);
    if (shards == 1) {
      one_shard = r.tuples_per_sec;
    }
    const std::string label = "sharded, " + std::to_string(shards) +
                              (shards == 1 ? " shard" : " shards");
    std::printf("%-28s %14.0f %12llu %9.2fx\n", label.c_str(),
                r.tuples_per_sec, static_cast<unsigned long long>(r.routed),
                one_shard > 0.0 ? r.tuples_per_sec / one_shard : 0.0);
    AddJsonEntry("BM_ShardedSweep/shards:" + std::to_string(shards), batches,
                 r.tuples_per_sec);
    if (r.routed != base.routed) {
      std::fprintf(stderr,
                   "FAIL: sharded routed %llu tuples, baseline routed %llu\n",
                   static_cast<unsigned long long>(r.routed),
                   static_cast<unsigned long long>(base.routed));
      return 1;
    }
  }

  const bool ok = RunEngineStepBench(60, 800);
  if (ok && !json_path.empty()) {
    benchjson::WriteEntries(json_path, g_json_entries);
  }
  if (ok && !dump_metrics()) {
    return 1;
  }
  return ok ? 0 : 1;
}
