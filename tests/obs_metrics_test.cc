#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/engine.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/tuple.h"
#include "sensing/world.h"

/// \file obs_metrics_test.cc
/// \brief Observability subsystem: registry primitives (counters, gauges,
/// log histograms, banks), concurrent-writer exactness, snapshot export
/// (JSON + Prometheus), trace-ring semantics and Chrome export, the
/// CRAQR_LOG_EVERY_N counter, the metrics exporter thread — and the one
/// property everything else rests on: toggling observability does not
/// change a single delivered byte.

namespace craqr {
namespace {

/// Restores the runtime observability switch on scope exit, so a failing
/// test cannot leak a disabled registry into later tests.
class ScopedObsEnabled {
 public:
  explicit ScopedObsEnabled(bool enabled) : saved_(obs::IsEnabled()) {
    obs::SetEnabled(enabled);
  }
  ~ScopedObsEnabled() { obs::SetEnabled(saved_); }

 private:
  bool saved_;
};

// ---------------------------------------------------------------------------
// LogHistogram bucket geometry

TEST(LogHistogramTest, BucketBoundaries) {
  using H = obs::LogHistogram;
  EXPECT_EQ(H::BucketFor(0), 0u);
  EXPECT_EQ(H::BucketFor(1), 1u);
  EXPECT_EQ(H::BucketFor(2), 2u);
  EXPECT_EQ(H::BucketFor(3), 2u);
  EXPECT_EQ(H::BucketFor(4), 3u);
  EXPECT_EQ(H::BucketFor(7), 3u);
  EXPECT_EQ(H::BucketFor(8), 4u);
  // 2^k lands in bucket k+1 (the bucket holding [2^k, 2^(k+1))).
  for (std::size_t k = 0; k < 63; ++k) {
    EXPECT_EQ(H::BucketFor(static_cast<std::uint64_t>(1) << k), k + 1);
    EXPECT_EQ(H::BucketFor((static_cast<std::uint64_t>(1) << (k + 1)) - 1),
              k + 1);
  }
  EXPECT_EQ(H::BucketFor(~static_cast<std::uint64_t>(0)), 64u);

  EXPECT_EQ(H::BucketUpperBound(0), 0u);
  EXPECT_EQ(H::BucketUpperBound(1), 1u);
  EXPECT_EQ(H::BucketUpperBound(4), 15u);
  EXPECT_EQ(H::BucketUpperBound(64), ~static_cast<std::uint64_t>(0));
  // Every value sits inside its own bucket's range.
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 100ull, 65536ull,
                                (1ull << 40) + 17, ~0ull}) {
    const std::size_t b = H::BucketFor(v);
    EXPECT_LE(v, H::BucketUpperBound(b));
    if (b > 0) {
      EXPECT_GT(v, H::BucketUpperBound(b - 1));
    }
  }
}

TEST(LogHistogramTest, SnapshotStatistics) {
  obs::LogHistogram h;
  // 10 values of 100 (bucket 7: [64,128)), 5 of 1000, 1 of 100000.
  for (int i = 0; i < 10; ++i) h.Record(100);
  for (int i = 0; i < 5; ++i) h.Record(1000);
  h.Record(100000);
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 16u);
  EXPECT_EQ(snap.sum, 10u * 100 + 5u * 1000 + 100000u);
  EXPECT_EQ(snap.max, 100000u);
  EXPECT_DOUBLE_EQ(snap.Mean(), static_cast<double>(snap.sum) / 16.0);
  EXPECT_EQ(snap.buckets[obs::LogHistogram::BucketFor(100)], 10u);
  EXPECT_EQ(snap.buckets[obs::LogHistogram::BucketFor(1000)], 5u);
  EXPECT_EQ(snap.buckets[obs::LogHistogram::BucketFor(100000)], 1u);
  // p50's rank-8 falls in the 100s bucket: upper bound 127.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 127.0);
  // p99 and p100 clamp to the exact max, not the rank bucket's 2^k bound.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 100000.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 100000.0);
  // Empty histogram: everything zero.
  const obs::HistogramSnapshot empty = obs::LogHistogram().Snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);

  const RunningStats rs = snap.ToRunningStats();
  EXPECT_EQ(rs.count(), 16u);
  // Bucket-midpoint approximation: mean within a factor of 2.
  EXPECT_GT(rs.Mean(), snap.Mean() / 2.0);
  EXPECT_LT(rs.Mean(), snap.Mean() * 2.0);
}

TEST(RunningStatsTest, AddWeightedMatchesRepeatedAdd) {
  RunningStats repeated;
  RunningStats weighted;
  repeated.Add(3.0);
  repeated.Add(3.0);
  repeated.Add(3.0);
  repeated.Add(10.0);
  weighted.AddWeighted(3.0, 3);
  weighted.AddWeighted(10.0, 1);
  weighted.AddWeighted(42.0, 0);  // no-op
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_DOUBLE_EQ(weighted.Mean(), repeated.Mean());
  EXPECT_NEAR(weighted.Variance(), repeated.Variance(), 1e-12);
  EXPECT_DOUBLE_EQ(weighted.Min(), repeated.Min());
  EXPECT_DOUBLE_EQ(weighted.Max(), repeated.Max());
}

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, GetOrCreateReturnsStablePointers) {
  obs::Counter* c1 = obs::GetCounter("test.registry.counter");
  obs::Counter* c2 = obs::GetCounter("test.registry.counter");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, obs::GetCounter("test.registry.counter2"));
  c1->Increment();
  c1->Add(4);
  EXPECT_EQ(c2->value(), 5u);

  obs::Gauge* g = obs::GetGauge("test.registry.gauge");
  g->Set(-7);
  g->Add(3);
  EXPECT_EQ(obs::GetGauge("test.registry.gauge")->value(), -4);

  EXPECT_EQ(obs::GetHistogram("test.registry.hist"),
            obs::GetHistogram("test.registry.hist"));
}

TEST(RegistryTest, CounterBankBoundsAndTopK) {
  obs::CounterBank* bank = obs::GetCounterBank("test.registry.bank", 8);
  ASSERT_NE(bank, nullptr);
  EXPECT_EQ(bank->size(), 8u);
  bank->Add(0, 5);
  bank->Add(3, 20);
  bank->Add(7, 20);
  bank->Add(8, 99);    // out of range: ignored (the router's sentinel)
  bank->Add(100, 99);  // far out of range: ignored
  EXPECT_EQ(bank->Total(), 45u);
  EXPECT_EQ(bank->value(3), 20u);
  EXPECT_EQ(bank->value(8), 0u);
  const auto top = bank->TopK(2);
  ASSERT_EQ(top.size(), 2u);
  // Ties break toward the lower index.
  EXPECT_EQ(top[0].first, 3u);
  EXPECT_EQ(top[0].second, 20u);
  EXPECT_EQ(top[1].first, 7u);
  // Same name, same size: same bank. Larger size: replaced.
  EXPECT_EQ(obs::GetCounterBank("test.registry.bank", 8), bank);
  obs::CounterBank* grown = obs::GetCounterBank("test.registry.bank", 16);
  EXPECT_NE(grown, bank);
  EXPECT_EQ(grown->size(), 16u);
  // The old bank's storage stays valid (cached pointers keep writing).
  bank->Add(0, 1);
  EXPECT_EQ(bank->value(0), 6u);
}

TEST(RegistryTest, ConcurrentWritersAreExact) {
  obs::Counter* counter = obs::GetCounter("test.concurrent.counter");
  obs::Counter* adder = obs::GetCounter("test.concurrent.adder");
  obs::LogHistogram* hist = obs::GetHistogram("test.concurrent.hist");
  obs::CounterBank* bank = obs::GetCounterBank("test.concurrent.bank", 4);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  const std::uint64_t base_count = counter->value();
  const std::uint64_t base_added = adder->value();
  const obs::HistogramSnapshot base_hist = hist->Snapshot();
  const std::uint64_t base_bank = bank->Total();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([=]() {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter->Increment();
        adder->Add(t + 1);
        // Thread t records the values t, t + 4, ..., so the overall max
        // comes from the last thread's stripe alone.
        hist->Record(i * kThreads + t);
        bank->Add(i & 3, 1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const std::uint64_t expected = kThreads * kPerThread;
  EXPECT_EQ(counter->value() - base_count, expected);
  // sum over t of (t + 1) * kPerThread.
  EXPECT_EQ(adder->value() - base_added,
            kPerThread * kThreads * (kThreads + 1) / 2);
  const obs::HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count - base_hist.count, expected);
  // Every value 0 .. expected - 1 recorded once.
  EXPECT_EQ(snap.sum - base_hist.sum, expected * (expected - 1) / 2);
  EXPECT_EQ(snap.max, std::max(base_hist.max, expected - 1));
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t n : snap.buckets) {
    bucket_total += n;
  }
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_EQ(bank->Total() - base_bank, expected);
}

TEST(RegistryTest, LiveThreadsOwnDistinctStripesAndHandThemBack) {
  obs::Counter* counter = obs::GetCounter("test.stripes.counter");
  counter->Increment();  // this thread holds its slot from here on
  const std::size_t base = obs::StripesInUse();
  ASSERT_GE(base, 1u);
  // Threads alive at the same time, while slots are free, each lease a
  // slot of their own.
  const std::size_t num_threads =
      std::min<std::size_t>(3, obs::kStripes - base);
  std::vector<std::size_t> stripes(num_threads);
  std::atomic<std::size_t> written{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t]() {
      counter->Increment();
      stripes[t] = obs::internal::StripeIndex();
      written.fetch_add(1);
      while (!release.load()) {
        std::this_thread::yield();
      }
    });
  }
  while (written.load() < num_threads) {
    std::this_thread::yield();
  }
  EXPECT_EQ(obs::StripesInUse(), base + num_threads);
  release.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  std::sort(stripes.begin(), stripes.end());
  EXPECT_EQ(std::unique(stripes.begin(), stripes.end()), stripes.end());
  EXPECT_EQ(std::count(stripes.begin(), stripes.end(),
                       obs::internal::StripeIndex()),
            0);
  // Exited threads handed their slots back; their counts stay.
  EXPECT_EQ(obs::StripesInUse(), base);
  EXPECT_GE(counter->value(), 1u + num_threads);
  // A later thread reuses a returned slot.
  std::size_t reused = obs::kStripes;
  std::thread([&]() {
    counter->Increment();
    reused = obs::internal::StripeIndex();
  }).join();
  EXPECT_TRUE(std::binary_search(stripes.begin(), stripes.end(), reused) ||
              num_threads == 0);
  EXPECT_EQ(obs::StripesInUse(), base);

  // More live writers than slots: the surplus threads share one stripe,
  // and the totals stay exact.
  obs::LogHistogram* hist = obs::GetHistogram("test.stripes.hist");
  const std::uint64_t count0 = counter->value();
  const std::uint64_t hist0 = hist->Snapshot().count;
  constexpr std::size_t kCrowd = obs::kStripes + 3;
  constexpr std::uint64_t kPerThread = 5000;
  std::atomic<std::size_t> started{0};
  threads.clear();
  for (std::size_t t = 0; t < kCrowd; ++t) {
    threads.emplace_back([&]() {
      counter->Increment();  // lease (or share) before anyone exits
      started.fetch_add(1);
      while (started.load() < kCrowd) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 1; i < kPerThread; ++i) {
        counter->Increment();
        hist->Record(i);
      }
      hist->Record(0);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->value() - count0, kCrowd * kPerThread);
  EXPECT_EQ(hist->Snapshot().count - hist0, kCrowd * kPerThread);
  EXPECT_EQ(hist->Snapshot().max, kPerThread - 1);
  EXPECT_EQ(obs::StripesInUse(), base);
}

// ---------------------------------------------------------------------------
// Export formats

TEST(SnapshotTest, JsonContainsRegisteredMetrics) {
  obs::GetCounter("test.snapshot.counter")->Add(42);
  obs::GetGauge("test.snapshot.gauge")->Set(-3);
  obs::GetHistogram("test.snapshot.hist")->Record(1000);
  obs::GetCounterBank("test.snapshot.bank", 4)->Add(2, 9);
  const std::string json = obs::SnapshotJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.counter\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.gauge\": -3"), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.bank\""), std::string::npos);
  EXPECT_NE(json.find("[2, 9]"), std::string::npos);
  // Structurally sane: balanced braces/brackets, object first and last.
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  for (const char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    EXPECT_GE(braces, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(json.front(), '{');
}

TEST(SnapshotTest, PrometheusTextFormat) {
  obs::GetCounter("test.prom.counter")->Add(7);
  obs::GetHistogram("test.prom.hist")->Record(100);
  const std::string text = obs::SnapshotPrometheus();
  EXPECT_NE(text.find("# TYPE test_prom_counter counter"), std::string::npos);
  EXPECT_NE(text.find("test_prom_counter 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_hist histogram"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_count"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_sum"), std::string::npos);
}

TEST(ExporterTest, PeriodicSnapshotsAndFinalFlush) {
  const std::string json_path = testing::TempDir() + "/obs_exporter.json";
  const std::string prom_path = testing::TempDir() + "/obs_exporter.prom";
  obs::GetCounter("test.exporter.counter")->Add(11);
  obs::ExporterOptions options;
  options.json_path = json_path;
  options.prometheus_path = prom_path;
  options.interval_seconds = 0.01;
  auto exporter = obs::MetricsExporter::Start(options);
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (*exporter)->Stop();
  (*exporter)->Stop();  // idempotent
  EXPECT_GE((*exporter)->snapshots_written(), 1u);
  std::ifstream json_in(json_path);
  ASSERT_TRUE(json_in.good());
  std::stringstream json_body;
  json_body << json_in.rdbuf();
  EXPECT_NE(json_body.str().find("\"test.exporter.counter\": 11"),
            std::string::npos);
  std::ifstream prom_in(prom_path);
  ASSERT_TRUE(prom_in.good());
  std::stringstream prom_body;
  prom_body << prom_in.rdbuf();
  EXPECT_NE(prom_body.str().find("test_exporter_counter 11"),
            std::string::npos);
  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());

  // No output path at all is a configuration error.
  EXPECT_FALSE(obs::MetricsExporter::Start(obs::ExporterOptions()).ok());
}

// ---------------------------------------------------------------------------
// Trace rings

TEST(TraceRingTest, WraparoundKeepsNewestOldestFirst) {
  ScopedObsEnabled on(true);
  obs::TraceRing ring("test.ring", 4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ring.Record("span", i, i * 100, i * 100 + 50, i);
  }
  EXPECT_EQ(ring.recorded(), 6u);
  const auto events = ring.SnapshotOrdered();
  ASSERT_EQ(events.size(), 4u);
  // Events 1 and 2 were overwritten; 3..6 remain, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].epoch, i + 3);
    EXPECT_EQ(events[i].start_ns, (i + 3) * 100);
  }
}

TEST(TraceRingTest, DisabledSwitchAndZeroCapacity) {
  {
    ScopedObsEnabled off(false);
    obs::TraceRing ring("test.ring.off", 4);
    ring.Record("span", 1, 0, 1, 0);
    EXPECT_EQ(ring.recorded(), 0u);
  }
  EXPECT_EQ(obs::Tracer::Global().CreateRing("test.ring.zero", 0), nullptr);
}

TEST(TracerTest, ChromeTraceJsonShape) {
  ScopedObsEnabled on(true);
  obs::TraceRing* ring =
      obs::Tracer::Global().CreateRing("test.tracer.ring", 8);
  ASSERT_NE(ring, nullptr);
  ring->Record("phasename", 3, 2000, 5000, 17);
  const std::string json = obs::Tracer::Global().ChromeTraceJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("test.tracer.ring"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"phasename\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 3"), std::string::npos);  // (5000-2000)/1000us

  const std::string path = testing::TempDir() + "/obs_trace.json";
  ASSERT_TRUE(obs::Tracer::Global().DumpChromeTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// CRAQR_LOG_EVERY_N

TEST(LogEveryNTest, CounterGating) {
  std::atomic<std::uint64_t> counter{0};
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (internal::ShouldLogEveryN(counter, 3)) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 4);  // i = 0, 3, 6, 9
  std::atomic<std::uint64_t> always{0};
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(internal::ShouldLogEveryN(always, 1));
    EXPECT_TRUE(internal::ShouldLogEveryN(always, 0));
  }
}

// ---------------------------------------------------------------------------
// The determinism pin: observability must not change delivered bytes

std::uint64_t FnvFold(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t StreamDigest(const std::vector<ops::Tuple>& tuples) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& tuple : tuples) {
    h = FnvFold(h, &tuple.id, sizeof(tuple.id));
    h = FnvFold(h, &tuple.sensor_id, sizeof(tuple.sensor_id));
    h = FnvFold(h, &tuple.attribute, sizeof(tuple.attribute));
    h = FnvFold(h, &tuple.point.t, sizeof(tuple.point.t));
    h = FnvFold(h, &tuple.point.x, sizeof(tuple.point.x));
    h = FnvFold(h, &tuple.point.y, sizeof(tuple.point.y));
    const auto kind = static_cast<unsigned char>(tuple.value.kind());
    h = FnvFold(h, &kind, sizeof(kind));
    const std::string rendered = ops::PayloadToString(tuple.value);
    h = FnvFold(h, rendered.data(), rendered.size());
  }
  return h;
}

sensing::CrowdWorld MakeObsWorld(std::size_t sensors) {
  sensing::PopulationConfig pc;
  pc.region = geom::Rect(0, 0, 6, 6);
  pc.num_sensors = sensors;
  pc.responsiveness_sigma = 0.2;
  Rng rng(5);
  auto population = sensing::SensorPopulation::Make(pc, &rng).MoveValue();
  auto world =
      sensing::CrowdWorld::Make(std::move(population), rng.Fork()).MoveValue();
  sensing::TemperatureField::Params tp;
  EXPECT_TRUE(world
                  .RegisterAttribute(
                      "temp", false,
                      sensing::TemperatureField::Make(tp).MoveValue(),
                      sensing::ResponseModel::DeviceBehavior())
                  .ok());
  sensing::RainCell cell;
  cell.x0 = 3.0;
  cell.y0 = 3.0;
  cell.radius = 2.0;
  sensing::ResponseBehavior human = sensing::ResponseModel::HumanBehavior();
  human.base_logit = 2.0;
  human.delay_mu = -1.0;
  EXPECT_TRUE(world
                  .RegisterAttribute(
                      "rain", true,
                      sensing::RainField::Make({cell}).MoveValue(), human)
                  .ok());
  return world;
}

/// One short closed-loop run (budget feedback engaged, tracing on);
/// returns the rain stream digest.
std::uint64_t RunObsWorkload(std::size_t num_shards,
                             std::size_t pipeline_depth) {
  engine::EngineConfig config;
  config.grid_h = 9;
  config.step_dt = 1.0;
  config.fabric.flatten_batch_size = 32;
  config.budget.initial = 24.0;
  config.budget.delta = 8.0;
  config.budget.max = 32.0;
  config.enable_incentives = true;
  config.incentive.max = 8.0;
  config.num_shards = num_shards;
  config.pipeline_depth = pipeline_depth;
  config.trace_capacity = 64;  // tracing on: must also be byte-neutral
  auto engine =
      engine::CraqrEngine::Make(MakeObsWorld(60), config).MoveValue();
  const auto rain = engine->SubmitText(
      "ACQUIRE rain FROM REGION(0, 0, 6, 6) RATE 10 PER KM2 PER MIN");
  EXPECT_TRUE(rain.ok());
  EXPECT_TRUE(engine->RunFor(10.0).ok());
  EXPECT_GT(rain->sink->total_received(), 0u);
  return StreamDigest(rain->sink->tuples());
}

TEST(ObsDeterminismTest, DigestUnchangedByObservabilityToggle) {
  for (const std::size_t depth : {1u, 2u}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    std::uint64_t on_digest[2];
    std::uint64_t off_digest[2];
    int i = 0;
    for (const std::size_t shards : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      {
        ScopedObsEnabled on(true);
        on_digest[i] = RunObsWorkload(shards, depth);
      }
      {
        ScopedObsEnabled off(false);
        off_digest[i] = RunObsWorkload(shards, depth);
      }
      EXPECT_EQ(on_digest[i], off_digest[i])
          << "observability toggle changed the delivered stream";
      ++i;
    }
    // And the usual cross-shard pin still holds with tracing enabled.
    EXPECT_EQ(on_digest[0], on_digest[1]);
  }
}

TEST(ObsInstrumentationTest, EngineRunPopulatesRegistryAndTrace) {
  ScopedObsEnabled on(true);
  const std::uint64_t steps_before =
      obs::GetCounter("craqr.engine.steps")->value();
  const std::uint64_t thin_before =
      obs::GetCounter("craqr.ops.T.evaluations")->value();
  (void)RunObsWorkload(2, 2);
  EXPECT_GT(obs::GetCounter("craqr.engine.steps")->value(), steps_before);
  // Thin operators sit in every PMAT chain; the run must have counted them.
  EXPECT_GT(obs::GetCounter("craqr.ops.T.evaluations")->value(), thin_before);
  // Engine phase histograms collected per step.
  EXPECT_GT(obs::GetHistogram("craqr.engine.phase.world_ns")
                ->Snapshot()
                .count,
            0u);
  // The per-cell routing bank exists for the 9-cell grid and saw tuples.
  obs::CounterBank* bank =
      obs::GetCounterBank("craqr.fabric.cell_routed.h9", 9);
  EXPECT_GT(bank->Total(), 0u);
  // The trace captured engine spans.
  const std::string trace = obs::Tracer::Global().ChromeTraceJson();
  EXPECT_NE(trace.find("\"name\": \"world\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"process\""), std::string::npos);
}

}  // namespace
}  // namespace craqr
