/// \file main.cc
/// \brief The CrAQR benchmark binary.
///
/// Usage: craqrbench --workload <name> --seed <n> --seconds <s>
///                   --trace <0|1> [--trace-out <path>]
///
/// Runs one closed-loop workload and prints a table of every metric (name,
/// unit, direction, value, samples, layer and target), then, as the last
/// line of standard output, one JSON object:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
/// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
/// run is split into an untraced and a traced half and the metrics are the
/// per-layer ones (the untraced half gives obs.trace_overhead), and the
/// trace rings plus the benchmark's own call spans are written as a Chrome
/// trace to --trace-out. Exits non-zero when any operation or output
/// check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "workloads.h"

namespace craqrbench {
namespace {

struct Workload {
  const char* name;
  std::size_t (*threads)();
  void (*run)(const RunOptions&, Report*);
};

const Workload kWorkloads[] = {
    {"fanin_3shard", FaninThreads, RunFanin},
    {"city_churn_1shard", CityThreads, RunCity},
    {"engine_loop", EngineLoopThreads, RunEngineLoop},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "craqrbench: %s\nusage: craqrbench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

/// Prints `v` with every significant digit a double carries.
std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace craqrbench

int main(int argc, char** argv) {
  using namespace craqrbench;  // NOLINT
  std::string workload_name;
  std::string trace_out;
  RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0.0 &&
                     options.seconds <= 3600.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.traced = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) {
    return Usage("flags take one value each");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    return Usage(("unknown workload '" + workload_name + "'").c_str());
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t threads = workload->threads();
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", workload->name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.traced ? 1 : 0);
  std::printf("hardware_concurrency %u  workload threads %zu\n", hw, threads);
  const std::size_t cpus = AllowedCpus();
  const bool pinned = PinCaller();
  std::printf("allowed cpus %zu  caller pinned %s\n", cpus,
              pinned ? "yes" : "no");
  if (hw == 0 || threads > hw || threads > cpus) {
    std::fprintf(stderr,
                 "craqrbench: %s needs %zu threads but the machine reports "
                 "%u hardware threads (%zu allowed); refusing to measure the "
                 "scheduler\n",
                 workload->name, threads, hw, cpus);
    return 3;
  }

  Report report;
  double untraced_tuples_per_s = 0.0;
  if (options.traced) {
    // The untraced half gives the tracing overhead; the traced half gives
    // every per-layer number.
    RunOptions half = options;
    half.seconds = options.seconds / 2.0;
    half.traced = false;
    Report untraced;
    workload->run(half, &untraced);
    untraced_tuples_per_s = untraced.Get("tuples_per_s");
    for (const std::string& e : untraced.errors()) {
      report.Fail("untraced half: " + e);
    }
    report.Attempt(untraced.attempted());
    half.traced = true;
    workload->run(half, &report);
    if (!trace_out.empty()) {
      const craqr::Status st =
          craqr::obs::Tracer::Global().DumpChromeTrace(trace_out);
      if (!st.ok()) {
        report.Fail("trace dump: " + st.ToString());
      }
    }
  } else {
    workload->run(options, &report);
  }

  const std::vector<MetricDef>& defs =
      options.traced ? PerLayerMetrics() : EndToEndMetrics();
  if (options.traced) {
    const double traced = report.Get("tuples_per_s");
    report.Set("obs.trace_overhead",
               untraced_tuples_per_s > 0.0
                   ? 1.0 - traced / untraced_tuples_per_s
                   : 0.0,
               2);
  }

  std::printf("%-28s %-12s %-7s %16s %9s  %-8s %s\n", "metric", "unit",
              "better", "value", "samples", "layer", "target");
  for (const MetricDef& d : defs) {
    const bool measured = report.Has(d.name);
    std::printf("%-28s %-12s %-7s %16.6g %9llu  %-8s %s%s\n", d.name, d.unit,
                d.better, report.Get(d.name),
                static_cast<unsigned long long>(report.Samples(d.name)),
                d.layer, d.target,
                !measured ? "  (not on this path)"
                          : d.gated ? "" : "  (not gated)");
  }
  const double failed_ratio =
      report.attempted() > 0 ? static_cast<double>(report.failed()) /
                                   static_cast<double>(report.attempted())
                             : 1.0;
  std::printf("failed_op_ratio %.6g (%llu of %llu operations)\n", failed_ratio,
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  for (const std::string& e : report.errors()) {
    std::printf("FAILED: %s\n", e.c_str());
  }

  const bool correct = report.errors().empty() && report.attempted() > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    if (!d.gated) {
      continue;
    }
    json += first ? "" : ", ";
    first = false;
    json += "\"" + std::string(d.name) + "\": {\"value\": " +
            Number(report.Get(d.name)) + ", \"unit\": \"" + d.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
