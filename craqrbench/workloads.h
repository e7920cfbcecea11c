#pragma once

#include <cstddef>

#include "harness.h"

/// \file workloads.h
/// \brief The benchmark's closed-loop workloads. Each builds its inputs
/// from the seed before any clock starts, sets up several times (setup_s
/// is the median), runs the timed loop for `seconds`, checks the delivered
/// output, and fills a Report with every end-to-end metric (untraced) or
/// every per-layer metric it can measure (traced).

namespace craqrbench {

/// Threads the workload runs, the caller included.
std::size_t FaninThreads();
std::size_t CityThreads();
std::size_t EngineLoopThreads();

void RunFanin(const RunOptions& options, Report* report);
void RunCity(const RunOptions& options, Report* report);
void RunEngineLoop(const RunOptions& options, Report* report);

}  // namespace craqrbench
