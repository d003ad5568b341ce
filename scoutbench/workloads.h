// The benchmark's workloads. Each builds its inputs from the run seed
// through the library's public calls only, measures, checks its outputs
// and returns the run's report. Every constant of a workload lives in its
// source file; the driver selects a workload by name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "bench_util.h"

namespace scoutbench {

// Every workload runs on runtime::make_executor(kExecutorWorkers) plus the
// driver thread.
constexpr std::size_t kExecutorWorkers = 2;

// Seed of every workload's generated fabric. The fabric is part of the
// workload; the run seed drives only the churn stream or the fault choice
// on it (fabrics from different seeds differ in size by about 30%, which
// swamped every comparison between runs).
constexpr std::uint64_t kFabricSeed = 1;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string out_dir;  // span files of traced runs land here
};

// The report of the workload named in `args`, or nullopt when no workload
// of that kind has the name.
[[nodiscard]] std::optional<Report> run_monitor(const RunArgs& args);
[[nodiscard]] std::optional<Report> run_scan(const RunArgs& args);

}  // namespace scoutbench
