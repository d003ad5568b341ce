// SCOUT benchmark driver binary; scoutbench/run.py builds and runs it. See
// scoutbench/README.md for the workloads, metrics and gates.
//
//   scout_bench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Prints a detail JSON line and, last, the result line; exits 1 when a
// correctness gate failed and 2 on a usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "scout_bench: %s\n", why.c_str());
  std::exit(2);
}

double to_double(std::string_view flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    usage("bad value for " + std::string(flag) + ": " + text);
  }
  return v;
}

std::size_t to_size(std::string_view flag, const char* text) {
  const double v = to_double(flag, text);
  if (v < 0 || v != static_cast<double>(static_cast<std::size_t>(v))) {
    usage("expected a whole number for " + std::string(flag));
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  scoutbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const char* v = argv[++i];
    if (flag == "--workload") args.workload = v;
    else if (flag == "--seed") args.seed = to_size(flag, v);
    else if (flag == "--seconds") args.seconds = to_double(flag, v);
    else if (flag == "--trace") args.traced = to_size(flag, v) != 0;
    else if (flag == "--out") args.out_dir = v;
    else usage("unknown flag " + std::string(flag));
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.seconds <= 0) usage("--seconds must be positive");
  if (args.traced && args.out_dir.empty()) usage("--trace 1 needs --out");

  try {
    const double steal0 = scoutbench::steal_ms();
    const auto t0 = scoutbench::WallClock::now();
    std::optional<scoutbench::Report> report = scoutbench::run_monitor(args);
    if (!report) report = scoutbench::run_scan(args);
    if (!report) usage("unknown workload " + args.workload);
    // The host's CPU steal over the run, as a share of all its CPU time:
    // what the wall-clock figures of this run lost to other tenants.
    const double host_cpu_ms =
        scoutbench::ms_since(t0) *
        static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
    report->note("steal_pct",
                 std::to_string((scoutbench::steal_ms() - steal0) * 100.0 /
                                host_cpu_ms));
    report->print(args.traced);
    return report->correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scout_bench: %s\n", e.what());
    return 1;
  }
}
