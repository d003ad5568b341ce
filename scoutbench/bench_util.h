// Shared plumbing for the SCOUT benchmark driver: wall timers, exact
// sample quantiles, the per-run report (metrics + correctness gates) and
// the span recorder the traced runs write.
//
// Everything here lives outside the program under test: spans are taken
// around calls into the library's public functions, never inside them.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/trace.h"

namespace scoutbench {

using WallClock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(WallClock::time_point from,
                                       WallClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

[[nodiscard]] inline double ms_since(WallClock::time_point from) {
  return ms_between(from, WallClock::now());
}

// Process CPU time of every thread, in ms. The guest kernel accounts it
// without the hypervisor's steal (paravirtual steal accounting), so on a
// shared host it follows the work done rather than the host's speed.
[[nodiscard]] double cpu_ms();

// CPU steal of the whole host so far (every CPU, from /proc/stat), in ms;
// 0 when unreadable.
[[nodiscard]] double steal_ms();

// Raw samples kept by the benchmark itself; every quantile is computed
// from them exactly (linear interpolation between order statistics).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void add(double v, std::size_t copies) { values_.insert(values_.end(), copies, v); }
  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const;
  // q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> values_;
};

// One benchmark run's outcome: the metrics, how many operations were
// attempted/failed, and every correctness gate that tripped.
class Report {
 public:
  // `samples` is the count a timing or mean was computed from (0 = not a
  // sampled quantity); it is printed beside the value.
  void end_to_end(std::string name, double value, std::string unit,
                  std::size_t samples = 0);
  void per_layer(std::string name, double value, std::string unit,
                 std::size_t samples = 0);

  // Record a gate: when `ok` is false the run is incorrect and `what`
  // says why.
  void gate(bool ok, std::string what);

  void set_operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }

  // Free-form context (host stamp, sizes, digests) for the detail line.
  void note(std::string key, std::string json_value);

  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

  // Human-readable table on stderr, then on stdout one detail JSON line
  // and, last, the result line with only the metrics of the run's mode.
  void print(bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };

  std::vector<Metric> end_to_end_;
  std::vector<Metric> per_layer_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Span recorder for traced runs: a telemetry::TraceRecorder (lane 0 = the
// driver thread, lane w+1 = executor worker w) whose spans carry a group
// id (the drain or episode they belong to). write() exports the
// Chrome-trace JSON (open it in Perfetto) and a flat span file with each
// span's parent, recovered from interval nesting: a span's parent is the
// tightest span on its own lane that contains it, or — for worker lanes —
// the tightest driver-lane span of the same group that contains it.
class Spans {
 public:
  explicit Spans(std::size_t lanes) : recorder_(lanes) {}

  [[nodiscard]] scout::telemetry::TraceRecorder& recorder() noexcept {
    return recorder_;
  }
  [[nodiscard]] scout::telemetry::TraceRecorder::Scope open(
      std::size_t lane, std::string_view name, std::int64_t group) {
    return recorder_.span(lane, name, "scoutbench", scout::SimTime{}, group);
  }

  // Writes <stem>.trace.json and <stem>.spans.json; returns false (and
  // leaves partial files) on an I/O error.
  [[nodiscard]] bool write(const std::string& stem) const;

 private:
  scout::telemetry::TraceRecorder recorder_;
};

// Host and run stamp carried by every result.
struct Stamp {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  std::size_t executor_workers = 0;
  std::size_t repeats = 0;  // setups, drains or episodes the run repeats
};
void stamp_report(Report& report, const Stamp& stamp);

// Process peak resident set size in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace scoutbench
