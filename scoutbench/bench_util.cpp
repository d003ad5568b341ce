#include "bench_util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <numeric>

#include "src/common/json_writer.h"
#include "src/common/stats.h"

#ifndef SCOUTBENCH_BUILD_TYPE
#define SCOUTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SCOUTBENCH_COMPILER
#define SCOUTBENCH_COMPILER "unknown"
#endif

namespace scoutbench {
namespace {

// Shortest decimal text that reads back as the same double.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  out += scout::JsonWriter::escape(s);
  out += '"';
  return out;
}

}  // namespace

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return scout::percentile_sorted(sorted, q);
}

void Report::end_to_end(std::string name, double value, std::string unit,
                        std::size_t samples) {
  gate(std::isfinite(value), "metric " + name + " is not finite");
  end_to_end_.push_back(Metric{std::move(name),
                               std::isfinite(value) ? value : 0.0,
                               std::move(unit), samples});
}

void Report::per_layer(std::string name, double value, std::string unit,
                       std::size_t samples) {
  gate(std::isfinite(value), "metric " + name + " is not finite");
  per_layer_.push_back(Metric{std::move(name),
                              std::isfinite(value) ? value : 0.0,
                              std::move(unit), samples});
}

void Report::gate(bool ok, std::string what) {
  if (!ok) failures_.push_back(std::move(what));
}

void Report::note(std::string key, std::string json_value) {
  notes_.emplace_back(std::move(key), std::move(json_value));
}

void Report::print(bool traced) const {
  const std::vector<Metric>& metrics = traced ? per_layer_ : end_to_end_;
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %16.6g %-10s", m.name.c_str(), m.value,
                 m.unit.c_str());
    if (m.samples > 0) std::fprintf(stderr, " n=%zu", m.samples);
    std::fprintf(stderr, "\n");
  }
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "  GATE FAILED: %s\n", f.c_str());
  }

  std::string detail = "{\"detail\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    detail += quoted(notes_[i].first) + ": " + notes_[i].second + ", ";
  }
  detail += "\"samples\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (m.samples == 0) continue;
    detail += (first ? "" : ", ") + quoted(m.name) + ": " +
              std::to_string(m.samples);
    first = false;
  }
  detail += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    detail += (i == 0 ? "" : ", ") + quoted(failures_[i]);
  }
  detail += "]}}";

  std::string result = "{\"correct\": ";
  result += correct() ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted_);
  result += ", \"failed\": " + std::to_string(failed_);
  result += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    result += (i == 0 ? "" : ", ") + quoted(m.name) + ": {\"value\": " +
              number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  result += "}}";

  std::cout << detail << "\n" << result << std::endl;
}

bool Spans::write(const std::string& stem) const {
  const std::vector<scout::telemetry::TraceSpan> spans = recorder_.spans();
  {
    std::ofstream chrome{stem + ".trace.json"};
    chrome << recorder_.to_chrome_json();
    if (!chrome) return false;
  }

  // Parent = tightest enclosing span on the same lane; worker-lane spans
  // with no enclosing span on their lane fall back to the driver lane
  // (same group), where the executor fan-out that ran them is recorded.
  const auto end_of = [](const scout::telemetry::TraceSpan& s) {
    return s.wall_start_us + s.wall_dur_us;
  };
  const auto tightest = [&](std::size_t i, std::size_t lane,
                            bool same_group) -> std::ptrdiff_t {
    const auto& child = spans[i];
    std::ptrdiff_t best = -1;
    for (std::size_t j = 0; j < spans.size(); ++j) {
      const auto& cand = spans[j];
      if (j == i || cand.lane != lane) continue;
      if (same_group && cand.batch != child.batch) continue;
      if (cand.wall_start_us > child.wall_start_us ||
          end_of(cand) < end_of(child)) {
        continue;
      }
      // Identical intervals: the earlier-recorded span is the parent.
      if (cand.wall_dur_us == child.wall_dur_us && j > i) continue;
      if (best < 0 || cand.wall_dur_us <
                          spans[static_cast<std::size_t>(best)].wall_dur_us) {
        best = static_cast<std::ptrdiff_t>(j);
      }
    }
    return best;
  };

  std::ofstream out{stem + ".spans.json"};
  out << "{\"clock\": \"steady_clock microseconds since recorder start\", "
         "\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::ptrdiff_t parent = tightest(i, s.lane, false);
    if (parent < 0 && s.lane != 0) parent = tightest(i, 0, true);
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << i
        << ", \"name\": " << quoted(s.name) << ", \"lane\": " << s.lane
        << ", \"group\": " << s.batch
        << ", \"start_us\": " << number(s.wall_start_us)
        << ", \"end_us\": " << number(end_of(s)) << ", \"parent\": "
        << (parent < 0 ? std::string("null") : std::to_string(parent))
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void stamp_report(Report& report, const Stamp& stamp) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string host = "{\"nproc\": " + std::to_string(nproc);
  host += ", \"build_type\": " + quoted(SCOUTBENCH_BUILD_TYPE);
  host += ", \"compiler\": " + quoted(SCOUTBENCH_COMPILER);
  host += ", \"executor_workers\": " + std::to_string(stamp.executor_workers);
  host += ", \"workload\": " + quoted(stamp.workload);
  host += ", \"seed\": " + std::to_string(stamp.seed);
  host += ", \"run_seconds\": " + number(stamp.seconds);
  host += ", \"traced\": " + std::string(stamp.traced ? "true" : "false");
  host += ", \"repeats\": " + std::to_string(stamp.repeats) + "}";
  report.note("host", host);
}

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double steal_ms() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  for (double& f : fields) stat >> f;
  if (!stat || cpu != "cpu") return 0.0;
  return fields[7] * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace scoutbench
