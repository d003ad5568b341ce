// §VI "Scalability" — SCOUT runtime on the controller risk model as the
// fabric grows (the paper scales its production policy "by adding new EPG
// and switch pairs"), now fanned out as a campaign over the parallel
// experiment runtime.
//
// Default: a (switch-count x rep) grid of full pipelines — one fabric per
// switch count, independently seeded fault injections per rep — run once
// per thread count. Workers cache the per-count fabric and exact-repair it
// between reps (--no-cache rebuilds every cell; results are identical).
// Without --threads the campaign is swept at 1, 2 and 4 workers so one
// invocation produces the full threads -> wall-ms mapping; --threads N
// measures just N. Results go to stdout plus BENCH_scalability.json (one
// row per thread count) so future PRs have a machine-readable perf
// trajectory to compare against.
//
// --paper reproduces the original single-rep deep sweep up to 500 leaves
// (paper reference, 1 kLOC Python prototype on 4 cores: ~45 s at 200
// switches, ~130 s at 500; the reproduction target is near-linear growth).
//
// --analysis flips to the single-fabric mode: one fabric (default 64
// switches, --sizes overrides with its first entry) is built and faulted
// once, then the *sharded* L-T check (ScoutSystem::check_all) is timed at
// each thread count over the same deployment — the intra-analysis speedup,
// as opposed to the campaign's across-cell speedup.
#include <cstdio>

#include "bench/bench_cli.h"
#include "src/runtime/result_sink.h"
#include "src/scout/experiment.h"

namespace {

// Single-fabric sharded-analysis mode (--analysis).
int run_analysis_mode(int argc, char** argv,
                      std::vector<std::size_t> thread_counts,
                      const std::string& json_path) {
  using namespace scout;

  AnalysisScalingOptions options;
  options.switches = bench::list_flag(argc, argv, "sizes",
                                      {options.switches})[0];
  options.n_faults = bench::size_flag(argc, argv, "faults", options.n_faults,
                                      /*min=*/0, /*max=*/100000);
  options.seed = bench::size_flag(argc, argv, "seed", options.seed);
  options.thread_counts = std::move(thread_counts);

  std::printf("=== Scalability (single-fabric analysis): sharded L-T check "
              "on %zu switches, %zu faults ===\n",
              options.switches, options.n_faults);
  const auto points = run_analysis_scaling(options);

  runtime::BenchRecorder recorder{"scalability_analysis"};
  std::printf("  %-8s %-12s %-9s %-14s %-7s\n", "threads", "check(ms)",
              "missing", "inconsistent", "extra");
  for (const auto& p : points) {
    std::printf("  %-8zu %-12.1f %-9zu %-14zu %-7zu\n", p.threads,
                p.check_seconds * 1e3, p.missing_rules,
                p.switches_inconsistent, p.extra_rules);
    recorder.add_row(
        {{"threads", static_cast<double>(p.threads)},
         {"check_ms", p.check_seconds * 1e3},
         {"missing_rules", static_cast<double>(p.missing_rules)},
         {"switches_inconsistent",
          static_cast<double>(p.switches_inconsistent)},
         {"extra_rules", static_cast<double>(p.extra_rules)}});
  }
  for (const auto& p : points) {
    if (p.missing_rules != points.front().missing_rules ||
        p.switches_inconsistent != points.front().switches_inconsistent ||
        p.extra_rules != points.front().extra_rules) {
      std::fprintf(stderr, "error: structural outputs diverged across "
                           "thread counts (determinism violation)\n");
      return 1;
    }
  }
  if (points.size() > 1) {
    std::printf("speedup vs serial at %zu threads: x%.2f\n",
                points.back().threads,
                points.front().check_seconds / points.back().check_seconds);
  }
  if (!recorder.write_file(json_path)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scout;

  const bool paper_mode = bench::bool_flag(argc, argv, "paper");

  // A present --threads always selects the single-count run, even when its
  // value is missing or malformed (size_flag then warns and falls back to
  // 1): "--threads" with no value means the user asked for *a* thread
  // count, not for the full 1/2/4 sweep.
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (bench::find_flag(argc, argv, "threads").present) {
    thread_counts = {bench::size_flag(argc, argv, "threads", 1,
                                      /*min=*/1, bench::kMaxBenchThreads)};
  }

  // Branch before the campaign options are parsed: analysis mode reads its
  // own flags, and parsing --sizes twice would double any warning.
  if (bench::bool_flag(argc, argv, "analysis")) {
    return run_analysis_mode(
        argc, argv, std::move(thread_counts),
        bench::string_flag(argc, argv, "json",
                           "BENCH_scalability_analysis.json"));
  }

  ScaleCampaignOptions options;
  options.switch_counts = bench::list_flag(
      argc, argv, "sizes",
      paper_mode ? std::vector<std::size_t>{10, 30, 50, 100, 200, 350, 500}
                 : std::vector<std::size_t>{10, 30, 50, 100});
  // 4 reps per count: divisible by 1/2/4 workers, so the static round-robin
  // shard assignment stays balanced at the usual thread counts.
  options.reps = bench::size_flag(argc, argv, "reps", paper_mode ? 1 : 4,
                                  /*min=*/1, /*max=*/1000);
  options.seed = bench::size_flag(argc, argv, "seed", 5);
  // Per-worker cached fabrics with exact repair between a count's reps;
  // --no-cache rebuilds every cell (results identical either way).
  options.cache_networks = !bench::bool_flag(argc, argv, "no-cache");

  runtime::BenchRecorder recorder{"scalability"};
  std::vector<ScalePoint> points;  // structurally identical across sweeps

  for (const std::size_t threads : thread_counts) {
    const auto executor = runtime::make_executor(threads);
    const bench::WallClock wall;
    SweepDiagnostics diag;
    points = run_scalability_campaign(options, *executor, &diag);
    const double wall_ms = wall.millis();
    std::printf("campaign wall clock: %8.0f ms over %zu tasks "
                "(%zu thread%s; setup %.0f ms: %zu builds, %zu repairs)\n",
                wall_ms, points.size(), executor->workers(),
                executor->workers() == 1 ? "" : "s",
                diag.setup_seconds * 1e3, diag.network_builds,
                diag.network_repairs);
    recorder.add_row({{"threads", static_cast<double>(executor->workers())},
                      {"wall_ms", wall_ms},
                      {"tasks", static_cast<double>(points.size())},
                      {"setup_ms", diag.setup_seconds * 1e3},
                      {"network_builds",
                       static_cast<double>(diag.network_builds)},
                      {"network_repairs",
                       static_cast<double>(diag.network_repairs)}});
  }

  std::printf("\n=== Scalability: controller risk model, full pipeline "
              "(%zu counts x %zu reps; per-task means from the last "
              "sweep) ===\n",
              options.switch_counts.size(), options.reps);
  std::printf("  %-9s %-10s %-10s %-10s %-10s %-9s %-9s %-9s %-9s\n",
              "switches", "pairs", "elements", "risks", "edges", "check(s)",
              "build(s)", "scout(s)", "corr(s)");
  double t200 = 0.0, t500 = 0.0;
  for (std::size_t c = 0; c < options.switch_counts.size(); ++c) {
    // Mean over this count's reps (grid is count-major).
    ScalePoint mean{};
    for (std::size_t r = 0; r < options.reps; ++r) {
      const ScalePoint& p = points[c * options.reps + r];
      mean.switches = p.switches;
      mean.epg_pairs += p.epg_pairs;
      mean.elements += p.elements;
      mean.risks += p.risks;
      mean.edges += p.edges;
      mean.check_seconds += p.check_seconds;
      mean.model_build_seconds += p.model_build_seconds;
      mean.localize_seconds += p.localize_seconds;
      mean.correlate_seconds += p.correlate_seconds;
    }
    const double reps = static_cast<double>(options.reps);
    mean.epg_pairs /= options.reps;
    mean.elements /= options.reps;
    mean.risks /= options.reps;
    mean.edges /= options.reps;
    mean.check_seconds /= reps;
    mean.model_build_seconds /= reps;
    mean.localize_seconds /= reps;
    mean.correlate_seconds /= reps;

    std::printf(
        "  %-9zu %-10zu %-10zu %-10zu %-10zu %-9.3f %-9.3f %-9.3f %-9.3f\n",
        mean.switches, mean.epg_pairs, mean.elements, mean.risks, mean.edges,
        mean.check_seconds, mean.model_build_seconds, mean.localize_seconds,
        mean.correlate_seconds);
    const double total = mean.check_seconds + mean.model_build_seconds +
                         mean.localize_seconds + mean.correlate_seconds;
    if (mean.switches == 200) t200 = total;
    if (mean.switches == 500) t500 = total;
  }

  if (t200 > 0.0 && t500 > 0.0) {
    std::printf("\nend-to-end analysis: %.2f s at 200 switches, %.2f s at "
                "500 (paper's Python prototype: ~45 s / ~130 s; shape "
                "target is near-linear growth: x2.5 switches -> x%.1f "
                "time)\n",
                t200, t500, t500 / t200);
  }

  const std::string json_path = bench::string_flag(
      argc, argv, "json", "BENCH_scalability.json");
  if (!recorder.write_file(json_path)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
