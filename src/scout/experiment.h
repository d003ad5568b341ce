// Experiment drivers for the paper's evaluation (§VI). Each bench binary is
// a thin printer over these functions, so tests can pin the experiment
// logic itself.
//
// Every driver fans its grid out over a runtime::Executor. A grid cell is a
// pure function of (options, coordinates): it builds its own network, BDD
// manager and RNG (seeded via derive_seed over the coordinates), so serial
// and multi-threaded executions produce bit-identical results and the
// reduction happens in cell-index order after the join.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/checker/equivalence_checker.h"
#include "src/riskmodel/risk_model.h"
#include "src/runtime/campaign.h"
#include "src/runtime/result_sink.h"
#include "src/stream/churn_generator.h"
#include "src/stream/incremental_checker.h"
#include "src/telemetry/metrics.h"
#include "src/workload/policy_generator.h"

namespace scout {

// ---------------------------------------------------------------------------
// Per-worker cached sweep networks
// ---------------------------------------------------------------------------
//
// The accuracy/gamma/scalability grids sweep one fixed fabric under
// different fault injections: every cell of a (profile, seed) group used to
// rebuild a byte-identical network (~70 ms at fig8 scale, ~22 s over a
// 300-cell campaign) just to damage it differently. The cache gives each
// pool worker one deployed network per profile: cells arm a RepairJournal
// (faults/repair_journal.h) before injecting and exact-repair afterwards,
// so the next cell on that worker starts from state bit-identical
// (SimNetwork::state_fingerprint) to a fresh deployment. Results are
// therefore unchanged — cached, uncached, serial and multi-threaded sweeps
// all memcmp-equal, which tests/test_network_repair.cpp pins.
//
// A slot holds one entry, keyed by (profile, network seed): sweeping a
// different profile on the same cache rebuilds instead of repairing.

struct SweepDiagnostics {
  std::size_t network_builds = 0;   // full generate+deploy passes
  std::size_t network_repairs = 0;  // exact-repair passes between cells
  double setup_seconds = 0.0;       // time in builds + repairs, all workers
};

class SweepNetworkCache {
 public:
  explicit SweepNetworkCache(std::size_t workers);
  ~SweepNetworkCache();
  SweepNetworkCache(const SweepNetworkCache&) = delete;
  SweepNetworkCache& operator=(const SweepNetworkCache&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept;

  // Verify every repair against the baseline fingerprint, dropping the
  // entry (next cell rebuilds) on divergence. The digest deliberately
  // covers the *whole* observable state, immutable compiled/logical parts
  // included — that is what catches out-of-domain mutations (policy
  // edits, live pushes) that TCAM-only hashing could miss. One full hash
  // per cell (~3 ms at fig8 scale, vs the ~45 ms build it replaces; the
  // measured x13 setup saving includes it), so it defaults to on; perf
  // benches may switch it off once trust is established.
  void set_verify_repairs(bool verify) noexcept { verify_repairs_ = verify; }
  [[nodiscard]] bool verify_repairs() const noexcept {
    return verify_repairs_;
  }

  struct Stats {
    std::size_t builds = 0;   // cold slots + profile switches
    std::size_t repairs = 0;  // cells served from a repaired network
    std::size_t verify_failures = 0;  // diverged repairs (entry dropped)
  };
  [[nodiscard]] Stats stats() const;

  // Append one diagnostics row (cache_builds / cache_repairs /
  // cache_verify_failures) to a bench recorder's JSON output.
  void record_diagnostics(runtime::BenchRecorder& recorder) const;

  struct Entry;  // worker-owned deployed network + journal (experiment.cpp)

 private:
  friend struct SweepCacheAccess;
  runtime::WorkerCache<std::unique_ptr<Entry>> slots_;
  runtime::WorkerLocal<std::size_t> verify_failures_;
  bool verify_repairs_ = true;
};

// ---------------------------------------------------------------------------
// Accuracy sweeps (Figures 8, 9, 10)
// ---------------------------------------------------------------------------

enum class AlgorithmKind : std::uint8_t { kScout, kScore };

struct AlgorithmSpec {
  std::string name;          // e.g. "SCOUT", "SCORE-0.6"
  AlgorithmKind kind = AlgorithmKind::kScout;
  double score_threshold = 1.0;  // SCORE hit-ratio threshold
  bool scout_stage2 = true;      // ablation knob (A1)
};

struct AccuracyOptions {
  GeneratorProfile profile;
  RiskModelKind model = RiskModelKind::kSwitch;
  std::size_t runs = 30;        // paper: 30 (simulation), 10 (testbed)
  std::size_t max_faults = 10;  // x-axis: 1..max_faults simultaneous faults
  // Change-log noise: benign modifications recorded before injection so
  // SCOUT's stage 2 cannot treat the change log as an oracle.
  std::size_t benign_changes = 20;
  std::int64_t change_window_ms = 60'000;
  // Checker mode. Accuracy sweeps default to the syntactic diff (exact for
  // the compiler's non-overlapping rulesets); integration tests pin
  // BDD/syntactic agreement. In kExactBdd mode each cached network entry
  // keeps its per-switch logical BDDs resident (LogicalBddCache), so cells
  // re-encode only the collected T side.
  CheckMode check_mode = CheckMode::kSyntactic;
  std::uint64_t seed = 42;
  // Per-worker cached sweep network with exact repair between cells (see
  // SweepNetworkCache above). Off = rebuild every cell (the benches' --no-
  // cache); results are bit-identical either way.
  bool cache_networks = true;
};

struct AccuracyCell {
  double precision = 0.0;
  double recall = 0.0;
};

struct AccuracySeries {
  std::string name;
  std::vector<AccuracyCell> by_faults;  // index i = i+1 simultaneous faults
};

// Bitwise equality of two sweep outputs (shape + memcmp over every
// AccuracyCell). The single definition of "identical" that both the fig8
// cached-vs-uncached gate and the differential tests apply.
[[nodiscard]] bool accuracy_series_identical(
    std::span<const AccuracySeries> a, std::span<const AccuracySeries> b);

// Fan the (fault-count x run) grid out over `executor`. Results are
// bit-identical for any executor / thread count, cached or not.
//
// `cache`: reuse an external per-worker network cache across sweeps (its
// worker count must cover the executor's); nullptr builds a sweep-local
// cache when options.cache_networks is set. `diagnostics`, when non-null,
// receives the build/repair tallies and setup wall time of this sweep.
[[nodiscard]] std::vector<AccuracySeries> run_accuracy_sweep(
    const AccuracyOptions& options, std::span<const AlgorithmSpec> algorithms,
    runtime::Executor& executor, SweepNetworkCache* cache = nullptr,
    SweepDiagnostics* diagnostics = nullptr);

// Serial convenience overload (tests, existing callers).
[[nodiscard]] std::vector<AccuracySeries> run_accuracy_sweep(
    const AccuracyOptions& options, std::span<const AlgorithmSpec> algorithms);

// ---------------------------------------------------------------------------
// Suspect-set reduction (Figure 7)
// ---------------------------------------------------------------------------

struct GammaOptions {
  GeneratorProfile profile;
  std::size_t faults = 1500;  // paper: 1500 simulated, 200 testbed
  std::uint64_t seed = 7;
  // Bucket upper bounds over the suspect-set size, e.g. {10, 50, 100, 500,
  // 1000} reproduces Figure 7(b)'s x-axis.
  std::vector<std::size_t> bucket_bounds{10, 50, 100, 500, 1000};
  // Fault stream is split into this many independent shards (each with its
  // own network and derived seed). Fixed by options — not by thread count —
  // so results do not depend on the executor.
  std::size_t shards = 8;
  // Shards on one worker share a cached network restored by exact repair
  // (the per-iteration clean-slate the shards already used now goes
  // through the same journal). Results are bit-identical either way.
  bool cache_networks = true;
};

struct GammaBucket {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double mean_gamma = 0.0;
  double max_hypothesis = 0.0;
  std::size_t samples = 0;
};

[[nodiscard]] std::vector<GammaBucket> run_gamma_experiment(
    const GammaOptions& options, runtime::Executor& executor,
    SweepDiagnostics* diagnostics = nullptr);

[[nodiscard]] std::vector<GammaBucket> run_gamma_experiment(
    const GammaOptions& options);

// ---------------------------------------------------------------------------
// Scalability (§VI "Scalability")
// ---------------------------------------------------------------------------

struct ScalePoint {
  std::size_t switches = 0;
  std::size_t epg_pairs = 0;
  std::size_t elements = 0;
  std::size_t risks = 0;
  std::size_t edges = 0;
  double model_build_seconds = 0.0;
  double check_seconds = 0.0;
  double localize_seconds = 0.0;
  // collect_fault_logs + build_object_scope + correlate.
  double correlate_seconds = 0.0;
};

// Full pipeline timing at `switches` leaves (controller risk model):
// generate + deploy + inject `n_faults` + check + build + localize +
// correlate (every stage of ScoutSystem::analyze_controller). The
// executor overload shards the L-T check stage per switch
// (ScoutSystem::check_all); the default runs it serially.
[[nodiscard]] ScalePoint run_scalability_point(std::size_t switches,
                                               std::uint64_t seed,
                                               std::size_t n_faults = 5,
                                               std::size_t pairs_per_switch =
                                                   200);
[[nodiscard]] ScalePoint run_scalability_point(std::size_t switches,
                                               std::uint64_t seed,
                                               std::size_t n_faults,
                                               std::size_t pairs_per_switch,
                                               runtime::Executor&
                                                   check_executor);

// Campaign form: (switch-count x rep) grid fanned over the executor, one
// independently seeded full pipeline per cell. Returned in grid index order
// (switch-count major, rep minor).
struct ScaleCampaignOptions {
  std::vector<std::size_t> switch_counts{10, 30, 50, 100};
  std::size_t reps = 1;  // independent seeded repetitions per count
  std::uint64_t seed = 5;
  std::size_t n_faults = 5;
  std::size_t pairs_per_switch = 200;
  // The campaign builds one fabric per switch count (network seed derived
  // from (seed, count index)); reps vary only the injected faults, exactly
  // like the accuracy sweeps vary only the damage. That makes the fabric
  // repeat across a count's reps, so workers can repair instead of
  // rebuild. Off = fresh build per cell; results bit-identical either way.
  bool cache_networks = true;
};

[[nodiscard]] std::vector<ScalePoint> run_scalability_campaign(
    const ScaleCampaignOptions& options, runtime::Executor& executor,
    SweepDiagnostics* diagnostics = nullptr);

// ---------------------------------------------------------------------------
// Continuous monitoring (src/stream): churn -> events -> verdict stream
// ---------------------------------------------------------------------------
//
// Builds one fabric, attaches an EventBus, primes a MonitorLoop and then
// alternates churn pumps with drains until `events` events have been
// verified. The monitor mode (incremental vs full recheck per batch) only
// changes how verdicts are computed, never what they are: the churn is a
// pure function of (profile, seed, mix), so two runs differing only in
// `incremental` (or in the executor's worker count) produce identical
// event streams and must produce identical verdict digests —
// bench/stream_latency.cpp and tests/test_stream_monitor.cpp enforce it.

struct MonitoringOptions {
  GeneratorProfile profile = GeneratorProfile::scaled(32);
  std::size_t events = 2000;   // stop after verifying this many events
  // Churn ops applied per drain — one monitoring interval's worth of
  // fabric activity. Event counts per batch vary: most ops publish 1-3
  // events, repair/resync ops burst a whole switch's reinstalls.
  std::size_t batch_ops = 24;
  stream::ChurnMix mix{};
  std::uint64_t seed = 21;
  bool incremental = true;         // false = full check_all per batch
  stream::IncrementalChecker::Options checker{};
  // Paced replay: sleep between batches toward this published-events/sec
  // target; 0 = unpaced (maximum sustained throughput measurement).
  double target_events_per_sec = 0.0;
  // Cross-check every batch verdict against a fresh serial
  // ScoutSystem::check_all on the same network (differential tests).
  bool verify_batches = false;
  // Run SCOUT localization over the final verdict's suspects.
  bool localize_final = true;
  // Telemetry. On, the run owns a MetricsRegistry wired through the
  // monitor and the report's latency percentiles come from its
  // histograms; off is the zero-instrumentation baseline the overhead
  // gate in bench/stream_latency.cpp compares against.
  bool collect_telemetry = true;
  // Also record pipeline trace spans (report.trace_json, Chrome format).
  bool collect_trace = false;
  // Periodic metrics snapshots every N batches (0 = never).
  std::size_t snapshot_every_batches = 0;
  // Remediate the final verdict (reinstall missing rules + re-check).
  bool remediate_final = false;
  // Concurrent publish. 0 = the legacy serial ChurnGenerator. > 0 drives
  // churn through ConcurrentChurnDriver: that many publisher threads run
  // the data-plane fault schedule while control-plane churn stays serial.
  std::size_t publishers = 0;
  // With publishers > 0: route the data phase through an MpscRing attached
  // to the bus (true), or execute the identical schedule serially through
  // the bus (false) — the differential baseline leg. The schedule is
  // publisher-count independent either way, so verdict digests must match
  // across {use_ring} x {publishers} x {workers}.
  bool use_ring = true;
  // Ring shard capacity (0 = the MpscRing default). Tests set tiny values
  // to force overflow evictions -> shadow resyncs.
  std::size_t ring_capacity = 0;
  // Free-run: publishers run the whole event budget while the monitor
  // drains concurrently (kBackpressure ring; evictions only possible at
  // stop()-time close). Batch digests are timing-dependent here, so the
  // correctness gate is final_verdict_matches_fresh instead; pacing and
  // verify_batches are ignored.
  bool pipelined = false;
  // -- fault classes beyond the churn mix (src/faults) ----------------------
  // Gray agents: every agent gets a misrender/drop profile scaled off this
  // rate (misrender_rate = gray_rate with burst 3, drop_rate = gray_rate/2
  // with burst 2) before monitoring starts. Partial collections stay off —
  // they fault the detection path and would break the digest gates by
  // construction. 0 = no gray behaviour.
  double gray_rate = 0.0;
  // Correlated storms: profile name resolved via storm_profile() ("rack-
  // power", "rolling-upgrade", "pod-brownout"); empty = no storms. An
  // episode fires every `storm_every_batches` drained batches (phased) or
  // at every segment boundary (pipelined) — serial-phase actions either
  // way, so batch counts and therefore episode schedules are identical
  // across {serial, ring} legs.
  // Batches are big (a resync op bursts a whole switch's reinstalls), so
  // the default cadence fires within a handful of drains.
  std::string storm;
  std::size_t storm_every_batches = 2;
  // TCAM eviction policy name for every agent, resolved via
  // make_eviction_policy() (per-agent seeds, so "random" agents evict
  // independently); empty = the built-in lowest-priority behaviour.
  std::string evict_policy;
  // Delayed/reordered control-channel delivery window (gray channel);
  // 0 = immediate delivery.
  std::size_t delivery_window = 0;
  // -- incident provenance / flight recorder / health -----------------------
  // Correlate failing verdicts with fault-engine cause stamps into
  // Incident records (stream/incident.h): the run owns a CauseLedger,
  // attaches it to every fault engine and feeds an IncidentBuilder from
  // the monitor. Observe-only — verdict digests are bit-identical with
  // this on or off (tests/test_incidents.cpp pins it).
  bool collect_incidents = false;
  // Write the incident log JSON here at end of run (empty = keep it only
  // in report.incident_json).
  std::string incident_log_path;
  // Attach a flight recorder (telemetry/flight_recorder.h) to the monitor
  // and dump it on every clean→failing verdict transition.
  bool collect_flight = false;
  std::string flight_dump_path;
  // Grade the monitor's cumulative counters against SLO thresholds
  // (telemetry/health.h) and export health.* gauges.
  bool collect_health = false;
  // Storm split mode: an episode's damage and heal split across two
  // consecutive cadence ticks instead of self-healing atomically, so
  // failing verdicts can observe storm damage (incident-provenance legs).
  bool storm_split = false;
  // Gray drop-rate override: negative = the default gray_rate * 0.5;
  // >= 0 replaces it. Incident-accuracy legs pin 0 — dropped updates
  // publish no event, so their damage is structurally unattributable.
  double gray_drop_rate = -1.0;
};

struct MonitoringReport {
  std::size_t events = 0;
  std::size_t batches = 0;
  std::size_t inconsistent_batches = 0;
  std::size_t churn_ops = 0;
  // Order-sensitive digest over the batch verdict stream (seeded from the
  // options seed, so runs with equal options-but-for-mode are comparable).
  std::uint64_t verdict_digest = 0;
  double wall_seconds = 0.0;    // whole run, churn included
  double drain_seconds = 0.0;   // verification cost only (mode-dependent)
  double events_per_sec = 0.0;  // events / drain_seconds
  // Event-to-detection latency, wall clock (publish steady_clock stamp ->
  // verdict instant), from the "stream.wall_latency_ms" histogram.
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  // Same detection latency in *sim* time (event SimTime -> network clock
  // at the verdict) — reported separately, never mixed with wall.
  double sim_p50_latency_ms = 0.0;
  double sim_p99_latency_ms = 0.0;
  double sim_max_latency_ms = 0.0;
  stream::IncrementalChecker::Stats checker;  // zeros in full-recheck mode
  std::size_t verify_mismatches = 0;          // verify_batches failures
  // Final fabric verdict summary + localization handoff.
  std::size_t final_inconsistent = 0;
  std::size_t final_missing = 0;
  std::size_t final_extra = 0;
  std::size_t hypothesis_size = 0;
  // Remediation (remediate_final): rules still missing after the pass.
  std::size_t final_still_missing = 0;
  // Telemetry artifacts (empty when collect_telemetry is off).
  telemetry::MetricsSnapshot telemetry;
  std::size_t periodic_snapshot_count = 0;
  std::string trace_json;  // Chrome trace (collect_trace only)
  // Concurrent-publish metrics (publishers > 0 runs). The wall-clock rate
  // is the end-to-end one (churn + verification overlapped in pipelined
  // mode) — the number the >=10x concurrent-vs-serial gate compares.
  double publish_wall_events_per_sec = 0.0;
  std::uint64_t ring_evictions = 0;
  std::uint64_t ring_full_stalls = 0;
  // Pipelined runs: does the final composed verdict equal a fresh
  // ScoutSystem::check_all after quiescence? (true for every other mode.)
  bool final_verdict_matches_fresh = true;
  // Fault-class tallies (gray/storm/eviction options above).
  std::size_t storm_episodes = 0;
  std::uint64_t gray_misrenders = 0;
  std::uint64_t gray_drops = 0;
  std::uint64_t tcam_evictions = 0;
  // Incident provenance (collect_incidents).
  std::size_t incidents = 0;
  std::size_t incidents_unattributed = 0;
  std::size_t incident_first_cause_correct = 0;
  double incident_precision = 1.0;
  double incident_recall = 1.0;
  std::string incident_json;  // full scout-incidents-v1 log
  // Health engine (collect_health): final overall grade, 0/1/2 =
  // ok/warn/critical, plus the engine's JSON summary.
  int health_status = 0;
  std::string health_json;
  // Flight recorder (collect_flight): lifetime entries recorded.
  std::uint64_t flight_entries = 0;
};

[[nodiscard]] MonitoringReport run_continuous_monitoring(
    const MonitoringOptions& options, runtime::Executor& executor);

// ---------------------------------------------------------------------------
// Single-fabric sharded analysis ("how fast is one large check?")
// ---------------------------------------------------------------------------
//
// The campaign above parallelizes *across* independent cells; this driver
// parallelizes *within* one analysis: build one fabric, inject faults once,
// then run the sharded L-T check (ScoutSystem::check_all) at each requested
// worker count over the same deployment. The structural outputs must be
// identical at every worker count — only check_seconds may vary.

struct AnalysisScalingOptions {
  std::size_t switches = 64;
  std::size_t pairs_per_switch = 200;
  std::size_t n_faults = 5;
  std::uint64_t seed = 11;
  CheckMode check_mode = CheckMode::kSyntactic;
  std::vector<std::size_t> thread_counts{1, 2, 4};
};

struct AnalysisScalingPoint {
  std::size_t threads = 0;
  double check_seconds = 0.0;
  // Structural outputs (identical across worker counts by construction).
  std::size_t missing_rules = 0;
  std::size_t switches_inconsistent = 0;
  std::size_t extra_rules = 0;
};

[[nodiscard]] std::vector<AnalysisScalingPoint> run_analysis_scaling(
    const AnalysisScalingOptions& options);

}  // namespace scout
