#include "src/scout/experiment.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include <thread>

#include "src/common/hash.h"
#include "src/common/json_writer.h"
#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_policy.h"
#include "src/faults/gray_faults.h"
#include "src/faults/repair_journal.h"
#include "src/faults/storm.h"
#include "src/localization/score.h"
#include "src/localization/scout_localizer.h"
#include "src/runtime/result_sink.h"
#include "src/scout/metrics.h"
#include "src/scout/scout_system.h"
#include "src/scout/sim_network.h"
#include "src/stream/cause.h"
#include "src/stream/incident.h"
#include "src/stream/monitor_loop.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/health.h"

namespace scout {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The leaf carrying the most compiled rules: switch-model experiments
// inject every fault there so its risk model sees all of them.
SwitchId busiest_switch(const Controller& controller) {
  SwitchId best{};
  std::size_t best_rules = 0;
  for (const auto& [sw, rules] : controller.compiled().per_switch) {
    if (rules.size() > best_rules) {
      best_rules = rules.size();
      best = sw;
    }
  }
  return best;
}

LocalizationResult run_algorithm(const AlgorithmSpec& spec,
                                 const RiskModel& model,
                                 const ChangeLog& change_log, SimTime now,
                                 std::int64_t window_ms) {
  if (spec.kind == AlgorithmKind::kScore) {
    return ScoreLocalizer{spec.score_threshold}.localize(model);
  }
  ScoutLocalizer::Options opts;
  opts.change_window_ms = window_ms;
  opts.enable_stage2 = spec.scout_stage2;
  return ScoutLocalizer{opts}.localize(model, change_log, now);
}

// Cache key of a sweep network: generator knobs plus the build seed.
// Cells with equal keys deploy byte-identical networks, which is what
// licenses repairing instead of rebuilding. The hash is only the slot
// filter — acquire() re-checks the stored (profile, seed) field-wise, so
// a GeneratorProfile knob missing here degrades to a spurious rebuild,
// never to serving the wrong fabric.
std::uint64_t network_cache_key(const GeneratorProfile& p,
                                std::uint64_t seed) {
  return hash_all(p.switches, p.vrfs, p.epgs, p.contracts, p.filters,
                  p.target_pairs, p.epg_popularity_skew,
                  p.contract_reuse_skew, p.filter_reuse_skew, p.vrf_size_skew,
                  p.switch_popularity_skew, p.max_filters_per_contract,
                  p.max_entries_per_filter, p.min_switches_per_epg,
                  p.max_switches_per_epg, p.tcam_capacity, seed);
}

}  // namespace

bool accuracy_series_identical(std::span<const AccuracySeries> a,
                               std::span<const AccuracySeries> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (a[s].name != b[s].name ||
        a[s].by_faults.size() != b[s].by_faults.size()) {
      return false;
    }
    for (std::size_t f = 0; f < a[s].by_faults.size(); ++f) {
      if (std::memcmp(&a[s].by_faults[f], &b[s].by_faults[f],
                      sizeof(AccuracyCell)) != 0) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// SweepNetworkCache
// ---------------------------------------------------------------------------

// One worker-owned deployed network plus everything pure the cells used to
// recompute from it every time: the policy index, the fault injector's
// object index, and the busiest-switch choice. The per-cell RNG is
// re-seated into the cached injector (set_rng), so a cached cell consumes
// exactly the random stream a fresh cell would.
struct SweepNetworkCache::Entry {
  GeneratorProfile profile;  // exact identity; the slot key is just a hash
  std::uint64_t net_seed = 0;
  std::unique_ptr<SimNetwork> net;
  std::unique_ptr<PolicyIndex> index;
  Rng seat_rng{0};  // entry-owned seat; cells re-seat per task
  std::unique_ptr<ObjectFaultInjector> injector;
  SwitchId busiest{};
  RepairJournal journal;
  std::uint64_t baseline_fingerprint = 0;
  // Per-switch logical BDDs for this network (BDD-mode checks only; one
  // slot — cells run their fleet check serially inside the cell). Repair
  // between cells never touches the compiled policy, so the arenas stay
  // valid for the entry's whole lifetime; an entry rebuild (profile or
  // seed switch) drops them with the network they described.
  LogicalBddCache bdd_cache{1};
};

SweepNetworkCache::SweepNetworkCache(std::size_t workers)
    : slots_(workers), verify_failures_(workers) {}

SweepNetworkCache::~SweepNetworkCache() = default;

std::size_t SweepNetworkCache::workers() const noexcept {
  return slots_.workers();
}

SweepNetworkCache::Stats SweepNetworkCache::stats() const {
  Stats stats;
  stats.builds = slots_.misses();
  stats.repairs = slots_.hits();
  stats.verify_failures = verify_failures_.merge(
      [](std::size_t a, std::size_t b) { return a + b; });
  return stats;
}

void SweepNetworkCache::record_diagnostics(
    runtime::BenchRecorder& recorder) const {
  const Stats s = stats();
  recorder.add_row(
      {{"cache_builds", static_cast<double>(s.builds)},
       {"cache_repairs", static_cast<double>(s.repairs)},
       {"cache_verify_failures", static_cast<double>(s.verify_failures)}});
}

// experiment.cpp-internal access to the cache's slots: the drivers share
// one acquire/release protocol around each cell.
struct SweepCacheAccess {
  using Entry = SweepNetworkCache::Entry;

  static std::unique_ptr<Entry> build(const GeneratorProfile& profile,
                                      std::uint64_t net_seed,
                                      bool with_baseline) {
    auto entry = std::make_unique<Entry>();
    entry->profile = profile;
    entry->net_seed = net_seed;
    Rng rng{net_seed};
    GeneratedNetwork generated = generate_network(profile, rng);
    entry->net = std::make_unique<SimNetwork>(std::move(generated.fabric),
                                              std::move(generated.policy));
    entry->net->deploy();
    entry->net->clock().advance(3'600'000);  // age out deploy-time records
    entry->index =
        std::make_unique<PolicyIndex>(entry->net->controller().policy());
    entry->injector = std::make_unique<ObjectFaultInjector>(
        entry->net->controller(), entry->seat_rng);
    entry->busiest = busiest_switch(entry->net->controller());
    if (with_baseline) {
      entry->baseline_fingerprint = entry->net->state_fingerprint();
    }
    return entry;
  }

  // The worker's cached network for (profile, net_seed) — or a fresh
  // build, stored in the cache when caching and in `local` otherwise.
  // Build time is charged to the worker's diagnostics.
  static Entry& acquire(SweepNetworkCache* cache,
                        std::unique_ptr<Entry>& local, std::size_t worker,
                        const GeneratorProfile& profile,
                        std::uint64_t net_seed, SweepDiagnostics& diag) {
    const std::uint64_t key = network_cache_key(profile, net_seed);
    if (cache != nullptr) {
      // Field-wise identity check behind the hash: a key collision (or a
      // profile knob the hash misses) costs a rebuild, never a repair of
      // the wrong fabric — and is counted as the rebuild it causes.
      if (std::unique_ptr<Entry>* hit = cache->slots_.lookup(worker, key);
          hit != nullptr && *hit != nullptr &&
          (*hit)->profile == profile && (*hit)->net_seed == net_seed) {
        cache->slots_.note_hit(worker);
        return **hit;
      }
      cache->slots_.note_miss(worker);
      const auto t0 = Clock::now();
      auto built = build(profile, net_seed, cache->verify_repairs());
      diag.setup_seconds += seconds_since(t0);
      ++diag.network_builds;
      return *cache->slots_.store(worker, key, std::move(built));
    }
    const auto t0 = Clock::now();
    local = build(profile, net_seed, /*with_baseline=*/false);
    diag.setup_seconds += seconds_since(t0);
    ++diag.network_builds;
    return *local;
  }

  // Drop a worker's entry outright (cell unwound with the journal armed,
  // or repaired state failed verification): the next cell rebuilds.
  static void drop(SweepNetworkCache& cache, std::size_t worker) {
    cache.slots_.invalidate(worker);
  }

  // Exact-repair the cell's damage so the entry can serve the worker's
  // next cell; verify against the baseline and drop diverged entries (the
  // next cell then rebuilds — results stay correct, only the savings are
  // lost). Call only when the cell armed the journal (cached mode).
  static void release(SweepNetworkCache& cache, Entry& entry,
                      std::size_t worker, SweepDiagnostics& diag) {
    // The cell's RNG dies with the cell; point the cached injector back at
    // the entry-owned seat so no dangling Rng* survives between cells.
    entry.injector->set_rng(entry.seat_rng);
    const auto t0 = Clock::now();
    entry.journal.repair(*entry.net);
    diag.setup_seconds += seconds_since(t0);
    ++diag.network_repairs;
    if (cache.verify_repairs() &&
        entry.net->state_fingerprint() != entry.baseline_fingerprint) {
      ++cache.verify_failures_.local(worker);
      cache.slots_.invalidate(worker);  // `entry` is dead past this line
    }
  }
};

namespace {

// RAII around one grid cell's use of a network entry: arms the journal
// and registers it with the injector up front, and guarantees the
// injector never outlives a cell still pointing at the cell's journal or
// stack RNG. The normal path calls release() — exact repair + verify. If
// the cell unwinds instead (including RepairJournal's own logic_error
// when state was mutated outside its domain), the destructor drops the
// cached entry so the worker's next cell rebuilds from scratch rather
// than repairing an inconsistent network — the degrade-to-rebuild
// fallback the journal's contract promises.
class CellLease {
 public:
  // `arm_always`: gamma arms the journal even uncached — its per-fault
  // clean slate runs through undo_rule_ops either way.
  CellLease(SweepNetworkCache* cache, SweepCacheAccess::Entry& entry,
            std::size_t worker, SweepDiagnostics& diag,
            bool arm_always = false)
      : cache_(cache), entry_(&entry), worker_(worker), diag_(&diag) {
    if (cache_ != nullptr || arm_always) {
      entry.journal.arm(*entry.net);
      entry.injector->set_journal(&entry.journal);
    }
  }
  CellLease(const CellLease&) = delete;
  CellLease& operator=(const CellLease&) = delete;

  ~CellLease() {
    if (entry_ == nullptr) return;  // released normally
    entry_->injector->set_journal(nullptr);
    entry_->injector->set_rng(entry_->seat_rng);
    if (cache_ != nullptr) SweepCacheAccess::drop(*cache_, worker_);
  }

  void release() {
    entry_->injector->set_journal(nullptr);
    if (cache_ != nullptr) {
      SweepCacheAccess::release(*cache_, *entry_, worker_, *diag_);
    }
    entry_ = nullptr;  // may be dangling past release (verify may drop it)
  }

 private:
  SweepNetworkCache* cache_;
  SweepCacheAccess::Entry* entry_;
  std::size_t worker_;
  SweepDiagnostics* diag_;
};

// Shared sweep plumbing: an optional sweep-local cache honouring
// options.cache_networks, with worker-count validation for external ones.
SweepNetworkCache* resolve_cache(bool enabled, SweepNetworkCache* external,
                                 std::optional<SweepNetworkCache>& own,
                                 std::size_t workers) {
  if (!enabled) return nullptr;
  if (external == nullptr) {
    own.emplace(workers);
    return &*own;
  }
  if (external->workers() < workers) {
    throw std::invalid_argument{
        "run sweep: external SweepNetworkCache has fewer worker slots than "
        "the executor has workers"};
  }
  return external;
}

void merge_diagnostics(const runtime::WorkerLocal<SweepDiagnostics>& per_worker,
                       SweepDiagnostics* out) {
  if (out == nullptr) return;
  *out = per_worker.merge([](SweepDiagnostics acc, const SweepDiagnostics& d) {
    acc.network_builds += d.network_builds;
    acc.network_repairs += d.network_repairs;
    acc.setup_seconds += d.setup_seconds;
    return acc;
  });
}

}  // namespace

std::vector<AccuracySeries> run_accuracy_sweep(
    const AccuracyOptions& options, std::span<const AlgorithmSpec> algorithms,
    runtime::Executor& executor, SweepNetworkCache* external_cache,
    SweepDiagnostics* diagnostics) {
  std::optional<SweepNetworkCache> own_cache;
  SweepNetworkCache* cache = resolve_cache(
      options.cache_networks, external_cache, own_cache, executor.workers());

  const runtime::CampaignGrid grid{
      options.seed,
      {{"faults", options.max_faults}, {"run", options.runs}}};

  // One slot per (fault-count, run) cell: per-algorithm precision/recall.
  runtime::ResultSlots<std::vector<PrecisionRecall>> slots{grid.task_count()};
  // Diagnostics only (load balance, setup amortization); never feed results.
  runtime::WorkerLocal<double> busy_seconds{executor.workers()};
  runtime::WorkerLocal<SweepDiagnostics> diag{executor.workers()};

  runtime::run_campaign(executor, grid, [&](const runtime::CampaignTask&
                                                task) {
    const auto task_start = Clock::now();
    const std::size_t n_faults = task.coords[0] + 1;

    std::unique_ptr<SweepCacheAccess::Entry> local;
    SweepCacheAccess::Entry& entry = SweepCacheAccess::acquire(
        cache, local, task.worker, options.profile, options.seed,
        diag.local(task.worker));
    SimNetwork& net = *entry.net;
    ObjectFaultInjector& injector = *entry.injector;
    CellLease lease{cache, entry, task.worker, diag.local(task.worker)};

    // All randomness below this line comes from the per-cell seed; the
    // cached injector's object index depends only on the compiled policy,
    // so re-seating the RNG reproduces a fresh injector exactly.
    Rng rng{task.seed};
    injector.set_rng(rng);
    const bool switch_scoped = options.model == RiskModelKind::kSwitch;
    const std::optional<SwitchId> scope =
        switch_scoped ? std::optional{entry.busiest} : std::nullopt;

    RiskModel model =
        switch_scoped ? RiskModel::build_switch_model(*entry.index, *scope)
                      : RiskModel::build_controller_model(*entry.index);

    // Benign change-log noise inside the recency window.
    for (const ObjectRef obj : injector.sample_objects(
             options.benign_changes, /*include_vrfs=*/true)) {
      net.controller().record_benign_change(obj);
    }

    // Ground truth: n distinct objects, each faulted fully or partially
    // with equal probability (paper §VI-A).
    const std::vector<ObjectRef> truth_vec =
        injector.sample_objects(n_faults, /*include_vrfs=*/false, scope);
    const std::unordered_set<ObjectRef> truth(truth_vec.begin(),
                                              truth_vec.end());
    for (const ObjectRef obj : truth_vec) {
      if (rng.chance(0.5)) {
        (void)injector.inject_full(obj, scope);
      } else {
        (void)injector.inject_partial(obj, scope);
      }
    }

    // Collect + check + augment once; every algorithm sees the same model.
    // The fleet check runs serially inside the cell (the campaign already
    // saturates the executor across cells); in BDD mode it reuses the
    // entry's resident logical BDDs instead of re-encoding L per cell.
    const ScoutSystem system{
        ScoutSystem::Options{options.check_mode, ScoutLocalizer::Options{}}};
    runtime::SerialExecutor check_executor;
    model.augment(
        system.find_missing_rules(net, check_executor, &entry.bdd_cache));

    std::vector<PrecisionRecall> cell(algorithms.size());
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      const LocalizationResult result =
          run_algorithm(algorithms[a], model, net.controller().change_log(),
                        net.clock().now(), options.change_window_ms);
      cell[a] = evaluate_hypothesis(result.hypothesis, truth);
    }
    slots[task.index] = std::move(cell);
    lease.release();
    busy_seconds.local(task.worker) += seconds_since(task_start);
  });

  merge_diagnostics(diag, diagnostics);
  SCOUT_LOG(LogLevel::kDebug, "experiment",
            "accuracy sweep: " << grid.task_count() << " cells over "
                << executor.workers() << " workers; busy "
                << busy_seconds.merge(
                       [](double a, double b) { return a + b; })
                << " s total, "
                << busy_seconds.merge([](double a, double b) {
                     return a > b ? a : b;
                   })
                << " s on the slowest worker");

  // Reduce in cell-index order — bit-identical for any executor.
  std::vector<AccuracySeries> series(algorithms.size());
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    series[a].name = algorithms[a].name;
    series[a].by_faults.resize(options.max_faults);
  }
  const double runs = static_cast<double>(options.runs);
  for (std::size_t f = 0; f < options.max_faults; ++f) {
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      double precision_sum = 0.0;
      double recall_sum = 0.0;
      for (std::size_t run = 0; run < options.runs; ++run) {
        const PrecisionRecall& pr = slots[f * options.runs + run][a];
        precision_sum += pr.precision;
        recall_sum += pr.recall;
      }
      series[a].by_faults[f] =
          AccuracyCell{precision_sum / runs, recall_sum / runs};
    }
  }
  return series;
}

std::vector<AccuracySeries> run_accuracy_sweep(
    const AccuracyOptions& options,
    std::span<const AlgorithmSpec> algorithms) {
  runtime::SerialExecutor executor;
  return run_accuracy_sweep(options, algorithms, executor);
}

std::vector<GammaBucket> run_gamma_experiment(const GammaOptions& options,
                                              runtime::Executor& executor,
                                              SweepDiagnostics* diagnostics) {
  const std::size_t shards = std::max<std::size_t>(1, options.shards);
  const runtime::CampaignGrid grid{options.seed, {{"shard", shards}}};

  std::optional<SweepNetworkCache> own_cache;
  SweepNetworkCache* cache = resolve_cache(options.cache_networks, nullptr,
                                           own_cache, executor.workers());

  struct ShardStats {
    std::vector<double> gamma_sums;
    std::vector<double> max_hypothesis;
    std::vector<std::size_t> samples;
  };
  runtime::ResultSlots<ShardStats> slots{shards};
  runtime::WorkerLocal<SweepDiagnostics> diag{executor.workers()};

  // Bucket scaffolding, shared shape across shards.
  std::vector<GammaBucket> buckets;
  {
    std::size_t lo = 1;
    for (const std::size_t hi : options.bucket_bounds) {
      buckets.push_back(GammaBucket{lo, hi, 0.0, 0.0, 0});
      lo = hi;
    }
  }
  const std::size_t n_buckets = buckets.size();

  runtime::run_campaign(executor, grid, [&](const runtime::CampaignTask&
                                                task) {
    const std::size_t shard = task.coords[0];
    // Even split of the fault stream; the first (faults % shards) shards
    // carry one extra.
    const std::size_t count = options.faults / shards +
                              (shard < options.faults % shards ? 1 : 0);

    ShardStats stats;
    stats.gamma_sums.assign(n_buckets, 0.0);
    stats.max_hypothesis.assign(n_buckets, 0.0);
    stats.samples.assign(n_buckets, 0);
    if (count == 0) {
      slots[task.index] = std::move(stats);
      return;
    }

    std::unique_ptr<SweepCacheAccess::Entry> local;
    SweepCacheAccess::Entry& entry = SweepCacheAccess::acquire(
        cache, local, task.worker, options.profile, options.seed,
        diag.local(task.worker));
    SimNetwork& net = *entry.net;
    ObjectFaultInjector& injector = *entry.injector;
    // The journal is armed in every mode: its rule-op undo *is* the
    // per-fault clean slate each iteration needs (this used to be a
    // clear-and-reinstall of every faulted switch — the pattern the cache
    // generalizes). Cached shards additionally repair logs and clock at
    // shard end so the next shard on this worker starts from baseline.
    CellLease lease{cache, entry, task.worker, diag.local(task.worker),
                    /*arm_always=*/true};

    Rng rng{task.seed};
    injector.set_rng(rng);
    RiskModel model = RiskModel::build_controller_model(*entry.index);
    const EquivalenceChecker checker{CheckMode::kSyntactic};

    const std::vector<ObjectRef> pool =
        injector.sample_objects(count, /*include_vrfs=*/false);
    const auto finish = [&] {
      lease.release();
      slots[task.index] = std::move(stats);
    };
    if (pool.empty()) {
      finish();
      return;
    }

    for (std::size_t i = 0; i < count; ++i) {
      const ObjectRef obj = pool[i % pool.size()];
      const InjectedFault fault = rng.chance(0.5)
                                      ? injector.inject_full(obj)
                                      : injector.inject_partial(obj);
      if (fault.rules_removed == 0) continue;

      // Check only the switches this fault touched (the others are known
      // clean: each iteration undoes its own damage below).
      std::vector<LogicalRule> missing;
      for (const SwitchId sw : fault.switches) {
        SwitchAgent* agent = net.controller().agent(sw);
        if (agent == nullptr) continue;
        CheckResult result =
            checker.check(net.controller().compiled().rules_for(sw),
                          agent->tcam().rules());
        missing.insert(missing.end(),
                       std::make_move_iterator(result.missing.begin()),
                       std::make_move_iterator(result.missing.end()));
      }
      model.clear_failures();
      model.augment(missing);

      const std::size_t suspects = model.suspect_set().size();
      ScoutLocalizer::Options lopts;
      lopts.change_window_ms = 60'000;
      const LocalizationResult result = ScoutLocalizer{lopts}.localize(
          model, net.controller().change_log(), net.clock().now());
      const double gamma =
          suspect_reduction(result.hypothesis.size(), suspects);

      for (std::size_t b = 0; b < n_buckets; ++b) {
        if (suspects >= buckets[b].lo && suspects < buckets[b].hi) {
          stats.gamma_sums[b] += gamma;
          stats.max_hypothesis[b] = std::max(
              stats.max_hypothesis[b],
              static_cast<double>(result.hypothesis.size()));
          ++stats.samples[b];
          break;
        }
      }

      // Exact repair of this fault's TCAM damage, so the next fault starts
      // from a clean deployment; then age the change log so this fault's
      // record leaves the recency window.
      entry.journal.undo_rule_ops(net);
      net.clock().advance(120'000);
    }
    finish();
  });
  merge_diagnostics(diag, diagnostics);

  // Merge shard partials in shard order (deterministic float accumulation).
  std::vector<double> gamma_sums(n_buckets, 0.0);
  for (const auto& stats : slots) {
    for (std::size_t b = 0; b < n_buckets; ++b) {
      gamma_sums[b] += stats.gamma_sums[b];
      buckets[b].max_hypothesis =
          std::max(buckets[b].max_hypothesis, stats.max_hypothesis[b]);
      buckets[b].samples += stats.samples[b];
    }
  }
  for (std::size_t b = 0; b < n_buckets; ++b) {
    if (buckets[b].samples > 0) {
      buckets[b].mean_gamma =
          gamma_sums[b] / static_cast<double>(buckets[b].samples);
    }
  }
  return buckets;
}

std::vector<GammaBucket> run_gamma_experiment(const GammaOptions& options) {
  runtime::SerialExecutor executor;
  return run_gamma_experiment(options, executor);
}

namespace {

// The measured portion of one scalability cell, over an already-deployed
// network: inject, then time check / model build / localization /
// correlation, the stages of ScoutSystem::analyze_controller. Shared by
// the one-off point API (fresh network, RNG continuing from generation)
// and the campaign (cached network, per-cell fault RNG).
ScalePoint measure_scale_point(SimNetwork& net, ObjectFaultInjector& injector,
                               const PolicyIndex& index, std::size_t n_faults,
                               runtime::Executor& check_executor,
                               LogicalBddCache* bdd_cache = nullptr) {
  ScalePoint point;
  for (const ObjectRef obj : injector.sample_objects(n_faults)) {
    injector.inject_full(obj);
  }

  const ScoutSystem system{ScoutSystem::Options{CheckMode::kSyntactic,
                                                ScoutLocalizer::Options{}}};
  auto t0 = Clock::now();
  const std::vector<LogicalRule> missing =
      system.find_missing_rules(net, check_executor, bdd_cache);
  point.check_seconds = seconds_since(t0);

  point.epg_pairs = index.pairs().size();

  t0 = Clock::now();
  RiskModel model = RiskModel::build_controller_model(index);
  model.augment(missing);
  point.model_build_seconds = seconds_since(t0);
  point.elements = model.element_count();
  point.risks = model.risk_count();
  point.edges = model.edge_count();

  t0 = Clock::now();
  ScoutLocalizer::Options lopts;
  lopts.change_window_ms = 60'000;
  const LocalizationResult result = ScoutLocalizer{lopts}.localize(
      model, net.controller().change_log(), net.clock().now());
  point.localize_seconds = seconds_since(t0);

  const EventCorrelationEngine correlation;
  t0 = Clock::now();
  const FaultLog faults = net.collect_fault_logs();
  const ObjectScope scope = ScoutSystem::build_object_scope(net);
  const std::vector<RootCause> causes = correlation.correlate(
      result.hypothesis, net.controller().change_log(), faults, scope);
  point.correlate_seconds = seconds_since(t0);
  (void)causes;
  return point;
}

GeneratorProfile scale_profile(std::size_t switches,
                               std::size_t pairs_per_switch) {
  GeneratorProfile profile = GeneratorProfile::scaled(switches);
  profile.target_pairs = switches * pairs_per_switch;
  return profile;
}

}  // namespace

ScalePoint run_scalability_point(std::size_t switches, std::uint64_t seed,
                                 std::size_t n_faults,
                                 std::size_t pairs_per_switch) {
  runtime::SerialExecutor executor;
  return run_scalability_point(switches, seed, n_faults, pairs_per_switch,
                               executor);
}

ScalePoint run_scalability_point(std::size_t switches, std::uint64_t seed,
                                 std::size_t n_faults,
                                 std::size_t pairs_per_switch,
                                 runtime::Executor& check_executor) {
  const GeneratorProfile profile =
      scale_profile(switches, pairs_per_switch);

  Rng rng{seed};
  GeneratedNetwork generated = generate_network(profile, rng);
  SimNetwork net{std::move(generated.fabric), std::move(generated.policy)};
  net.deploy();
  net.clock().advance(3'600'000);

  ObjectFaultInjector injector{net.controller(), rng};
  const PolicyIndex index{net.controller().policy()};
  ScalePoint point =
      measure_scale_point(net, injector, index, n_faults, check_executor);
  point.switches = switches;
  return point;
}

std::vector<ScalePoint> run_scalability_campaign(
    const ScaleCampaignOptions& options, runtime::Executor& executor,
    SweepDiagnostics* diagnostics) {
  const runtime::CampaignGrid grid{
      options.seed,
      {{"switches", options.switch_counts.size()}, {"rep", options.reps}}};
  runtime::ResultSlots<ScalePoint> slots{grid.task_count()};
  runtime::WorkerLocal<SweepDiagnostics> diag{executor.workers()};

  std::optional<SweepNetworkCache> own_cache;
  SweepNetworkCache* cache = resolve_cache(options.cache_networks, nullptr,
                                           own_cache, executor.workers());

  runtime::run_campaign(
      executor, grid, [&](const runtime::CampaignTask& task) {
        const std::size_t count_idx = task.coords[0];
        const std::size_t switches = options.switch_counts[count_idx];
        const GeneratorProfile profile =
            scale_profile(switches, options.pairs_per_switch);
        // One fabric per switch count: the network seed depends on the
        // count coordinate only, so a count's reps measure fault variance
        // on the same fabric (and repeat in a worker's cache slot).
        const std::uint64_t net_seed = derive_seed(options.seed, count_idx);

        std::unique_ptr<SweepCacheAccess::Entry> local;
        SweepCacheAccess::Entry& entry = SweepCacheAccess::acquire(
            cache, local, task.worker, profile, net_seed,
            diag.local(task.worker));
        CellLease lease{cache, entry, task.worker, diag.local(task.worker)};
        Rng rng{task.seed};
        entry.injector->set_rng(rng);

        // Cells keep their check serial: the campaign already saturates
        // the executor across cells, and re-entering the same executor
        // from inside one of its tasks would deadlock its worker.
        runtime::SerialExecutor serial_check;
        ScalePoint point =
            measure_scale_point(*entry.net, *entry.injector, *entry.index,
                                options.n_faults, serial_check,
                                &entry.bdd_cache);
        point.switches = switches;
        slots[task.index] = point;
        lease.release();
      });
  merge_diagnostics(diag, diagnostics);
  return slots.take();
}

MonitoringReport run_continuous_monitoring(const MonitoringOptions& options,
                                           runtime::Executor& executor) {
  // The network build is seeded independently of the churn so tuning the
  // mix never reshapes the fabric under test.
  Rng net_rng{derive_seed(options.seed, 0xF0)};
  GeneratedNetwork generated = generate_network(options.profile, net_rng);
  SimNetwork net{std::move(generated.fabric), std::move(generated.policy)};
  net.deploy();
  net.clock().advance(3'600'000);  // age out deploy-time records

  stream::EventBus bus;
  net.attach_event_bus(&bus);

  // Incident-provenance ground truth. Engines mint causes regardless
  // (counter bumps, no RNG draws); only *recording* is gated on the
  // ledger, so attaching it never changes the op stream or the digests.
  stream::CauseLedger cause_ledger;
  const bool incidents_on = options.collect_incidents;

  // Fault classes beyond the churn mix land on the deployed network before
  // the monitor is constructed (register_metrics reads per-agent eviction
  // policy names) and before any churn. Everything is seeded off the run
  // seed and per-agent ids, never off publisher count or timing.
  if (options.gray_rate > 0.0) {
    GrayFaultProfile gray;
    gray.misrender_rate = options.gray_rate;
    gray.misrender_burst = 3;
    gray.drop_rate = options.gray_drop_rate >= 0.0
                         ? options.gray_drop_rate
                         : options.gray_rate * 0.5;
    gray.drop_burst = 2;
    const std::uint64_t gray_seed = derive_seed(options.seed, 0x6A);
    for (const auto& agent : net.agents()) {
      agent->set_gray_profile(gray,
                              derive_seed(gray_seed, agent->id().value()));
      if (incidents_on) agent->set_cause_ledger(&cause_ledger);
    }
  }
  if (!options.evict_policy.empty()) {
    const std::uint64_t evict_seed = derive_seed(options.seed, 0xE0);
    for (const auto& agent : net.agents()) {
      agent->tcam().set_eviction_policy(make_eviction_policy(
          options.evict_policy,
          derive_seed(evict_seed, agent->id().value())));
    }
  }
  if (options.delivery_window > 0) {
    ChannelDelayProfile delay;
    delay.window = options.delivery_window;
    delay.seed = derive_seed(options.seed, 0xDE);
    net.controller().set_channel_delay(delay);
  }
  std::unique_ptr<StormSchedule> storm;
  if (!options.storm.empty()) {
    storm = std::make_unique<StormSchedule>(
        net, storm_profile(options.storm), derive_seed(options.seed, 0x57));
    storm->set_split_episodes(options.storm_split);
    if (incidents_on) storm->set_cause_ledger(&cause_ledger);
  }

  // Concurrent-publish transport: the ring is sized over the SwitchId
  // space and attached before the monitor is constructed, so the
  // monitor's ring metrics register. Pipelined runs use backpressure
  // (nothing evicted mid-run — markers would race the free-running
  // publishers); phased runs use eviction-to-resync.
  const bool concurrent = options.publishers > 0;
  std::unique_ptr<stream::MpscRing> ring;
  if (concurrent && (options.use_ring || options.pipelined)) {
    std::size_t sw_bound = 0;
    for (const auto& agent : net.agents()) {
      sw_bound = std::max<std::size_t>(sw_bound, agent->id().value() + 1);
    }
    stream::MpscRing::Options ropts;
    if (options.ring_capacity > 0) {
      ropts.shard_capacity = options.ring_capacity;
    }
    ropts.on_full = options.pipelined
                        ? stream::MpscRing::FullPolicy::kBackpressure
                        : stream::MpscRing::FullPolicy::kEvictToResync;
    ring = std::make_unique<stream::MpscRing>(options.publishers, sw_bound,
                                              ropts);
    bus.attach_ring(ring.get());
  }

  // Telemetry sinks owned by the run; the monitor holds bare pointers.
  std::unique_ptr<telemetry::MetricsRegistry> registry;
  std::unique_ptr<telemetry::TraceRecorder> trace;
  if (options.collect_telemetry) {
    registry = std::make_unique<telemetry::MetricsRegistry>(
        executor.workers());
    if (options.collect_trace) {
      trace = std::make_unique<telemetry::TraceRecorder>(
          executor.workers() + 1);
    }
  }

  // Observability layers owned by the run, like the registry/trace above.
  std::unique_ptr<stream::IncidentBuilder> incidents;
  if (incidents_on) {
    incidents = std::make_unique<stream::IncidentBuilder>(&cause_ledger,
                                                          registry.get());
  }
  std::unique_ptr<telemetry::FlightRecorder> flight;
  if (options.collect_flight) {
    flight = std::make_unique<telemetry::FlightRecorder>(
        telemetry::FlightRecorder::Options{});
  }
  std::unique_ptr<telemetry::HealthEngine> health;
  if (options.collect_health) {
    health = std::make_unique<telemetry::HealthEngine>(
        telemetry::HealthEngine::Options{}, registry.get());
  }

  stream::MonitorLoop::Options mopts;
  mopts.incremental = options.incremental;
  mopts.checker = options.checker;
  mopts.metrics = registry.get();
  mopts.trace = trace.get();
  mopts.snapshot_every_batches = options.snapshot_every_batches;
  mopts.incidents = incidents.get();
  mopts.flight = flight.get();
  mopts.flight_dump_path = options.flight_dump_path;
  mopts.health = health.get();
  stream::MonitorLoop monitor{net, bus, executor, mopts};
  monitor.prime();

  // Churn source: the legacy serial generator, or the multi-threaded
  // driver (which degrades to executing the identical schedule serially
  // when no ring is attached — the differential baseline leg).
  std::unique_ptr<stream::ChurnGenerator> churn;
  std::unique_ptr<stream::ConcurrentChurnDriver> driver;
  if (concurrent) {
    stream::ConcurrentChurnDriver::Options dopts;
    dopts.publishers = options.publishers;
    dopts.mix = options.mix;
    dopts.use_ring = ring != nullptr;
    driver = std::make_unique<stream::ConcurrentChurnDriver>(
        net, bus, derive_seed(options.seed, 0xCE), dopts);
    if (incidents_on) driver->set_cause_ledger(&cause_ledger);
  } else {
    churn = std::make_unique<stream::ChurnGenerator>(
        net, bus, derive_seed(options.seed, 0xCE), options.mix);
    if (incidents_on) churn->set_cause_ledger(&cause_ledger);
  }
  const ScoutSystem verify_system{
      ScoutSystem::Options{CheckMode::kExactBdd, ScoutLocalizer::Options{}}};

  MonitoringReport report;
  std::uint64_t digest = derive_seed(options.seed, 0xD1);
  FabricCheck last_check;
  const auto run_start = Clock::now();
  const auto fold_verdict = [&](stream::MonitorVerdict& verdict) {
    report.events += verdict.events;
    report.drain_seconds += verdict.drain_ms / 1e3;
    ++report.batches;
    if (!verdict.check.inconsistent.empty()) ++report.inconsistent_batches;
    digest = fabric_check_digest(digest, verdict.check);
    last_check = std::move(verdict.check);
  };
  if (options.pipelined && driver != nullptr) {
    // Free-run in segments: the publishers burn a segment's op budget
    // while the monitor drains concurrently (batches self-size to the
    // backlog), then — at publisher quiescence — a serial control tail
    // repairs/resyncs switches so the fault schedule doesn't drain the
    // TCAMs dry (its events ride the next segment's drains). Batch
    // boundaries are timing-dependent here, so the correctness gate is
    // the final quiesced verdict against ground truth (below), not the
    // batch digest stream.
    const std::size_t segment_ops =
        std::max<std::size_t>(2500, options.batch_ops);
    while (report.events < options.events) {
      const stream::EventBus::Cursor before = bus.cursor();
      driver->start(segment_ops);
      for (;;) {
        stream::MonitorVerdict verdict = monitor.drain();
        if (verdict.events == 0) {
          if (!driver->producing()) break;
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          continue;
        }
        fold_verdict(verdict);
      }
      (void)driver->pump_control(segment_ops);
      if (storm != nullptr) {
        // Episodes fire in the serial control tail (publishers quiesced);
        // their events ride the next segment's drains, or the tail drain
        // below for the last one.
        storm->run_episode();
        if (registry != nullptr) {
          registry->add_counter("faults.storm.episodes", 1);
        }
      }
      if (bus.cursor() == before) break;  // degenerate: nothing to churn
    }
    driver->stop();
    // Tail drain after quiescence: the last published events, plus shadow
    // resyncs for anything evicted by the stop()-time close.
    stream::MonitorVerdict tail = monitor.drain();
    fold_verdict(tail);
    // Wall stops at quiescence: the ground-truth cross-check below is the
    // gate's referee, not part of the monitored pipeline.
    report.wall_seconds = seconds_since(run_start);
    report.final_verdict_matches_fresh =
        fabric_check_identical(last_check, verify_system.check_all(net));
  } else {
    while (report.events < options.events) {
      const std::size_t produced = driver != nullptr
                                       ? driver->pump(options.batch_ops)
                                       : churn->pump(options.batch_ops);
      if (produced == 0) break;  // degenerate network: nothing left to churn
      stream::MonitorVerdict verdict = monitor.drain();
      fold_verdict(verdict);
      if (options.verify_batches) {
        const FabricCheck fresh = verify_system.check_all(net);
        if (!fabric_check_identical(last_check, fresh)) {
          ++report.verify_mismatches;
        }
      }
      if (storm != nullptr && options.storm_every_batches > 0 &&
          report.batches % options.storm_every_batches == 0) {
        storm->run_episode();
        if (registry != nullptr) {
          registry->add_counter("faults.storm.episodes", 1);
        }
      }
      if (options.target_events_per_sec > 0.0) {
        const double due = static_cast<double>(report.events) /
                           options.target_events_per_sec;
        const double ahead = due - seconds_since(run_start);
        if (ahead > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
        }
      }
    }
    report.wall_seconds = seconds_since(run_start);
  }
  report.churn_ops =
      driver != nullptr ? driver->ops_applied() : churn->ops_applied();
  report.verdict_digest = digest;
  report.publish_wall_events_per_sec =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.events) / report.wall_seconds
          : 0.0;
  if (ring != nullptr) {
    const stream::MpscRing::Stats ring_stats = ring->stats();
    report.ring_evictions = ring_stats.evictions;
    report.ring_full_stalls = ring_stats.full_stalls;
  }
  report.events_per_sec =
      report.drain_seconds > 0.0
          ? static_cast<double>(report.events) / report.drain_seconds
          : 0.0;
  report.checker = monitor.checker_stats();
  if (storm != nullptr) report.storm_episodes = storm->stats().episodes;
  for (const auto& agent : net.agents()) {
    report.gray_misrenders += agent->gray_misrenders();
    report.gray_drops += agent->gray_drops();
    report.tcam_evictions += agent->tcam().evictions();
  }

  if (incidents != nullptr) {
    incidents->finalize(report.batches, net.clock().now());
    const stream::IncidentBuilder::Totals& totals = incidents->totals();
    report.incidents = totals.incidents;
    report.incidents_unattributed = totals.unattributed_incidents;
    report.incident_first_cause_correct = totals.first_cause_correct;
    report.incident_precision = totals.precision();
    report.incident_recall = totals.recall();
    report.incident_json = incidents->to_json();
    if (!options.incident_log_path.empty()) {
      if (!incidents->write_file(options.incident_log_path)) {
        SCOUT_WARN("stream", "failed to write incident log to "
                                 << options.incident_log_path);
      }
    }
  }
  if (health != nullptr) {
    report.health_status = static_cast<int>(health->overall());
    JsonWriter hw;
    health->write_json(hw);
    report.health_json = hw.str();
  }
  if (flight != nullptr) {
    report.flight_entries = flight->total_recorded();
    // Final dump: the loop already dumped on clean→failing transitions;
    // overwriting with the end-of-run state keeps the newest entries and
    // guarantees the file exists even for runs that never failed.
    if (!options.flight_dump_path.empty()) {
      if (!flight->dump_to_file(options.flight_dump_path.c_str())) {
        SCOUT_WARN("stream", "failed to write flight dump to "
                                 << options.flight_dump_path);
      }
    }
  }

  report.final_inconsistent = last_check.inconsistent.size();
  report.final_missing = last_check.missing_rules.size();
  report.final_extra = last_check.extra_rule_count;
  if (options.localize_final && !last_check.inconsistent.empty()) {
    report.hypothesis_size =
        monitor.localize(last_check).hypothesis.size();
  }
  if (options.remediate_final && !last_check.missing_rules.empty()) {
    report.final_still_missing = monitor.remediate(last_check);
  }

  if (registry != nullptr) {
    // The registry histograms are the one latency source of truth: the
    // report percentiles are read back out of the snapshot, the same
    // numbers scoutctl --telemetry and the benches export.
    report.telemetry = monitor.snapshot_metrics();
    report.periodic_snapshot_count = monitor.periodic_snapshots().size();
    if (const LogHistogram* wall =
            report.telemetry.histogram("stream.wall_latency_ms")) {
      report.p50_latency_ms = wall->quantile(0.50);
      report.p99_latency_ms = wall->quantile(0.99);
      report.max_latency_ms = wall->max();
    }
    if (const LogHistogram* sim =
            report.telemetry.histogram("stream.sim_latency_ms")) {
      report.sim_p50_latency_ms = sim->quantile(0.50);
      report.sim_p99_latency_ms = sim->quantile(0.99);
      report.sim_max_latency_ms = sim->max();
    }
    if (trace != nullptr) {
      report.trace_json = trace->to_chrome_json(&report.telemetry);
    }
  }
  return report;
}

std::vector<AnalysisScalingPoint> run_analysis_scaling(
    const AnalysisScalingOptions& options) {
  GeneratorProfile profile = GeneratorProfile::scaled(options.switches);
  profile.target_pairs = options.switches * options.pairs_per_switch;

  Rng rng{options.seed};
  GeneratedNetwork generated = generate_network(profile, rng);
  SimNetwork net{std::move(generated.fabric), std::move(generated.policy)};
  net.deploy();
  net.clock().advance(3'600'000);

  ObjectFaultInjector injector{net.controller(), rng};
  for (const ObjectRef obj : injector.sample_objects(options.n_faults)) {
    injector.inject_full(obj);
  }

  const ScoutSystem system{
      ScoutSystem::Options{options.check_mode, ScoutLocalizer::Options{}}};
  std::vector<AnalysisScalingPoint> points;
  points.reserve(options.thread_counts.size());
  for (const std::size_t threads : options.thread_counts) {
    const auto executor = runtime::make_executor(threads);
    // In BDD mode each worker gets a fresh logical-BDD arena per thread
    // count (worker counts differ), warmed within the measured check —
    // the steady-state reuse benches live in bdd_micro; structural
    // outputs stay identical across counts either way.
    LogicalBddCache bdd_cache{executor->workers()};
    AnalysisScalingPoint point;
    point.threads = executor->workers();
    const auto t0 = Clock::now();
    const FabricCheck check = system.check_all(net, *executor, &bdd_cache);
    point.check_seconds = seconds_since(t0);
    point.missing_rules = check.missing_rules.size();
    point.switches_inconsistent = check.inconsistent.size();
    point.extra_rules = check.extra_rule_count;
    points.push_back(point);
  }
  return points;
}

}  // namespace scout
