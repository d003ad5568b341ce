// monitor-faults / monitor-policy: the continuous monitor (src/stream)
// watching a seeded churn stream.
//
// Set-up (repeated, median reported): generate_network -> SimNetwork::
// deploy -> EventBus attach -> MonitorLoop::prime.
//
// Closed-loop phase: ops_per_drain churn ops, then one MonitorLoop::drain,
// closed_drains times (constants per workload in kWorkloads below).
// Batches are a pure function of the seed, so the verdict stream is
// digest-checkable; verified_per_cpu_s is churn ops over the process CPU
// time spent in MonitorLoop::drain. The traced run builds a twin fabric
// from the same seed and drives it one public call at a time
// (events_since -> stage -> process_shard per shard on the executor ->
// compose -> compact), interleaved drain by drain with the untraced
// MonitorLoop. The two verdict streams must match. Coverage: each traced
// drain's layer times are compared with its paired MonitorLoop::drain wall
// time; the median share of the drain they miss, and their miss over the
// whole closed loop, must stay within tolerances. The remainder is
// reported as monitor.self_ms.
//
// Open-loop phase: churn ops fall due at open_rate per second and are
// applied one at a time (pump(1, false)), so the op stream does not depend
// on timing; the driver drains whenever events are pending. Each event's
// latency runs from its op's due time to the verdict that covers it, on the
// wall clock and on the drain CPU clock (see below).
#include <algorithm>
#include <cmath>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/runtime/campaign.h"
#include "src/scout/scout_system.h"
#include "src/scout/sim_network.h"
#include "src/stream/churn_generator.h"
#include "src/stream/event_bus.h"
#include "src/stream/incremental_checker.h"
#include "src/stream/monitor_loop.h"
#include "src/workload/policy_generator.h"
#include "workloads.h"

namespace scoutbench {
namespace {

using scout::FabricCheck;
using scout::SimNetwork;
namespace stream = scout::stream;

// One monitor workload: what its churn stream holds and how each phase
// drives it.
struct MonitorWorkload {
  std::string_view name;
  std::size_t migrate_every;  // every n-th churn op migrates; 0 = never
  std::size_t closed_drains;  // closed-loop phase length
  std::size_t ops_per_drain;
  double open_rate;           // offered churn ops per second, open loop
};

// The open-loop rates sit far below closed-loop capacity (about 500 and
// 130 ops/s of wall time): ops that fall due during a slow drain queue
// behind it. On monitor-policy the ops queued behind each rebuild (about
// rebuild time x rate of the 40 ops between migrations, a sixth of all ops
// at 20 ops/s) keep the median op among the quick drains; at 10 ops/s the
// run had half the samples and its CPU p50 spread 0.14 between seeds
// against 0.10 at 20 ops/s.
constexpr MonitorWorkload kWorkloads[] = {
    {"monitor-faults", 0, 200, 16, 40.0},
    {"monitor-policy", 40, 40, 40, 20.0},
};

// Both monitor workloads watch the same fabric shape.
constexpr std::size_t kSwitches = 32;
constexpr std::size_t kPairsPerSwitch = 20;
// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupReps = 5;

// Coverage tolerances of the traced run. Each traced drain runs on a twin
// fabric next to its MonitorLoop::drain, so one pair can differ by machine
// noise (a slow spell of the host lands on one side). The median over
// drains of the share of MonitorLoop::drain the layer calls miss must stay
// within kCoverDrainShare, and their miss over the closed loop within
// kCoverTotalShare of the MonitorLoop::drain total.
constexpr double kCoverDrainShare = 0.1;
constexpr double kCoverTotalShare = 0.1;

// ChurnMix::recover weight, twice the default crash weight (0.015). At the
// default recover weight (equal to crash) the number of crashed, wiped
// switches is a driftless random walk, so fabric state and drain cost
// drift apart between runs; above it the count returns to zero.
constexpr double kRecoverWeight = 0.03;

// One deployed fabric with its event bus and churn sources. Members are
// destroyed churn -> net -> bus, the reverse of their dependencies.
struct Fabric {
  stream::EventBus bus;
  std::unique_ptr<SimNetwork> net;
  // Fault churn (the default ChurnMix without migrations) and, when the
  // workload migrates, a generator whose only op is an endpoint migration.
  std::unique_ptr<stream::ChurnGenerator> churn;
  std::unique_ptr<stream::ChurnGenerator> migrator;
  std::size_t migrate_every = 0;
  std::size_t ops = 0;

  // Apply one churn op: every migrate_every-th op is a migration (a
  // compiled-epoch bump), so every run of a workload rebuilds equally
  // often; the rest come from the fault mix.
  void apply_op() {
    ++ops;
    stream::ChurnGenerator& source =
        migrator != nullptr && ops % migrate_every == 0 ? *migrator : *churn;
    (void)source.pump(1, /*allow_valve=*/false);
  }
};

struct SetupTimes {
  double generate_ms = 0.0;
  double deploy_ms = 0.0;
};

std::unique_ptr<Fabric> build_fabric(const MonitorWorkload& config,
                                     const RunArgs& args, SetupTimes& times) {
  scout::GeneratorProfile profile = scout::GeneratorProfile::scaled(kSwitches);
  profile.target_pairs = kSwitches * kPairsPerSwitch;

  auto fabric = std::make_unique<Fabric>();
  auto t0 = WallClock::now();
  scout::Rng rng{scout::derive_seed(kFabricSeed, 0xF0)};
  scout::GeneratedNetwork generated = scout::generate_network(profile, rng);
  times.generate_ms = ms_since(t0);

  t0 = WallClock::now();
  fabric->net = std::make_unique<SimNetwork>(std::move(generated.fabric),
                                             std::move(generated.policy));
  (void)fabric->net->deploy();
  fabric->net->clock().advance(3'600'000);  // age out deploy-time records
  times.deploy_ms = ms_since(t0);

  fabric->net->attach_event_bus(&fabric->bus);
  stream::ChurnMix faults;
  faults.migrate = 0.0;
  faults.recover = kRecoverWeight;
  fabric->churn = std::make_unique<stream::ChurnGenerator>(
      *fabric->net, fabric->bus, scout::derive_seed(args.seed, 0xCE), faults);
  if (config.migrate_every > 0) {
    const stream::ChurnMix migrations{0, 0, 0, 0, 0, 0, 0, 1};
    fabric->migrator = std::make_unique<stream::ChurnGenerator>(
        *fabric->net, fabric->bus, scout::derive_seed(args.seed, 0xAE),
        migrations);
    fabric->migrate_every = config.migrate_every;
  }
  return fabric;
}

// The traced twin of MonitorLoop's incremental path: the same public
// calls, one at a time, each wrapped in a span.
class SplitMonitor {
 public:
  struct DrainTimes {
    double bus_ms = 0.0;      // events_since + compact
    double stage_ms = 0.0;
    double run_ms = 0.0;      // executor fan-out wall time
    double compose_ms = 0.0;
    double shard_sum_ms = 0.0;
    double shard_max_ms = 0.0;
    [[nodiscard]] double checker_ms() const {
      return stage_ms + run_ms + compose_ms;
    }
    [[nodiscard]] double total_ms() const { return bus_ms + checker_ms(); }
  };

  SplitMonitor(Fabric& fabric, scout::runtime::Executor& executor,
               Spans& spans)
      : fabric_(&fabric),
        executor_(&executor),
        spans_(&spans),
        checker_(*fabric.net, executor.workers()),
        shard_ms_(checker_.shard_count(), 0.0) {}

  void prime() {
    cursor_ = fabric_->bus.cursor();
    fabric_->bus.compact(cursor_);
    checker_.stage({});
    epoch_ = fabric_->net->controller().compiled_epoch();
    executor_->run(checker_.shard_count(), [&](std::size_t shard, std::size_t) {
      checker_.process_shard(shard, epoch_);
    });
  }

  // One drain; `group` tags its spans. Returns the fabric verdict.
  FabricCheck drain(std::int64_t group, DrainTimes& t, std::size_t& events,
                    bool& epoch_bumped) {
    auto drain_span = spans_->open(0, "drain", group);
    auto t0 = WallClock::now();
    std::span<const stream::StreamEvent> batch;
    {
      auto s = spans_->open(0, "bus.events_since", group);
      batch = fabric_->bus.events_since(cursor_);
    }
    t.bus_ms += ms_since(t0);
    events = batch.size();
    cursor_ += batch.size();
    const std::uint64_t epoch = fabric_->net->controller().compiled_epoch();
    epoch_bumped = epoch != epoch_;
    epoch_ = epoch;

    t0 = WallClock::now();
    {
      auto s = spans_->open(0, "checker.stage", group);
      checker_.stage(batch);
    }
    t.stage_ms += ms_since(t0);

    std::fill(shard_ms_.begin(), shard_ms_.end(), 0.0);
    t0 = WallClock::now();
    {
      auto s = spans_->open(0, "runtime.run", group);
      executor_->run(checker_.shard_count(),
                     [&](std::size_t shard, std::size_t worker) {
                       auto ws = spans_->open(worker + 1,
                                              "checker.process_shard", group);
                       const auto ts = WallClock::now();
                       checker_.process_shard(shard, epoch);
                       shard_ms_[shard] = ms_since(ts);
                     });
    }
    t.run_ms += ms_since(t0);
    double shard_max = 0.0;
    for (const double ms : shard_ms_) {
      t.shard_sum_ms += ms;
      shard_max = std::max(shard_max, ms);
    }
    t.shard_max_ms += shard_max;

    t0 = WallClock::now();
    FabricCheck check;
    {
      auto s = spans_->open(0, "checker.compose", group);
      check = checker_.compose();
    }
    t.compose_ms += ms_since(t0);

    t0 = WallClock::now();
    {
      auto s = spans_->open(0, "bus.compact", group);
      fabric_->bus.compact(cursor_);  // the batch span dies here
    }
    t.bus_ms += ms_since(t0);
    return check;
  }

  [[nodiscard]] const stream::IncrementalChecker& checker() const noexcept {
    return checker_;
  }

 private:
  Fabric* fabric_;
  scout::runtime::Executor* executor_;
  Spans* spans_;
  stream::IncrementalChecker checker_;
  stream::EventBus::Cursor cursor_ = 0;
  std::uint64_t epoch_ = 0;
  std::vector<double> shard_ms_;  // slot per shard, written by its worker
};

}  // namespace

std::optional<Report> run_monitor(const RunArgs& args) {
  const auto it = std::find_if(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&](const MonitorWorkload& w) { return w.name == args.workload; });
  if (it == std::end(kWorkloads)) return std::nullopt;
  const MonitorWorkload& config = *it;
  Report report;
  const auto executor = scout::runtime::make_executor(kExecutorWorkers);
  const scout::ScoutSystem exact{};  // fresh exact check_all referee

  // ---- set-up, repeated; the last fabric is the one measured ----------
  Samples setup_cpu_ms, generate_ms, deploy_ms, prime_ms;
  std::unique_ptr<stream::MonitorLoop> monitor;
  std::unique_ptr<Fabric> fabric;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    monitor.reset();
    fabric.reset();
    SetupTimes times;
    const double c0 = cpu_ms();
    fabric = build_fabric(config, args, times);
    const auto tp = WallClock::now();
    monitor = std::make_unique<stream::MonitorLoop>(*fabric->net, fabric->bus,
                                                    *executor);
    monitor->prime();
    prime_ms.add(ms_since(tp));
    setup_cpu_ms.add(cpu_ms() - c0);
    generate_ms.add(times.generate_ms);
    deploy_ms.add(times.deploy_ms);
  }

  // ---- closed loop -------------------------------------------------------
  Spans spans{executor->workers() + 1};
  std::unique_ptr<Fabric> twin;
  std::unique_ptr<SplitMonitor> split;
  if (args.traced) {
    SetupTimes ignored;
    twin = build_fabric(config, args, ignored);
    split = std::make_unique<SplitMonitor>(*twin, *executor, spans);
    split->prime();
  }

  std::uint64_t digest = scout::derive_seed(args.seed, 0xD1);
  std::uint64_t split_digest = digest;
  std::size_t closed_events = 0;
  std::size_t split_events_total = 0;
  double closed_busy_ms = 0.0;
  double closed_cpu_ms = 0.0;
  double split_busy_ms = 0.0;
  double rebuild_drain_ms = 0.0;
  std::size_t verdict_mismatches = 0;
  Samples miss_share;  // per drain: share of MonitorLoop::drain not covered
  double self_ms = 0.0;
  SplitMonitor::DrainTimes layer;
  FabricCheck last;
  for (std::size_t d = 0; d < config.closed_drains; ++d) {
    for (std::size_t i = 0; i < config.ops_per_drain; ++i) {
      fabric->apply_op();
      if (twin != nullptr) twin->apply_op();
    }
    stream::MonitorVerdict verdict;
    double monitor_ms = 0.0;
    double monitor_cpu_ms = 0.0;
    const auto run_monitor_drain = [&] {
      const double c0 = cpu_ms();
      const auto t0 = WallClock::now();
      verdict = monitor->drain();
      monitor_ms = ms_since(t0);
      monitor_cpu_ms = cpu_ms() - c0;
    };
    // Alternate which side drains first so neither always inherits the
    // other's cache state.
    const bool split_first = split != nullptr && d % 2 == 1;
    if (!split_first) run_monitor_drain();
    if (split != nullptr) {
      SplitMonitor::DrainTimes t;
      std::size_t events = 0;
      bool bumped = false;
      const FabricCheck check =
          split->drain(static_cast<std::int64_t>(d), t, events, bumped);
      if (split_first) run_monitor_drain();
      split_events_total += events;
      split_busy_ms += t.total_ms();
      if (bumped) rebuild_drain_ms += t.checker_ms();
      split_digest = scout::fabric_check_digest(split_digest, check);
      if (!scout::fabric_check_identical(check, verdict.check) ||
          events != verdict.events) {
        ++verdict_mismatches;
      }
      self_ms += monitor_ms - t.total_ms();
      if (monitor_ms > 0) miss_share.add(1.0 - t.total_ms() / monitor_ms);
      layer.bus_ms += t.bus_ms;
      layer.stage_ms += t.stage_ms;
      layer.run_ms += t.run_ms;
      layer.compose_ms += t.compose_ms;
      layer.shard_sum_ms += t.shard_sum_ms;
      layer.shard_max_ms += t.shard_max_ms;
    }
    closed_events += verdict.events;
    closed_busy_ms += monitor_ms;
    closed_cpu_ms += monitor_cpu_ms;
    digest = scout::fabric_check_digest(digest, verdict.check);
    last = std::move(verdict.check);
  }
  const FabricCheck closed_fresh = exact.check_all(*fabric->net, *executor);
  report.gate(scout::fabric_check_identical(last, closed_fresh),
              "closed loop: final MonitorLoop verdict differs from a fresh "
              "exact ScoutSystem::check_all");
  report.gate(closed_events > 0, "closed loop: churn published no events");
  report.gate(closed_cpu_ms > 0 && closed_busy_ms > 0,
              "closed loop: drains took no measurable time");

  if (split != nullptr) {
    report.gate(verdict_mismatches == 0 && split_digest == digest &&
                    split_events_total == closed_events,
                "closed loop: traced split-checker verdicts differ from the "
                "untraced MonitorLoop (" +
                    std::to_string(verdict_mismatches) + " drains)");
    report.gate(std::abs(miss_share.quantile(0.5)) <= kCoverDrainShare,
                "coverage: the traced layer calls miss a median " +
                    std::to_string(miss_share.quantile(0.5) * 100) +
                    "% of each MonitorLoop::drain");
    report.gate(std::abs(self_ms) <= kCoverTotalShare * closed_busy_ms,
                "coverage: traced layer totals miss the MonitorLoop::drain "
                "total by more than the tolerance");

    const stream::IncrementalChecker& checker = split->checker();
    const auto st = checker.stats();
    const auto arena = checker.arena_totals();
    const double shards = static_cast<double>(checker.shard_count());
    report.per_layer("checker.stage_ms", layer.stage_ms, "ms");
    report.per_layer("checker.shard_busy_ms", layer.shard_sum_ms, "ms");
    report.per_layer("checker.shard_crit_ms", layer.shard_max_ms, "ms");
    report.per_layer("checker.shard_skew",
                     layer.shard_sum_ms > 0
                         ? layer.shard_max_ms / (layer.shard_sum_ms / shards)
                         : 0.0,
                     "ratio");
    report.per_layer("checker.compose_ms", layer.compose_ms, "ms");
    report.per_layer("runtime.run_ms", layer.run_ms, "ms");
    report.per_layer("bus.io_ms", layer.bus_ms, "ms");
    report.per_layer("checker.events_applied",
                     static_cast<double>(st.events_applied), "count");
    report.per_layer("checker.incremental_updates",
                     static_cast<double>(st.incremental_updates), "count");
    report.per_layer("checker.diff_recomputes",
                     static_cast<double>(st.diff_recomputes), "count");
    report.per_layer("checker.verdicts_reused",
                     static_cast<double>(st.verdicts_reused), "count");
    const double verdicts =
        static_cast<double>(st.verdicts_reused + st.diff_recomputes);
    report.per_layer("checker.reuse_ratio",
                     verdicts > 0 ? static_cast<double>(st.verdicts_reused) /
                                        verdicts
                                  : 0.0,
                     "ratio");
    report.per_layer("checker.epoch_rebuilds",
                     static_cast<double>(st.epoch_rebuilds), "count");
    report.per_layer("checker.threshold_trips",
                     static_cast<double>(st.threshold_trips), "count");
    report.per_layer("checker.unsafe_rebuilds",
                     static_cast<double>(st.unsafe_rebuilds), "count");
    report.per_layer("checker.rebuild_drain_ms", rebuild_drain_ms, "ms");
    report.per_layer("bdd.arena_nodes", static_cast<double>(arena.nodes),
                     "count");
    report.per_layer("bdd.peak_nodes", static_cast<double>(arena.peak_nodes),
                     "count");
    report.per_layer("bdd.unique_inserts",
                     static_cast<double>(arena.unique_inserts), "count");
    report.per_layer("bdd.unique_load", arena.unique_load, "ratio");
    report.per_layer("bdd.cache_lookups",
                     static_cast<double>(arena.cache_lookups), "count");
    report.per_layer("bdd.cache_hit_rate", arena.cache_hit_rate(), "ratio");
    report.per_layer("bdd.rollbacks", static_cast<double>(arena.rollbacks),
                     "count");
    report.per_layer("monitor.self_ms", self_ms, "ms",
                     config.closed_drains);
    report.note("coverage",
                "{\"drain_miss_share_p50\": " +
                    std::to_string(miss_share.quantile(0.5)) +
                    ", \"total_miss_share\": " +
                    std::to_string(self_ms / closed_busy_ms) + "}");
    report.per_layer("trace.overhead_pct",
                     closed_busy_ms > 0
                         ? (split_busy_ms / closed_busy_ms - 1.0) * 100.0
                         : 0.0,
                     "%");
    if (!spans.write(args.out_dir + "/" + args.workload + "-seed" +
                     std::to_string(args.seed))) {
      report.gate(false, "could not write the span files under " +
                             args.out_dir);
    }
    split.reset();
    twin.reset();
  }

  // ---- open loop -----------------------------------------------------------
  const auto open_ops = static_cast<std::size_t>(
      std::llround(args.seconds * config.open_rate));
  const auto period = std::chrono::duration_cast<WallClock::duration>(
      std::chrono::duration<double>(1.0 / config.open_rate));
  // The drain CPU clock advances only inside MonitorLoop::drain, by the
  // process CPU time the drain used. An op's CPU latency is its advance
  // from the op's due time to its verdict: the monitor work the op waited
  // for and its own, without the host's steal, the wake-up of idle CPUs
  // and the load generator. An op that fell due while a drain ran reads
  // the clock interpolated across that drain.
  struct PendingOp {
    WallClock::time_point due;
    double due_cpu_ms = 0.0;  // drain CPU clock at `due`
    std::size_t events = 0;
  };
  std::vector<PendingOp> pending;
  double drain_cpu_clock = 0.0;
  struct {
    WallClock::time_point start, end;
    double clock_at_start = 0.0;
  } last_drain;
  const auto drain_cpu_clock_at = [&](WallClock::time_point t) {
    if (t >= last_drain.end) return drain_cpu_clock;
    const double frac = std::clamp(
        ms_between(last_drain.start, t) /
            ms_between(last_drain.start, last_drain.end),
        0.0, 1.0);
    return last_drain.clock_at_start +
           frac * (drain_cpu_clock - last_drain.clock_at_start);
  };
  Samples cpu_latency_ms, latency_ms, event_latency_ms, queue_wait_ms,
      verify_ms, lag_ms, drain_ms, batch_events;
  double pump_ms = 0.0;
  std::size_t open_events = 0;
  std::size_t covered_events = 0;
  std::size_t backlog_max = 0;
  std::size_t short_drains = 0;
  const auto bus_before = fabric->bus.stats();
  const stream::EventBus::Cursor open_start_cursor = fabric->bus.cursor();
  const auto start = WallClock::now() + std::chrono::milliseconds(1);
  std::size_t next = 0;
  const auto open_begin = WallClock::now();
  for (;;) {
    auto now = WallClock::now();
    while (next < open_ops && start + period * next <= now) {
      const auto due = start + period * next;
      lag_ms.add(ms_between(due, now));
      const stream::EventBus::Cursor before = fabric->bus.cursor();
      const auto tp = WallClock::now();
      fabric->apply_op();
      now = WallClock::now();
      pump_ms += ms_between(tp, now);
      const std::size_t published = fabric->bus.cursor() - before;
      open_events += published;
      if (published > 0) {
        pending.push_back(PendingOp{due, drain_cpu_clock_at(due), published});
      }
      ++next;
    }
    if (!pending.empty()) {
      backlog_max = std::max(backlog_max, fabric->bus.retained());
      const double c0 = cpu_ms();
      const auto d0 = WallClock::now();
      stream::MonitorVerdict verdict = monitor->drain();
      const auto d1 = WallClock::now();
      last_drain = {d0, d1, drain_cpu_clock};
      drain_cpu_clock += cpu_ms() - c0;
      std::size_t expected = 0;
      for (const PendingOp& op : pending) {
        cpu_latency_ms.add(drain_cpu_clock - op.due_cpu_ms);
        latency_ms.add(ms_between(op.due, d1));
        event_latency_ms.add(ms_between(op.due, d1), op.events);
        queue_wait_ms.add(ms_between(op.due, d0));
        verify_ms.add(ms_between(d0, d1));
        expected += op.events;
      }
      if (verdict.events != expected) ++short_drains;
      covered_events += verdict.events;
      drain_ms.add(ms_between(d0, d1));
      batch_events.add(static_cast<double>(verdict.events));
      last = std::move(verdict.check);
      pending.clear();
      continue;
    }
    if (next >= open_ops) break;
    std::this_thread::sleep_until(start + period * next);
  }
  const double open_wall_ms = ms_since(open_begin);
  const std::size_t unreflected =
      (fabric->bus.cursor() - open_start_cursor) - covered_events;
  const FabricCheck open_fresh = exact.check_all(*fabric->net, *executor);
  report.gate(scout::fabric_check_identical(last, open_fresh),
              "open loop: final MonitorLoop verdict differs from a fresh "
              "exact ScoutSystem::check_all");
  report.gate(short_drains == 0,
              "open loop: a drain did not cover exactly the pending events");
  report.gate(unreflected == 0, "open loop: events never reached a verdict");
  report.gate(latency_ms.count() > 0 && drain_cpu_clock > 0,
              "open loop: no latency samples");

  report.set_operations(closed_events + open_events, unreflected);

  // ---- metrics -------------------------------------------------------------
  report.end_to_end("setup_s", setup_cpu_ms.quantile(0.5) / 1e3, "s",
                    setup_cpu_ms.count());
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  report.end_to_end("verified_per_cpu_s",
                    static_cast<double>(config.closed_drains *
                                        config.ops_per_drain) /
                        (closed_cpu_ms / 1e3),
                    "1/cpu-s", config.closed_drains);
  report.end_to_end("verdict_cpu_p50_ms", cpu_latency_ms.quantile(0.50), "ms",
                    cpu_latency_ms.count());
  // The final-verdict gates above require exact agreement with a fresh
  // check_all, so a correct monitor run scores 1 on both by construction.
  report.end_to_end("precision", 1.0, "ratio");
  report.end_to_end("recall", 1.0, "ratio");

  const auto bus_after = fabric->bus.stats();
  report.per_layer("workload.generate_ms", generate_ms.quantile(0.5), "ms",
                   generate_ms.count());
  report.per_layer("controller.deploy_ms", deploy_ms.quantile(0.5), "ms",
                   deploy_ms.count());
  report.per_layer("monitor.prime_ms", prime_ms.quantile(0.5), "ms",
                   prime_ms.count());
  report.per_layer("churn.ops", static_cast<double>(open_ops), "count");
  report.per_layer("churn.events", static_cast<double>(open_events), "count");
  report.per_layer("churn.pump_ms", pump_ms, "ms", open_ops);
  report.per_layer("loadgen.lag_p99_ms", lag_ms.quantile(0.99), "ms",
                   lag_ms.count());
  report.per_layer("bus.events",
                   static_cast<double>(bus_after.published -
                                       bus_before.published),
                   "count");
  report.per_layer("bus.backlog_max", static_cast<double>(backlog_max),
                   "count");
  report.per_layer("bus.compacted_events",
                   static_cast<double>(bus_after.compacted_events -
                                       bus_before.compacted_events),
                   "count");
  report.per_layer("monitor.drains", static_cast<double>(drain_ms.count()),
                   "count");
  report.per_layer("monitor.utilization",
                   open_wall_ms > 0 ? drain_ms.sum() / open_wall_ms : 0.0,
                   "ratio");
  report.per_layer("monitor.batch_events_p50", batch_events.quantile(0.5),
                   "count", batch_events.count());
  report.per_layer("monitor.drain_p50_ms", drain_ms.quantile(0.5), "ms",
                   drain_ms.count());
  report.per_layer("monitor.drain_p99_ms", drain_ms.quantile(0.99), "ms",
                   drain_ms.count());
  report.per_layer("monitor.verified_per_s",
                   static_cast<double>(config.closed_drains *
                                       config.ops_per_drain) /
                       (closed_busy_ms / 1e3),
                   "1/s", config.closed_drains);
  report.per_layer("monitor.events_per_s",
                   closed_busy_ms > 0 ? static_cast<double>(closed_events) /
                                            (closed_busy_ms / 1e3)
                                      : 0.0,
                   "1/s", config.closed_drains);
  report.per_layer("monitor.verdict_p50_ms", latency_ms.quantile(0.50), "ms",
                   latency_ms.count());
  report.per_layer("monitor.verdict_p95_ms", latency_ms.quantile(0.95), "ms",
                   latency_ms.count());
  report.per_layer("monitor.verdict_p99_ms", latency_ms.quantile(0.99), "ms",
                   latency_ms.count());
  report.per_layer("monitor.event_p50_ms", event_latency_ms.quantile(0.5),
                   "ms", event_latency_ms.count());
  report.per_layer("monitor.queue_wait_p50_ms", queue_wait_ms.quantile(0.5),
                   "ms", queue_wait_ms.count());
  report.per_layer("monitor.verify_p50_ms", verify_ms.quantile(0.5), "ms",
                   verify_ms.count());

  stamp_report(report, Stamp{args.workload, args.seed, args.seconds,
                             args.traced, executor->workers(),
                             kSetupReps});
  report.note("closed_loop",
              "{\"drains\": " + std::to_string(config.closed_drains) +
                  ", \"ops_per_drain\": " +
                  std::to_string(config.ops_per_drain) +
                  ", \"events\": " + std::to_string(closed_events) +
                  ", \"digest\": \"" + std::to_string(digest) + "\"}");
  const auto ladder = [](const Samples& samples) {
    std::string out;
    for (const int pct : {50, 75, 90, 95, 99, 100}) {
      out += (out.empty() ? "{\"p" : ", \"p") + std::to_string(pct) +
             "\": " + std::to_string(samples.quantile(pct / 100.0));
    }
    return out + "}";
  };
  report.note("open_loop",
              "{\"rate_ops_per_s\": " + std::to_string(config.open_rate) +
                  ", \"ops\": " + std::to_string(open_ops) +
                  ", \"events\": " + std::to_string(open_events) +
                  ", \"latency_ms\": " + ladder(latency_ms) +
                  ", \"cpu_latency_ms\": " + ladder(cpu_latency_ms) +
                  ", \"verify_ms\": " + ladder(verify_ms) + "}");
  return report;
}

}  // namespace scoutbench
