// Differential correctness of the continuous-verification stream: the
// incremental monitor's verdicts must be identical to a fresh
// ScoutSystem::check_all after every batch — across randomized event
// streams, mid-stream compiled-epoch bumps, divergence-threshold trips,
// out-of-shape (unsafe) deltas, and 1/2/4 workers — and a recompile must
// re-encode only the switches whose compiled rules it changed.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/scout/experiment.h"
#include "src/scout/scout_system.h"
#include "src/stream/churn_generator.h"
#include "src/stream/monitor_loop.h"
#include "src/stream/mpsc_ring.h"
#include "src/workload/policy_generator.h"
#include "src/workload/three_tier.h"

namespace scout {
namespace {

MonitoringOptions small_scenario(std::uint64_t seed) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(10);
  options.profile.target_pairs = 10 * 40;
  options.events = 160;
  options.batch_ops = 12;
  options.seed = seed;
  // Elevated policy churn so compiled-epoch bumps land mid-stream.
  options.mix.migrate = 0.08;
  options.localize_final = false;
  return options;
}

void expect_counter_consistency(const MonitoringReport& report) {
  EXPECT_EQ(report.checker.full_rebuilds,
            report.checker.epoch_rebuilds + report.checker.threshold_trips +
                report.checker.unsafe_rebuilds +
                report.checker.overflow_resyncs);
}

TEST(StreamMonitor, IncrementalMatchesFullCheckAcrossSeeds) {
  runtime::SerialExecutor executor;
  std::size_t runs_with_epoch_bumps = 0;
  std::size_t runs_with_inconsistency = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    MonitoringOptions options = small_scenario(seed);
    options.verify_batches = true;  // fresh check_all after every batch
    const MonitoringReport report =
        run_continuous_monitoring(options, executor);
    EXPECT_EQ(report.verify_mismatches, 0u) << "seed " << seed;
    EXPECT_GE(report.events, options.events) << "seed " << seed;
    expect_counter_consistency(report);
    EXPECT_EQ(report.checker.unsafe_rebuilds, 0u)
        << "compiler-shaped churn fell off the incremental path, seed "
        << seed;
    if (report.checker.epoch_rebuilds > 0) ++runs_with_epoch_bumps;
    if (report.inconsistent_batches > 0) ++runs_with_inconsistency;
  }
  // The scenario must actually exercise the hard paths.
  EXPECT_GT(runs_with_epoch_bumps, 0u);
  EXPECT_GT(runs_with_inconsistency, 10u);
}

TEST(StreamMonitor, VerdictStreamIdenticalAcrossModesAndWorkerCounts) {
  for (const std::uint64_t seed : {3u, 11u}) {
    std::uint64_t expected = 0;
    bool first = true;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const bool incremental : {true, false}) {
        MonitoringOptions options = small_scenario(seed);
        options.incremental = incremental;
        const auto executor = runtime::make_executor(threads);
        const MonitoringReport report =
            run_continuous_monitoring(options, *executor);
        if (first) {
          expected = report.verdict_digest;
          first = false;
        } else {
          EXPECT_EQ(report.verdict_digest, expected)
              << "seed " << seed << " threads " << threads
              << " incremental " << incremental;
        }
      }
    }
  }
}

// The concurrent-ingest differential: the ConcurrentChurnDriver's data-op
// schedule is a pure function of the seed, so one seed must produce one
// verdict-digest whether the data phase is executed serially through the
// bus (use_ring = false) or published from 1/2/4 real publisher threads
// into the MpscRing — and whatever the drain-side worker count. Twenty
// seeds walk the {publishers} x {workers} grid; every concurrent leg also
// cross-checks each batch against a fresh check_all.
TEST(StreamMonitor, ConcurrentPublishersMatchSerialTransportAcrossSeeds) {
  const std::size_t publishers[] = {1, 2, 4};
  const std::size_t workers[] = {1, 2, 4};
  std::size_t runs_with_epoch_bumps = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Serial-transport anchor: same driver, same schedule, no ring.
    MonitoringOptions base = small_scenario(seed);
    base.publishers = 1;
    base.use_ring = false;
    runtime::SerialExecutor serial_exec;
    const MonitoringReport anchor =
        run_continuous_monitoring(base, serial_exec);
    expect_counter_consistency(anchor);

    // One ring leg per seed; 20 seeds sweep the 3x3 grid twice over.
    MonitoringOptions options = small_scenario(seed);
    options.publishers = publishers[seed % 3];
    options.verify_batches = true;  // fresh check_all after every batch
    const auto executor = runtime::make_executor(workers[(seed / 3) % 3]);
    const MonitoringReport report =
        run_continuous_monitoring(options, *executor);
    EXPECT_EQ(report.verify_mismatches, 0u)
        << "seed " << seed << " publishers " << options.publishers;
    EXPECT_EQ(report.verdict_digest, anchor.verdict_digest)
        << "seed " << seed << " publishers " << options.publishers
        << " workers " << workers[(seed / 3) % 3];
    EXPECT_GE(report.events, options.events) << "seed " << seed;
    expect_counter_consistency(report);
    if (report.checker.epoch_rebuilds > 0) ++runs_with_epoch_bumps;
  }
  // Mid-stream recompiles must land inside the concurrent legs too.
  EXPECT_GT(runs_with_epoch_bumps, 0u);
}

// Overflow path: a capacity-8 ring with every data op funneled through one
// publisher shard is guaranteed to overflow between drains. Evictions must
// surface as shadow resyncs — and the resync'd verdicts must still match
// both the per-batch fresh check and the uncontended serial-transport
// digest, because a shadow resync recollects the exact quiescent TCAM.
TEST(StreamMonitor, OverflowEvictionForcesShadowResyncAndStaysExact) {
  runtime::SerialExecutor executor;
  MonitoringOptions base = small_scenario(9);
  // No recompiles: an epoch bump in the same batch would repair the gap
  // through the arena-rebuild branch and mask the overflow accounting
  // this test pins.
  base.mix.migrate = 0.0;
  base.publishers = 1;
  base.use_ring = false;
  const MonitoringReport anchor = run_continuous_monitoring(base, executor);

  MonitoringOptions options = small_scenario(9);
  options.mix.migrate = 0.0;
  options.publishers = 1;
  options.ring_capacity = 8;
  options.verify_batches = true;
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);
  EXPECT_GT(report.ring_evictions, 0u);
  EXPECT_GT(report.checker.overflow_resyncs, 0u);
  EXPECT_EQ(report.verify_mismatches, 0u);
  EXPECT_EQ(report.verdict_digest, anchor.verdict_digest);
  expect_counter_consistency(report);
}

// Free-run mode: publishers race ahead of the drain loop, so per-batch
// digests are timing-dependent by design — the gate is that the final
// composed verdict equals a fresh check_all at quiescence.
TEST(StreamMonitor, PipelinedFreeRunConvergesToFreshVerdict) {
  MonitoringOptions options = small_scenario(13);
  options.publishers = 2;
  options.pipelined = true;
  const auto executor = runtime::make_executor(2);
  const MonitoringReport report =
      run_continuous_monitoring(options, *executor);
  EXPECT_TRUE(report.final_verdict_matches_fresh);
  EXPECT_GE(report.events, options.events);
  EXPECT_GT(report.publish_wall_events_per_sec, 0.0);
  expect_counter_consistency(report);
}

TEST(StreamMonitor, DivergenceThresholdTripsKeepVerdictsExact) {
  runtime::SerialExecutor executor;
  MonitoringOptions options = small_scenario(7);
  options.verify_batches = true;
  // Compact aggressively: every touched switch trips almost immediately.
  options.checker.divergence_factor = 1.0;
  options.checker.divergence_slack = 64;
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);
  EXPECT_EQ(report.verify_mismatches, 0u);
  EXPECT_GT(report.checker.threshold_trips, 0u);
  expect_counter_consistency(report);
}

TEST(StreamMonitor, EventCountAndLatencyAccounting) {
  runtime::SerialExecutor executor;
  MonitoringOptions options = small_scenario(5);
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);
  EXPECT_GE(report.events, options.events);
  EXPECT_GT(report.batches, 0u);
  EXPECT_GT(report.churn_ops, 0u);
  EXPECT_GT(report.events_per_sec, 0.0);
  EXPECT_LE(report.p50_latency_ms, report.p99_latency_ms);
  EXPECT_LE(report.p99_latency_ms, report.max_latency_ms);
  // Sim-clock latency is reported in its own fields — never mixed with the
  // wall-clock numbers above — and must be internally consistent too.
  EXPECT_LE(report.sim_p50_latency_ms, report.sim_p99_latency_ms);
  EXPECT_LE(report.sim_p99_latency_ms, report.sim_max_latency_ms);
  EXPECT_GE(report.sim_max_latency_ms, 0.0);
}

// Every published event carries both clock stamps; each must be
// monotonically non-decreasing in publish order, so event-to-detection
// latencies are well-defined in either clock without mixing them.
TEST(StreamMonitor, EventClockStampsAreMonotonic) {
  ThreeTierNetwork three = make_three_tier();
  SimNetwork net{std::move(three.fabric), std::move(three.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  stream::EventBus bus;
  net.attach_event_bus(&bus);

  ASSERT_GT(net.agent(three.s2).evict_rules(16, net.clock().now()), 0u);
  net.clock().advance(50);
  (void)net.controller().resync_switch(three.s2);

  const auto events = bus.events_since(0);
  ASSERT_GT(events.size(), 1u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time) << "event " << i;
    EXPECT_GE(events[i].wall, events[i - 1].wall) << "event " << i;
  }
}

// Hand-driven MonitorLoop on the paper's three-tier example: eviction is
// detected incrementally and the verdict matches a fresh fabric check;
// resync repairs it; localization hands suspects to SCOUT.
TEST(StreamMonitor, MonitorLoopDetectsAndClearsEviction) {
  ThreeTierNetwork three = make_three_tier();
  SimNetwork net{std::move(three.fabric), std::move(three.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  stream::EventBus bus;
  net.attach_event_bus(&bus);
  runtime::SerialExecutor executor;
  stream::MonitorLoop monitor{net, bus, executor};
  monitor.prime();
  const ScoutSystem system;

  // Clean fabric: empty verdict, nothing drained.
  stream::MonitorVerdict verdict = monitor.drain();
  EXPECT_EQ(verdict.events, 0u);
  EXPECT_TRUE(verdict.check.inconsistent.empty());

  // Evict every rule S2 holds (a full-object-grade wipe, so SCOUT's
  // stage-1 hit-ratio-1 cover has something to pick); the monitor must
  // flag exactly what a fresh collection-based check would.
  const std::size_t evicted =
      net.agent(three.s2).evict_rules(64, net.clock().now());
  ASSERT_GT(evicted, 0u);
  verdict = monitor.drain();
  EXPECT_EQ(verdict.events, evicted);
  EXPECT_FALSE(verdict.check.inconsistent.empty());
  EXPECT_TRUE(fabric_check_identical(verdict.check, system.check_all(net)));

  // Suspect handoff to the existing localizer.
  const LocalizationResult loc = monitor.localize(verdict.check);
  EXPECT_FALSE(loc.hypothesis.empty());

  // Resync repairs the switch; the monitor converges back to clean.
  (void)net.controller().resync_switch(three.s2);
  verdict = monitor.drain();
  EXPECT_TRUE(verdict.check.inconsistent.empty());
  EXPECT_TRUE(fabric_check_identical(verdict.check, system.check_all(net)));
}

// An out-of-shape delta (a non-catch-all deny installed into the TCAM)
// must fall back to a full T rebuild — and still be verdict-exact.
TEST(StreamMonitor, UnsafeDeltaFallsBackToRebuildExactly) {
  ThreeTierNetwork three = make_three_tier();
  SimNetwork net{std::move(three.fabric), std::move(three.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  stream::EventBus bus;
  net.attach_event_bus(&bus);
  runtime::SerialExecutor executor;
  stream::MonitorLoop monitor{net, bus, executor};
  monitor.prime();

  // A high-precedence deny covering web->app traffic on S2: installed
  // through the agent so the TCAM and the event stream agree.
  LogicalRule deny;
  deny.rule = net.agent(three.s2).tcam().rules()[0];  // clone a real match
  deny.rule.priority = 0;
  deny.rule.action = RuleAction::kDeny;
  deny.prov.sw = three.s2;
  ASSERT_EQ(net.agent(three.s2).apply(
                Instruction{InstructionOp::kAddRule, deny},
                net.clock().now()),
            ApplyStatus::kApplied);

  const stream::MonitorVerdict verdict = monitor.drain();
  const ScoutSystem system;
  EXPECT_TRUE(fabric_check_identical(verdict.check, system.check_all(net)));
  EXPECT_FALSE(verdict.check.inconsistent.empty());  // deny shadows an allow
  EXPECT_GE(monitor.checker_stats().unsafe_rebuilds, 1u);

  // Churn on the unsafe switch keeps rebuilding — and keeps matching.
  ASSERT_GT(net.agent(three.s2).evict_rules(1, net.clock().now()), 0u);
  const stream::MonitorVerdict after = monitor.drain();
  EXPECT_TRUE(fabric_check_identical(after.check, system.check_all(net)));
}

// A migration re-encodes L only where it changed a switch's compiled
// rules. Hand-driven over a generated fabric: per migration, the epoch
// rebuilds equal the switches whose per-switch compiled epoch moved (never
// the whole fabric), and the verdict equals a fresh check_all. Evictions
// between migrations keep the verdicts non-trivial and exercise the cube
// path on switches that kept their L across the global epoch bump.
TEST(StreamMonitor, MigrationReencodesOnlySwitchesWhoseRulesChanged) {
  Rng net_rng{17};
  GeneratorProfile profile = GeneratorProfile::scaled(10);
  profile.target_pairs = 10 * 40;
  GeneratedNetwork generated = generate_network(profile, net_rng);
  SimNetwork net{std::move(generated.fabric), std::move(generated.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  stream::EventBus bus;
  net.attach_event_bus(&bus);
  runtime::SerialExecutor executor;
  stream::MonitorLoop monitor{net, bus, executor};
  monitor.prime();
  const ScoutSystem system;
  Controller& controller = net.controller();
  const auto agents = net.agents();

  Rng rng{29};
  std::size_t migrations_with_rebuilds = 0;
  for (int m = 0; m < 12; ++m) {
    SwitchAgent& victim = *agents[rng.below(agents.size())];
    (void)victim.evict_rules(1 + rng.below(3), net.clock().now());
    std::vector<std::uint64_t> before;
    for (const auto& a : agents) {
      before.push_back(controller.compiled_epoch(a->id()));
    }
    const std::size_t rebuilds_before =
        monitor.checker_stats().epoch_rebuilds;
    const auto endpoints = controller.policy().endpoints();
    const EndpointId ep = endpoints[rng.below(endpoints.size())].id;
    (void)controller.migrate_endpoint(
        ep, agents[rng.below(agents.size())]->id());

    std::size_t moved = 0;
    for (std::size_t i = 0; i < agents.size(); ++i) {
      if (controller.compiled_epoch(agents[i]->id()) != before[i]) ++moved;
    }
    const stream::MonitorVerdict verdict = monitor.drain();
    const std::size_t rebuilds =
        monitor.checker_stats().epoch_rebuilds - rebuilds_before;
    EXPECT_EQ(rebuilds, moved) << "migration " << m;
    EXPECT_LT(rebuilds, agents.size()) << "migration " << m;
    EXPECT_LE(rebuilds, 2u) << "migration " << m;
    if (rebuilds > 0) ++migrations_with_rebuilds;
    EXPECT_TRUE(fabric_check_identical(verdict.check, system.check_all(net)))
        << "migration " << m;
  }
  EXPECT_GT(migrations_with_rebuilds, 0u);
  EXPECT_GT(monitor.checker_stats().incremental_updates, 0u);
}

// The same property under randomized migration-heavy churn, cross-checked
// against a fresh check_all after every batch.
TEST(StreamMonitor, MigrationHeavyChurnStaysExact) {
  runtime::SerialExecutor executor;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    MonitoringOptions options = small_scenario(seed);
    options.mix.migrate = 0.3;
    options.verify_batches = true;
    const MonitoringReport report =
        run_continuous_monitoring(options, executor);
    EXPECT_EQ(report.verify_mismatches, 0u) << "seed " << seed;
    EXPECT_GT(report.checker.epoch_rebuilds, 0u) << "seed " << seed;
    EXPECT_GT(report.checker.incremental_updates, 0u) << "seed " << seed;
    expect_counter_consistency(report);
  }
}

// A recompile of an unchanged policy (what a controller upgrade does)
// moves the global epoch but no switch's compiled rules: nothing is
// re-encoded, and every switch serves its cached verdict.
TEST(StreamMonitor, UnchangedPolicyRecompileRebuildsNothing) {
  ThreeTierNetwork three = make_three_tier();
  SimNetwork net{std::move(three.fabric), std::move(three.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  stream::EventBus bus;
  net.attach_event_bus(&bus);
  runtime::SerialExecutor executor;
  stream::MonitorLoop monitor{net, bus, executor};
  monitor.prime();
  const ScoutSystem system;

  ASSERT_GT(net.agent(three.s2).evict_rules(2, net.clock().now()), 0u);
  const stream::MonitorVerdict faulty = monitor.drain();
  ASSERT_FALSE(faulty.check.inconsistent.empty());
  const stream::IncrementalChecker::Stats before = monitor.checker_stats();

  net.controller().recompile();
  net.controller().recompile();
  const stream::MonitorVerdict after = monitor.drain();
  const stream::IncrementalChecker::Stats stats = monitor.checker_stats();
  EXPECT_EQ(stats.epoch_rebuilds, 0u);
  EXPECT_EQ(stats.full_rebuilds, before.full_rebuilds);
  EXPECT_EQ(stats.diff_recomputes, before.diff_recomputes);
  EXPECT_EQ(stats.verdicts_reused, before.verdicts_reused + 3);
  EXPECT_TRUE(fabric_check_identical(after.check, faulty.check));
  EXPECT_TRUE(fabric_check_identical(after.check, system.check_all(net)));

  // Deltas after the bump take the cube path on the adopted epoch.
  (void)net.controller().resync_switch(three.s2);
  const stream::MonitorVerdict repaired = monitor.drain();
  EXPECT_TRUE(repaired.check.inconsistent.empty());
  EXPECT_EQ(monitor.checker_stats().epoch_rebuilds, 0u);
  EXPECT_GT(monitor.checker_stats().incremental_updates,
            stats.incremental_updates);
}

// The rolling-upgrade storm recompiles the unchanged policy mid-churn: no
// epoch rebuilds, and the incremental verdict stream equals the
// full-recheck one.
TEST(StreamMonitor, RollingUpgradeRecompilesKeepDigestWithoutRebuilds) {
  runtime::SerialExecutor executor;
  MonitoringOptions options = small_scenario(4);
  options.mix.migrate = 0.0;
  options.storm = "rolling-upgrade";
  options.storm_every_batches = 1;
  options.verify_batches = true;
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);
  EXPECT_GT(report.storm_episodes, 0u);
  EXPECT_EQ(report.checker.epoch_rebuilds, 0u);
  EXPECT_EQ(report.verify_mismatches, 0u);

  options.incremental = false;
  options.verify_batches = false;
  const MonitoringReport full = run_continuous_monitoring(options, executor);
  EXPECT_EQ(report.verdict_digest, full.verdict_digest);
}

// A concurrent-driver mix with zero evict and corrupt weights schedules no
// data-plane ops: the ring transport publishes no eviction and no
// corruption, only the serial control tail's events.
TEST(StreamMonitor, ZeroDataWeightsScheduleNoDataOpsOnRing) {
  ThreeTierNetwork three = make_three_tier();
  SimNetwork net{std::move(three.fabric), std::move(three.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  stream::EventBus bus;
  net.attach_event_bus(&bus);
  constexpr std::size_t kPublishers = 2;
  std::size_t sw_bound = 0;
  for (const auto& agent : net.agents()) {
    sw_bound = std::max<std::size_t>(sw_bound, agent->id().value() + 1);
  }
  stream::MpscRing ring{kPublishers, sw_bound, stream::MpscRing::Options{}};
  bus.attach_ring(&ring);

  stream::ConcurrentChurnDriver::Options dopts;
  dopts.publishers = kPublishers;
  dopts.mix.evict = 0.0;
  dopts.mix.corrupt = 0.0;
  stream::ConcurrentChurnDriver driver{net, bus, 7, dopts};
  for (int i = 0; i < 6; ++i) (void)driver.pump(40);
  driver.stop();
  (void)bus.ingest_ring();

  std::uint64_t tcam_evictions = 0;
  for (const auto& agent : net.agents()) {
    tcam_evictions += agent->tcam().evictions();
  }
  EXPECT_EQ(tcam_evictions, 0u);
  std::size_t evicted = 0;
  std::size_t corrupted = 0;
  const auto events = bus.events_since(0);
  for (const stream::StreamEvent& ev : events) {
    if (ev.type == stream::StreamEventType::kRuleEvicted) ++evicted;
    if (ev.type == stream::StreamEventType::kRuleModified) ++corrupted;
  }
  EXPECT_GT(events.size(), 0u);  // the control tail still ran
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(corrupted, 0u);
}

}  // namespace
}  // namespace scout
