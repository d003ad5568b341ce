#include "src/controller/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/scout/sim_network.h"
#include "src/workload/three_tier.h"

namespace scout {
namespace {

struct ControllerFixture : ::testing::Test {
  ControllerFixture()
      : three(make_three_tier()),
        net(std::move(three.fabric), std::move(three.policy)) {}

  ThreeTierNetwork three;
  SimNetwork net;
};

TEST_F(ControllerFixture, FullDeployPushesEveryRule) {
  const DeployStats stats = net.deploy();
  EXPECT_EQ(stats.lost + stats.crashed + stats.tcam_overflow, 0u);
  // 3 + 7 + 5 rules across S1..S3 (Figure 2 for S2).
  EXPECT_EQ(stats.applied, 15u);
  EXPECT_EQ(net.agent(three.s2).tcam().size(), 7u);
}

TEST_F(ControllerFixture, DeployRecordsChangeLogPerObject) {
  (void)net.deploy();
  const ChangeLog& log = net.controller().change_log();
  // 1 VRF + 3 EPGs + 2 filters + 2 contracts = 8 'add' records.
  EXPECT_EQ(log.size(), 8u);
  for (const ChangeRecord& rec : log.records()) {
    EXPECT_EQ(rec.action, ChangeAction::kAdd);
  }
}

TEST_F(ControllerFixture, DeployNewFilterPushesIncrementally) {
  (void)net.deploy();
  const std::size_t s2_before = net.agent(three.s2).tcam().size();
  const std::size_t s1_before = net.agent(three.s1).tcam().size();

  DeployStats stats;
  const FilterId f = net.controller().deploy_new_filter(
      "port443", {FilterEntry::allow_tcp(443)}, three.app_db, &stats);
  EXPECT_TRUE(f.valid());
  // App-DB deploys on S2 and S3: 2 rules each.
  EXPECT_EQ(stats.applied, 4u);
  EXPECT_EQ(net.agent(three.s2).tcam().size(), s2_before + 2);
  EXPECT_EQ(net.agent(three.s1).tcam().size(), s1_before);

  // Change log gained filter-add + contract-modify.
  const auto& records = net.controller().change_log().records();
  EXPECT_EQ(records[records.size() - 2].object, ObjectRef::of(f));
  EXPECT_EQ(records.back().object, ObjectRef::of(three.app_db));
  EXPECT_EQ(records.back().action, ChangeAction::kModify);
}

TEST_F(ControllerFixture, DeployNewFilterKeepsCompiledInSync) {
  (void)net.deploy();
  (void)net.controller().deploy_new_filter(
      "port443", {FilterEntry::allow_tcp(443)}, three.app_db, nullptr);
  // The compiled snapshot must reflect the new filter on S2 and S3.
  std::size_t found = 0;
  for (const auto& [sw, rules] : net.controller().compiled().per_switch) {
    for (const LogicalRule& lr : rules) {
      if (lr.rule.dst_port.value == 443 &&
          lr.rule.action == RuleAction::kAllow) {
        ++found;
      }
    }
  }
  EXPECT_EQ(found, 4u);
}

// Per-switch compiled epochs move only where a recompile rendered the
// switch's L-rules differently: `moved` lists the switches whose epoch
// changed, and every one of them must carry the new global epoch.
std::vector<SwitchId> moved_switches(
    const Controller& c, const std::unordered_map<SwitchId, std::uint64_t>&
                             before) {
  std::vector<SwitchId> moved;
  for (const auto& [sw, epoch] : before) {
    if (c.compiled_epoch(sw) != epoch) {
      EXPECT_EQ(c.compiled_epoch(sw), c.compiled_epoch()) << "sw " << sw;
      moved.push_back(sw);
    }
  }
  std::sort(moved.begin(), moved.end());
  return moved;
}

TEST_F(ControllerFixture, CompiledEpochStampsOnlyChangedSwitches) {
  (void)net.deploy();
  Controller& c = net.controller();
  const auto epochs = [&] {
    std::unordered_map<SwitchId, std::uint64_t> out;
    for (SwitchId sw : {three.s1, three.s2, three.s3}) {
      out[sw] = c.compiled_epoch(sw);
    }
    return out;
  };
  // Initial deploy compiles every switch.
  for (const auto& [sw, epoch] : epochs()) {
    EXPECT_EQ(epoch, c.compiled_epoch()) << "sw " << sw;
  }

  // Unchanged policy: the global epoch bumps, no switch is stamped.
  auto before = epochs();
  const std::uint64_t global = c.compiled_epoch();
  c.recompile();
  EXPECT_EQ(c.compiled_epoch(), global + 1);
  EXPECT_TRUE(moved_switches(c, before).empty());

  // A filter on App-DB renders on the switches hosting App and DB only.
  before = epochs();
  (void)c.deploy_new_filter("port443", {FilterEntry::allow_tcp(443)},
                            three.app_db, nullptr);
  EXPECT_EQ(moved_switches(c, before),
            (std::vector<SwitchId>{three.s2, three.s3}));

  // Migrating Web's only endpoint S1 -> S3 changes S1 (it loses every
  // Web rule) and S3 (it gains them); App's rules on S2 are untouched.
  before = epochs();
  const auto old_compiled = c.compiled().per_switch;
  const EndpointId ep1 = c.policy().endpoints()[0].id;
  ASSERT_EQ(c.policy().endpoint(ep1).attached_switch, three.s1);
  (void)c.migrate_endpoint(ep1, three.s3);
  EXPECT_EQ(moved_switches(c, before),
            (std::vector<SwitchId>{three.s1, three.s3}));
  EXPECT_EQ(c.compiled().rules_for(three.s2), old_compiled.at(three.s2));
}

TEST_F(ControllerFixture, DisconnectedSwitchLosesInstructions) {
  net.controller().disconnect_switch(three.s2);
  const DeployStats stats = net.deploy();
  EXPECT_EQ(stats.lost, 7u);  // S2's rules vanish
  EXPECT_EQ(net.agent(three.s2).tcam().size(), 0u);
  EXPECT_EQ(net.agent(three.s1).tcam().size(), 3u);

  // Controller raised exactly one unreachable fault for the episode.
  const FaultLog& faults = net.controller().fault_log();
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults.records()[0].code, FaultCode::kSwitchUnreachable);
  EXPECT_EQ(faults.records()[0].sw, three.s2);
  EXPECT_FALSE(faults.records()[0].cleared.has_value());
}

TEST_F(ControllerFixture, ReconnectClearsUnreachableFault) {
  net.controller().disconnect_switch(three.s2);
  (void)net.deploy();
  net.clock().advance(100);
  net.controller().reconnect_switch(three.s2);
  const FaultLog& faults = net.controller().fault_log();
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_TRUE(faults.records()[0].cleared.has_value());
}

TEST_F(ControllerFixture, UnresponsiveAgentDetectedViaKeepalive) {
  net.agent(three.s3).set_responsive(false);
  const DeployStats stats = net.deploy();
  EXPECT_EQ(stats.lost, 5u);
  const FaultLog& faults = net.controller().fault_log();
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults.records()[0].sw, three.s3);
}

TEST_F(ControllerFixture, RecordBenignChangeAppendsModify) {
  (void)net.deploy();
  net.controller().record_benign_change(ObjectRef::of(three.port80));
  const auto& records = net.controller().change_log().records();
  EXPECT_EQ(records.back().object, ObjectRef::of(three.port80));
  EXPECT_EQ(records.back().action, ChangeAction::kModify);
}

TEST_F(ControllerFixture, AgentLookupUnknownSwitchIsNull) {
  EXPECT_EQ(net.controller().agent(SwitchId{99}), nullptr);
}

TEST(DeployStats, CountMapsStatuses) {
  DeployStats s;
  s.count(ApplyStatus::kApplied);
  s.count(ApplyStatus::kLost);
  s.count(ApplyStatus::kCrashed);
  s.count(ApplyStatus::kTcamOverflow);
  s.count(ApplyStatus::kApplied);
  EXPECT_EQ(s.applied, 2u);
  EXPECT_EQ(s.lost, 1u);
  EXPECT_EQ(s.crashed, 1u);
  EXPECT_EQ(s.tcam_overflow, 1u);
  EXPECT_EQ(s.total(), 5u);
}

}  // namespace
}  // namespace scout
