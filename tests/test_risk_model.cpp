#include "src/riskmodel/risk_model.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/controller/compiler.h"
#include "src/workload/policy_generator.h"
#include "src/workload/three_tier.h"

namespace scout {
namespace {

struct RiskModelFixture : ::testing::Test {
  RiskModelFixture()
      : net(make_three_tier()), index(net.policy) {}

  ThreeTierNetwork net;
  PolicyIndex index;
};

TEST_F(RiskModelFixture, SwitchModelForS2MatchesFigure4a) {
  const RiskModel model = RiskModel::build_switch_model(index, net.s2);
  // Elements: Web-App and App-DB (both deployed on S2, which hosts App).
  EXPECT_EQ(model.element_count(), 2u);
  // Risks: VRF, Web, App, DB, 2 contracts, 2 filters.
  EXPECT_EQ(model.risk_count(), 8u);
  // Web-App depends on 5 objects; App-DB on 6.
  EXPECT_EQ(model.edge_count(), 11u);
  EXPECT_EQ(model.kind(), RiskModelKind::kSwitch);
}

TEST_F(RiskModelFixture, SwitchModelForEdgeSwitchHasOnePair) {
  const RiskModel model = RiskModel::build_switch_model(index, net.s1);
  EXPECT_EQ(model.element_count(), 1u);
  EXPECT_EQ(model.risk_count(), 5u);
}

TEST_F(RiskModelFixture, ControllerModelHasTripletElements) {
  const RiskModel model = RiskModel::build_controller_model(index);
  // Web-App deploys on {S1, S2}; App-DB on {S2, S3}: 4 triplets.
  EXPECT_EQ(model.element_count(), 4u);
  // 8 policy objects + 3 switch risks.
  EXPECT_EQ(model.risk_count(), 11u);
  // Policy edges (5+5+6+6) + one switch edge per element.
  EXPECT_EQ(model.edge_count(), 26u);
  EXPECT_EQ(model.kind(), RiskModelKind::kController);
}

TEST_F(RiskModelFixture, SharedObjectHasOneNodeAcrossSwitches) {
  const RiskModel model = RiskModel::build_controller_model(index);
  const auto r = model.risk_index(ObjectRef::of(net.vrf));
  // The VRF is shared by all 4 triplets.
  EXPECT_EQ(model.elements_of(r).size(), 4u);
}

TEST_F(RiskModelFixture, AugmentMarksEdgesOfMissingRuleProvenance) {
  RiskModel model = RiskModel::build_switch_model(index, net.s2);
  const CompiledPolicy compiled = PolicyCompiler::compile(net.policy);
  // Take the Web->App port-80 rule as missing (paper Figure 4(a) scenario).
  const auto& rules = compiled.rules_for(net.s2);
  const auto missing = std::find_if(
      rules.begin(), rules.end(), [&](const LogicalRule& lr) {
        return lr.prov.contract == net.web_app && !lr.prov.reversed;
      });
  ASSERT_NE(missing, rules.end());
  model.augment(std::vector<LogicalRule>{*missing});

  const auto signature = model.failure_signature();
  ASSERT_EQ(signature.size(), 1u);
  const auto failed_elem = signature[0];
  EXPECT_EQ(model.element(failed_elem).pair, (EpgPair{net.web, net.app}));

  // Exactly the 5 provenance objects have failed edges.
  EXPECT_EQ(model.failed_risks_of(failed_elem).size(), 5u);
  EXPECT_TRUE(model.edge_failed(
      failed_elem, model.risk_index(ObjectRef::of(net.web_app))));
  EXPECT_TRUE(model.edge_failed(
      failed_elem, model.risk_index(ObjectRef::of(net.port80))));
  EXPECT_FALSE(model.edge_failed(
      failed_elem, model.risk_index(ObjectRef::of(net.port700))));

  // The healthy App-DB pair has no failed edges.
  EXPECT_EQ(model.failure_signature().size(), 1u);
}

TEST_F(RiskModelFixture, AugmentInControllerModelAlsoMarksSwitchRisk) {
  RiskModel model = RiskModel::build_controller_model(index);
  const CompiledPolicy compiled = PolicyCompiler::compile(net.policy);
  const auto& rules = compiled.rules_for(net.s2);
  model.augment(std::vector<LogicalRule>{rules.front()});

  const auto signature = model.failure_signature();
  ASSERT_EQ(signature.size(), 1u);
  EXPECT_TRUE(model.edge_failed(
      signature[0], model.risk_index(ObjectRef::of(net.s2))));
}

TEST_F(RiskModelFixture, AugmentIgnoresRulesOutsideModelScope) {
  RiskModel model = RiskModel::build_switch_model(index, net.s1);
  const CompiledPolicy compiled = PolicyCompiler::compile(net.policy);
  // S3's rules belong to App-DB, which has no element in S1's model.
  model.augment(compiled.rules_for(net.s3));
  EXPECT_TRUE(model.failure_signature().empty());
}

TEST_F(RiskModelFixture, AugmentIgnoresDefaultDeny) {
  RiskModel model = RiskModel::build_switch_model(index, net.s2);
  const CompiledPolicy compiled = PolicyCompiler::compile(net.policy);
  std::vector<LogicalRule> just_deny{compiled.rules_for(net.s2).back()};
  ASSERT_EQ(just_deny[0].rule.action, RuleAction::kDeny);
  model.augment(just_deny);
  EXPECT_TRUE(model.failure_signature().empty());
}

TEST_F(RiskModelFixture, FailedDegreeCountsElementsNotEdges) {
  RiskModel model = RiskModel::build_switch_model(index, net.s2);
  const CompiledPolicy compiled = PolicyCompiler::compile(net.policy);
  const auto& rules = compiled.rules_for(net.s2);
  // Both directions of the same (pair, filter) rule: one failed element.
  std::vector<LogicalRule> missing;
  for (const LogicalRule& lr : rules) {
    if (lr.prov.contract == net.web_app) missing.push_back(lr);
  }
  ASSERT_EQ(missing.size(), 2u);
  model.augment(missing);
  const auto r = model.risk_index(ObjectRef::of(net.web_app));
  EXPECT_EQ(model.failed_degree(r), 1u);
}

TEST_F(RiskModelFixture, SuspectSetIsRisksAdjacentToFailures) {
  RiskModel model = RiskModel::build_switch_model(index, net.s2);
  const CompiledPolicy compiled = PolicyCompiler::compile(net.policy);
  model.augment(std::vector<LogicalRule>{compiled.rules_for(net.s2).front()});
  // All 5 objects of the Web-App pair are suspects (its full dependency
  // set), even though only some edges are marked failed... they all are
  // here since the rule's provenance covers the pair's objects.
  EXPECT_EQ(model.suspect_set().size(), 5u);
}

TEST_F(RiskModelFixture, ClearFailuresResets) {
  RiskModel model = RiskModel::build_switch_model(index, net.s2);
  const CompiledPolicy compiled = PolicyCompiler::compile(net.policy);
  model.augment(std::vector<LogicalRule>{compiled.rules_for(net.s2).front()});
  ASSERT_FALSE(model.failure_signature().empty());
  model.clear_failures();
  EXPECT_TRUE(model.failure_signature().empty());
  EXPECT_TRUE(model.suspect_set().empty());
  for (RiskModel::RiskIdx r = 0; r < model.risk_count(); ++r) {
    EXPECT_EQ(model.failed_degree(r), 0u);
  }
}

TEST_F(RiskModelFixture, UnknownLookupsThrow) {
  const RiskModel model = RiskModel::build_switch_model(index, net.s1);
  EXPECT_THROW((void)model.risk_index(ObjectRef::of(net.port700)),
               std::out_of_range);
  EXPECT_THROW((void)model.element_index(
                   RiskElement{net.s1, EpgPair{net.app, net.db}}),
               std::out_of_range);
  EXPECT_FALSE(model.has_risk(ObjectRef::of(net.port700)));
}

// Reference controller model: a pair's objects are interned again for
// every switch the pair is deployed on, inside the switch loop.
RiskModel reference_controller_model(const PolicyIndex& index) {
  RiskModel m = RiskModel::empty(RiskModelKind::kController);
  for (const EpgPair& pair : index.pairs()) {
    for (const SwitchId sw : index.switches_of(pair)) {
      const auto e = m.add_element(RiskElement{sw, pair});
      for (const ObjectRef obj : index.objects_of(pair)) {
        m.add_dependency(e, m.add_risk(obj));
      }
      m.add_dependency(e, m.add_risk(ObjectRef::of(sw)));
    }
  }
  return m;
}

void expect_same_structure(const RiskModel& got, const RiskModel& want) {
  ASSERT_EQ(got.risk_count(), want.risk_count());
  ASSERT_EQ(got.element_count(), want.element_count());
  EXPECT_EQ(got.edge_count(), want.edge_count());
  for (RiskModel::RiskIdx r = 0; r < want.risk_count(); ++r) {
    ASSERT_EQ(got.risk(r), want.risk(r)) << "risk " << r;
    const auto a = got.elements_of(r);
    const auto b = want.elements_of(r);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "risk " << r;
  }
  for (RiskModel::ElementIdx e = 0; e < want.element_count(); ++e) {
    ASSERT_EQ(got.element(e), want.element(e)) << "element " << e;
    const auto a = got.risks_of(e);
    const auto b = want.risks_of(e);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "element " << e;
  }
}

TEST(RiskModelController, MatchesPerSwitchInterningOnGeneratedFabric) {
  Rng rng{14};
  const GeneratedNetwork generated =
      generate_network(GeneratorProfile::scaled(32), rng);
  const PolicyIndex index{generated.policy};
  ASSERT_GT(index.pairs().size(), 100u);
  const RiskModel model = RiskModel::build_controller_model(index);
  expect_same_structure(model, reference_controller_model(index));
}

TEST(RiskModelController, PairOnNoSwitchInternsNoRisk) {
  Fabric fabric;
  const SwitchId s1 = fabric.add_switch("S1");
  const SwitchId s2 = fabric.add_switch("S2");
  NetworkPolicy policy;
  const VrfId vrf = policy.add_vrf("VRF", policy.add_tenant("t"));
  // The ghost pair has no endpoints and is linked first, so its objects
  // would be numbered first if they were interned at all.
  const EpgId ghost_a = policy.add_epg("GhostA", vrf);
  const EpgId ghost_b = policy.add_epg("GhostB", vrf);
  const EpgId web = policy.add_epg("Web", vrf);
  const EpgId app = policy.add_epg("App", vrf);
  policy.add_endpoint("EP1", web, s1);
  policy.add_endpoint("EP2", app, s2);
  const FilterId shared = policy.add_filter("p80", {FilterEntry::allow_tcp(80)});
  const FilterId ghost_only =
      policy.add_filter("p9000", {FilterEntry::allow_tcp(9000)});
  const ContractId ghost_contract =
      policy.add_contract("Ghost", {ghost_only, shared});
  const ContractId web_app = policy.add_contract("Web-App", {shared});
  policy.link(ghost_a, ghost_b, ghost_contract);
  policy.link(web, app, web_app);

  const PolicyIndex index{policy};
  ASSERT_EQ(index.pairs().size(), 2u);
  ASSERT_TRUE(index.switches_of(index.pairs()[0]).empty());
  const RiskModel model = RiskModel::build_controller_model(index);
  expect_same_structure(model, reference_controller_model(index));

  for (const ObjectRef obj :
       {ObjectRef::of(ghost_a), ObjectRef::of(ghost_b),
        ObjectRef::of(ghost_contract), ObjectRef::of(ghost_only)}) {
    EXPECT_FALSE(model.has_risk(obj)) << obj;
  }
  // Web-App's five objects, then its two switches.
  const auto& objects = index.objects_of(index.pairs()[1]);
  ASSERT_EQ(objects.size(), 5u);
  ASSERT_EQ(model.risk_count(), 7u);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(model.risk(static_cast<RiskModel::RiskIdx>(i)), objects[i]);
  }
  EXPECT_EQ(model.risk(5), ObjectRef::of(s1));
  EXPECT_EQ(model.risk(6), ObjectRef::of(s2));
  EXPECT_EQ(model.element_count(), 2u);
  EXPECT_EQ(model.edge_count(), 12u);
}

TEST(RiskModelCustom, HandBuiltGraphBehaves) {
  RiskModel model = RiskModel::empty(RiskModelKind::kSwitch);
  const auto e0 =
      model.add_element(RiskElement{SwitchId{0}, EpgPair{EpgId{0}, EpgId{1}}});
  const auto e1 =
      model.add_element(RiskElement{SwitchId{0}, EpgPair{EpgId{1}, EpgId{2}}});
  const auto r0 = model.add_risk(ObjectRef::of(FilterId{0}));
  const auto r1 = model.add_risk(ObjectRef::of(FilterId{1}));
  model.add_dependency(e0, r0);
  model.add_dependency(e1, r0);
  model.add_dependency(e1, r1);

  model.mark_edge_failed(e1, r1);
  EXPECT_TRUE(model.element_failed(e1));
  EXPECT_FALSE(model.element_failed(e0));
  EXPECT_EQ(model.failed_degree(r1), 1u);
  EXPECT_EQ(model.failed_degree(r0), 0u);

  // Marking a non-existent edge is a no-op.
  model.mark_edge_failed(e0, r1);
  EXPECT_FALSE(model.element_failed(e0));

  // Marking twice does not double count.
  model.mark_edge_failed(e1, r1);
  EXPECT_EQ(model.failed_degree(r1), 1u);
}

}  // namespace
}  // namespace scout
