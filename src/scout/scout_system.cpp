#include "src/scout/scout_system.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "src/common/hash.h"
#include "src/runtime/result_sink.h"
#include "src/scout/metrics.h"

namespace scout {

bool fabric_check_identical(const FabricCheck& a, const FabricCheck& b) {
  return a.switches_checked == b.switches_checked &&
         a.extra_rule_count == b.extra_rule_count &&
         a.inconsistent == b.inconsistent &&
         a.missing_rules == b.missing_rules;
}

std::uint64_t fabric_check_digest(std::uint64_t seed,
                                  const FabricCheck& check) {
  std::uint64_t h =
      hash_all(seed, check.switches_checked, check.inconsistent.size(),
               check.missing_rules.size(), check.extra_rule_count);
  for (const SwitchId sw : check.inconsistent) h = hash_all(h, sw);
  for (const LogicalRule& lr : check.missing_rules) {
    h = lr.rule.fold_hash(h);
    h = hash_all(h, lr.prov.sw, lr.prov.pair, lr.prov.vrf, lr.prov.contract,
                 lr.prov.filter, lr.prov.entry_index, lr.prov.reversed);
  }
  return h;
}

FabricCheck ScoutSystem::check_all(SimNetwork& net,
                                   runtime::Executor& executor,
                                   LogicalBddCache* bdd_cache) const {
  const auto agents = net.agents();
  const CompiledPolicy& compiled = net.controller().compiled();
  const std::uint64_t epoch = net.controller().compiled_epoch();
  if (bdd_cache != nullptr && bdd_cache->workers() < executor.workers()) {
    // The per-worker slot discipline is what makes arenas single-threaded;
    // an undersized cache would hand two workers the same slot (or worse).
    throw std::invalid_argument{
        "check_all: LogicalBddCache has fewer worker slots than the "
        "executor has workers"};
  }

  // One task per switch, indexed in agent order (ascending switch id). A
  // skipped switch (nothing compiled, nothing deployed) leaves its slot at
  // the default CheckResult, which merges exactly like an equivalent one.
  // The checker reads the TCAM view in place (a span): nothing mutates the
  // network during the fan-out, and the collection copy the agents offer
  // bought nothing but allocation traffic on this hot path.
  runtime::ResultSlots<runtime::Keyed<SwitchId, CheckResult>> slots{
      agents.size()};
  executor.run(agents.size(), [&](std::size_t index, std::size_t worker) {
    const SwitchAgent& agent = *agents[index];
    slots[index].key = agent.id();
    const auto& logical = compiled.rules_for(agent.id());
    if (logical.empty() && agent.tcam().size() == 0) return;
    const EquivalenceChecker::BddCheckContext ctx{bdd_cache, worker,
                                                  agent.id(), epoch};
    slots[index].value = checker_.check(logical, agent.tcam().rules(), &ctx);
  });

  FabricCheck check;
  check.switches_checked = agents.size();
  CheckResult merged = runtime::merge_keyed(
      slots, CheckResult{},
      [&check](CheckResult& acc, SwitchId sw, CheckResult&& result) {
        if (!result.equivalent) check.inconsistent.push_back(sw);
        acc.absorb(std::move(result));
      });
  check.missing_rules = std::move(merged.missing);
  check.extra_rule_count = merged.extra_rules.size();
  return check;
}

FabricCheck ScoutSystem::check_all(SimNetwork& net) const {
  runtime::SerialExecutor executor;
  return check_all(net, executor);
}

std::vector<LogicalRule> ScoutSystem::find_missing_rules(
    SimNetwork& net, runtime::Executor& executor,
    LogicalBddCache* bdd_cache) const {
  return check_all(net, executor, bdd_cache).missing_rules;
}

std::vector<LogicalRule> ScoutSystem::find_missing_rules(
    SimNetwork& net) const {
  return check_all(net).missing_rules;
}

ObjectScope ScoutSystem::build_object_scope(const SimNetwork& net) {
  ObjectScope scope;
  for (const auto& [sw, rules] :
       net.controller().compiled().per_switch) {
    // A switch's rules are visited together, so an object already noted on
    // `sw` has it as its last entry. A rule from the same (vrf, pair,
    // contract, filter) as the previous one names the same objects.
    const RuleProvenance* prev = nullptr;
    for (const LogicalRule& lr : rules) {
      const RuleProvenance& prov = lr.prov;
      if (!prov.contract.valid()) continue;
      if (prev != nullptr && prov.vrf == prev->vrf &&
          prov.pair == prev->pair && prov.contract == prev->contract &&
          prov.filter == prev->filter) {
        continue;
      }
      prev = &prov;
      for (const ObjectRef obj : prov.policy_objects()) {
        auto& v = scope[obj];
        if (v.empty() || v.back() != sw) v.push_back(sw);
      }
    }
  }
  return scope;
}

ScoutReport ScoutSystem::analyze(SimNetwork& net, RiskModel model,
                                 FabricCheck check) const {
  ScoutReport report;

  // Stage 1-2 came in as the (possibly sharded) fabric check.
  report.switches_checked = check.switches_checked;
  report.switches_inconsistent = check.inconsistent.size();
  report.extra_rule_count = check.extra_rule_count;
  report.missing_rules = std::move(check.missing_rules);

  // Blast radius: distinct pairs and the endpoint pairs inside them.
  {
    const NetworkPolicy& policy = net.controller().policy();
    std::unordered_set<EpgPair> pairs;
    for (const LogicalRule& lr : report.missing_rules) {
      pairs.insert(lr.prov.pair);
    }
    report.distinct_pairs_affected = pairs.size();
    for (const EpgPair& pair : pairs) {
      report.endpoint_pairs_affected +=
          policy.epg(pair.a).endpoints.size() *
          policy.epg(pair.b).endpoints.size();
    }
  }

  // Stage 3: augment the risk model.
  model.augment(report.missing_rules);
  report.observations = model.failure_signature().size();
  report.suspect_set_size = model.suspect_set().size();

  // Stage 4: localize.
  const ScoutLocalizer localizer{options_.localizer};
  report.localization = localizer.localize(
      model, net.controller().change_log(), net.clock().now());
  report.gamma = suspect_reduction(report.localization.hypothesis.size(),
                                   report.suspect_set_size);

  // Stage 5: correlate with fault logs.
  const FaultLog faults = net.collect_fault_logs();
  const ObjectScope scope = build_object_scope(net);
  report.root_causes =
      correlation_.correlate(report.localization.hypothesis,
                             net.controller().change_log(), faults, scope);
  return report;
}

std::size_t ScoutSystem::remediate(SimNetwork& net, const ScoutReport& report,
                                   runtime::Executor& executor) const {
  (void)net.controller().reinstall_rules(report.missing_rules);
  return find_missing_rules(net, executor).size();
}

std::size_t ScoutSystem::remediate(SimNetwork& net,
                                   const ScoutReport& report) const {
  runtime::SerialExecutor executor;
  return remediate(net, report, executor);
}

ScoutReport ScoutSystem::analyze_controller(SimNetwork& net,
                                            runtime::Executor& executor) const {
  const PolicyIndex index{net.controller().policy()};
  return analyze(net, RiskModel::build_controller_model(index),
                 check_all(net, executor));
}

ScoutReport ScoutSystem::analyze_controller(SimNetwork& net) const {
  runtime::SerialExecutor executor;
  return analyze_controller(net, executor);
}

ScoutReport ScoutSystem::analyze_switch(SimNetwork& net, SwitchId sw,
                                        runtime::Executor& executor) const {
  const PolicyIndex index{net.controller().policy()};
  return analyze(net, RiskModel::build_switch_model(index, sw),
                 check_all(net, executor));
}

ScoutReport ScoutSystem::analyze_switch(SimNetwork& net, SwitchId sw) const {
  runtime::SerialExecutor executor;
  return analyze_switch(net, sw, executor);
}

std::vector<std::pair<SwitchId, ScoutReport>>
ScoutSystem::analyze_inconsistent_switches(SimNetwork& net,
                                           runtime::Executor& executor) const {
  // One sharded collection pass decides which switches need a local model
  // *and* feeds every per-switch report — the fleet is checked exactly once.
  FabricCheck check = check_all(net, executor);
  std::vector<SwitchId> bad;
  for (const LogicalRule& lr : check.missing_rules) {
    if (std::find(bad.begin(), bad.end(), lr.prov.sw) == bad.end()) {
      bad.push_back(lr.prov.sw);
    }
  }
  std::sort(bad.begin(), bad.end());

  const PolicyIndex index{net.controller().policy()};
  std::vector<std::pair<SwitchId, ScoutReport>> out;
  out.reserve(bad.size());
  for (const SwitchId sw : bad) {
    out.emplace_back(sw, analyze(net, RiskModel::build_switch_model(index, sw),
                                 check));
  }
  return out;
}

std::vector<std::pair<SwitchId, ScoutReport>>
ScoutSystem::analyze_inconsistent_switches(SimNetwork& net) const {
  runtime::SerialExecutor executor;
  return analyze_inconsistent_switches(net, executor);
}

}  // namespace scout
