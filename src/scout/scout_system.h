// ScoutSystem: the end-to-end pipeline of paper Figure 6.
//
//   collect TCAM (T) + compiled policy (L)
//     -> L-T equivalence checker -> missing rules
//     -> risk model (switch or controller) + augmentation
//     -> SCOUT fault localization -> hypothesis
//     -> event correlation (change log x fault logs) -> root causes
#pragma once

#include <vector>

#include "src/checker/equivalence_checker.h"
#include "src/correlation/event_correlation.h"
#include "src/localization/scout_localizer.h"
#include "src/riskmodel/risk_model.h"
#include "src/runtime/campaign.h"
#include "src/scout/sim_network.h"

namespace scout {

// Merged outcome of checking every switch's TCAM against its compiled
// rules — the shared substrate of find_missing_rules, analyze and
// remediate. Per-switch partials are merged in switch order, so the
// contents are bit-identical no matter which executor ran the checks.
struct FabricCheck {
  std::size_t switches_checked = 0;
  // Switches whose deployment diverged from L (missing or extra rules),
  // ascending by switch id.
  std::vector<SwitchId> inconsistent;
  // Concatenation of per-switch missing rules, in switch order.
  std::vector<LogicalRule> missing_rules;
  std::size_t extra_rule_count = 0;
};

// Structural equality of two fabric checks, every field compared —
// including each missing rule's match fields, priority and provenance.
// The single definition of "identical verdicts" the stream monitor's
// incremental-vs-full differential tests and benches apply.
[[nodiscard]] bool fabric_check_identical(const FabricCheck& a,
                                          const FabricCheck& b);

// Order-sensitive digest folding one verdict into a running hash; equal
// verdict streams fold to equal digests. Used to memcmp-compare verdict
// streams across monitoring modes/worker counts without retaining them.
[[nodiscard]] std::uint64_t fabric_check_digest(std::uint64_t seed,
                                                const FabricCheck& check);

struct ScoutReport {
  // Checker stage.
  std::size_t switches_checked = 0;
  std::size_t switches_inconsistent = 0;
  std::vector<LogicalRule> missing_rules;
  // Device-only rules admitting packets the policy does not allow
  // (stale/corrupted state; these have no provenance).
  std::size_t extra_rule_count = 0;
  // Risk-model stage.
  std::size_t observations = 0;
  std::size_t suspect_set_size = 0;
  // Blast radius: distinct EPG pairs with at least one missing rule, and
  // the number of endpoint pairs inside them (the paper's motivation: one
  // faulty object can take out connectivity for thousands of endpoints).
  std::size_t distinct_pairs_affected = 0;
  std::size_t endpoint_pairs_affected = 0;
  // Localization stage.
  LocalizationResult localization;
  double gamma = 0.0;  // |H| / suspect set
  // Correlation stage.
  std::vector<RootCause> root_causes;
};

class ScoutSystem {
 public:
  struct Options {
    CheckMode check_mode = CheckMode::kExactBdd;
    ScoutLocalizer::Options localizer{};
  };

  ScoutSystem() = default;
  explicit ScoutSystem(Options options)
      : options_(options), checker_(options.check_mode) {}

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  // The sharded fabric check: one L-T check task per switch fanned over
  // `executor`, merged in switch order. Every checker entry point below is
  // a view over this one implementation, so their accounting cannot drift.
  // Each task uses its worker's BDD state (a LogicalBddCache arena when
  // one is passed, a task-local manager otherwise — never shared across
  // threads) and only reads the network, so parallel output is
  // bit-identical to serial.
  //
  // `bdd_cache` (BDD mode only): per-worker arenas keyed by the
  // controller's compiled_epoch() keep the per-switch logical BDDs
  // resident across repeated fabric checks; a recompile invalidates them.
  // One cache must only ever see one controller (sweep drivers give each
  // cached network its own — see experiment.cpp). Results are
  // bit-identical with and without the cache.
  [[nodiscard]] FabricCheck check_all(SimNetwork& net,
                                      runtime::Executor& executor,
                                      LogicalBddCache* bdd_cache =
                                          nullptr) const;
  [[nodiscard]] FabricCheck check_all(SimNetwork& net) const;

  // Collect TCAMs from every agent, check against compiled L-rules, and
  // return all missing rules (the failure signature source).
  [[nodiscard]] std::vector<LogicalRule> find_missing_rules(
      SimNetwork& net) const;
  [[nodiscard]] std::vector<LogicalRule> find_missing_rules(
      SimNetwork& net, runtime::Executor& executor,
      LogicalBddCache* bdd_cache = nullptr) const;

  // Full pipeline on the controller risk model (global analysis).
  [[nodiscard]] ScoutReport analyze_controller(SimNetwork& net) const;
  [[nodiscard]] ScoutReport analyze_controller(
      SimNetwork& net, runtime::Executor& executor) const;

  // Full pipeline on one switch's risk model (local analysis).
  [[nodiscard]] ScoutReport analyze_switch(SimNetwork& net, SwitchId sw) const;
  [[nodiscard]] ScoutReport analyze_switch(SimNetwork& net, SwitchId sw,
                                           runtime::Executor& executor) const;

  // Fleet sweep: one switch-risk-model analysis per switch with at least
  // one missing rule (switches that are consistent, or diverge only by
  // extra rules, are skipped — their models have empty failure
  // signatures). One sharded fabric check feeds every per-switch report;
  // the fleet is never re-collected per switch.
  [[nodiscard]] std::vector<std::pair<SwitchId, ScoutReport>>
  analyze_inconsistent_switches(SimNetwork& net) const;
  [[nodiscard]] std::vector<std::pair<SwitchId, ScoutReport>>
  analyze_inconsistent_switches(SimNetwork& net,
                                runtime::Executor& executor) const;

  // Deployment scope of every policy object (object -> switches), from the
  // compiled rules' provenance; feeds the correlation engine. Linear in the
  // number of compiled rules; rebuilt on every call, nothing is cached.
  [[nodiscard]] static ObjectScope build_object_scope(const SimNetwork& net);

  // Stopgap remediation (paper §III-C): reinstall the report's missing
  // rules and re-check. Returns the number of rules still missing after
  // the pass — non-zero when the underlying physical fault persists (an
  // unresponsive switch keeps losing the pushes), which is exactly why the
  // paper calls this a stopgap rather than a fix. The post-reinstall
  // verification re-check goes through the same sharded path as analysis.
  [[nodiscard]] std::size_t remediate(SimNetwork& net,
                                      const ScoutReport& report) const;
  [[nodiscard]] std::size_t remediate(SimNetwork& net,
                                      const ScoutReport& report,
                                      runtime::Executor& executor) const;

 private:
  // Stages 3-5 over a finished fabric check (stage 1-2). Takes the check
  // by value: each report owns its missing-rule list.
  [[nodiscard]] ScoutReport analyze(SimNetwork& net, RiskModel model,
                                    FabricCheck check) const;

  Options options_;
  EquivalenceChecker checker_;
  EventCorrelationEngine correlation_;
};

}  // namespace scout
