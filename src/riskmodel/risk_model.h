// Bipartite risk models (paper §III-B).
//
// Elements (left side) are the things failures are observed on; risks
// (right side) are the policy/physical objects failures are attributed to.
//
//  * Switch risk model: one model per switch; element = EPG pair deployed on
//    that switch; risks = the pair's policy objects (VRF, EPGs, contracts,
//    filters).
//  * Controller risk model: one global model; element = (switch, EPG pair)
//    triplet; risks = the pair's policy objects plus the switch itself.
//
// Edges are created at build time from the policy dependency structure and
// marked `fail` during augmentation from the L-T checker's missing rules
// (§III-C). An element with >= 1 failed edge is an observation; the set of
// observations is the failure signature.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/checker/logical_rule.h"
#include "src/common/hash.h"
#include "src/policy/network_policy.h"
#include "src/policy/policy_index.h"

namespace scout {

struct RiskElement {
  SwitchId sw;
  EpgPair pair;

  friend constexpr auto operator<=>(const RiskElement&,
                                    const RiskElement&) noexcept = default;
};

inline std::ostream& operator<<(std::ostream& os, const RiskElement& e) {
  return os << "S" << e.sw << '-' << e.pair;
}

struct RiskElementHash {
  std::size_t operator()(const RiskElement& e) const noexcept {
    return hash_all(e.sw, e.pair);
  }
};

enum class RiskModelKind : std::uint8_t { kSwitch, kController };

class RiskModel {
 public:
  using ElementIdx = std::uint32_t;
  using RiskIdx = std::uint32_t;

  // Switch risk model for `sw` (paper Figure 4(a)).
  static RiskModel build_switch_model(const PolicyIndex& index, SwitchId sw);

  // Controller risk model over all switches (paper Figure 4(b)). Pairs are
  // taken in index order; risks are numbered by first use: a pair's policy
  // objects, then each switch it is deployed on. A pair deployed on no
  // switch adds no element and no risk.
  static RiskModel build_controller_model(const PolicyIndex& index);

  // Empty model for hand-constructed bipartite graphs (tests, tooling,
  // paper-figure reproductions).
  static RiskModel empty(RiskModelKind kind);
  ElementIdx add_element(const RiskElement& e) { return intern_element(e); }
  RiskIdx add_risk(ObjectRef object) { return intern_risk(object); }
  void add_dependency(ElementIdx e, RiskIdx r) { add_edge(e, r); }

  [[nodiscard]] RiskModelKind kind() const noexcept { return kind_; }

  // -- structure --------------------------------------------------------------
  [[nodiscard]] std::size_t element_count() const noexcept {
    return elements_.size();
  }
  [[nodiscard]] std::size_t risk_count() const noexcept {
    return risks_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  [[nodiscard]] const RiskElement& element(ElementIdx e) const {
    return elements_[e];
  }
  [[nodiscard]] ObjectRef risk(RiskIdx r) const { return risks_[r]; }

  [[nodiscard]] std::span<const RiskIdx> risks_of(ElementIdx e) const {
    return elem_risks_[e];
  }
  [[nodiscard]] std::span<const ElementIdx> elements_of(RiskIdx r) const {
    return risk_elems_[r];
  }

  [[nodiscard]] bool has_risk(ObjectRef object) const noexcept {
    return risk_idx_.contains(object);
  }
  [[nodiscard]] RiskIdx risk_index(ObjectRef object) const;
  [[nodiscard]] bool has_element(const RiskElement& e) const noexcept {
    return elem_idx_.contains(e);
  }
  [[nodiscard]] ElementIdx element_index(const RiskElement& e) const;

  // -- failure annotation ------------------------------------------------------
  // Mark the edge (element, risk) failed. No-op if the edge doesn't exist.
  void mark_edge_failed(ElementIdx e, RiskIdx r);

  // Augment from checker output: for each missing rule, mark the edges
  // between its (switch, pair) element and each of its provenance objects
  // (plus the switch object in the controller model). Missing rules whose
  // element is not in this model (e.g. another switch's rules against a
  // single-switch model) are ignored.
  void augment(std::span<const LogicalRule> missing_rules);

  [[nodiscard]] bool edge_failed(ElementIdx e, RiskIdx r) const noexcept;
  [[nodiscard]] std::span<const RiskIdx> failed_risks_of(ElementIdx e) const;
  [[nodiscard]] bool element_failed(ElementIdx e) const noexcept {
    return !failed_risks_[e].empty();
  }

  // Observation set F: indices of elements with >= 1 failed edge.
  [[nodiscard]] std::vector<ElementIdx> failure_signature() const;

  // Number of elements of risk r that have a failed edge *to r* (|O_i|).
  [[nodiscard]] std::size_t failed_degree(RiskIdx r) const noexcept {
    return failed_count_per_risk_[r];
  }

  // Distinct risks adjacent to at least one failed element: the suspect set
  // an admin would face without localization (denominator of the paper's
  // suspect-set-reduction ratio γ).
  [[nodiscard]] std::vector<RiskIdx> suspect_set() const;

  void clear_failures();

 private:
  RiskModel() = default;

  ElementIdx intern_element(const RiskElement& e);
  RiskIdx intern_risk(ObjectRef object);
  void add_edge(ElementIdx e, RiskIdx r);

  RiskModelKind kind_ = RiskModelKind::kSwitch;
  std::vector<RiskElement> elements_;
  std::vector<ObjectRef> risks_;
  std::unordered_map<RiskElement, ElementIdx, RiskElementHash> elem_idx_;
  std::unordered_map<ObjectRef, RiskIdx> risk_idx_;
  std::vector<std::vector<RiskIdx>> elem_risks_;
  std::vector<std::vector<ElementIdx>> risk_elems_;
  // Failed edges, stored per element (sorted); per-risk failed counts.
  std::vector<std::vector<RiskIdx>> failed_risks_;
  std::vector<std::size_t> failed_count_per_risk_;
  std::size_t edge_count_ = 0;
};

}  // namespace scout
