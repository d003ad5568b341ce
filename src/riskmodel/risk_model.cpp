#include "src/riskmodel/risk_model.h"

#include <algorithm>
#include <stdexcept>

namespace scout {

RiskModel::ElementIdx RiskModel::intern_element(const RiskElement& e) {
  const auto [it, inserted] =
      elem_idx_.try_emplace(e, static_cast<ElementIdx>(elements_.size()));
  if (inserted) {
    elements_.push_back(e);
    elem_risks_.emplace_back();
    failed_risks_.emplace_back();
  }
  return it->second;
}

RiskModel::RiskIdx RiskModel::intern_risk(ObjectRef object) {
  const auto [it, inserted] =
      risk_idx_.try_emplace(object, static_cast<RiskIdx>(risks_.size()));
  if (inserted) {
    risks_.push_back(object);
    risk_elems_.emplace_back();
    failed_count_per_risk_.push_back(0);
  }
  return it->second;
}

void RiskModel::add_edge(ElementIdx e, RiskIdx r) {
  elem_risks_[e].push_back(r);
  risk_elems_[r].push_back(e);
  ++edge_count_;
}

RiskModel RiskModel::empty(RiskModelKind kind) {
  RiskModel m;
  m.kind_ = kind;
  return m;
}

RiskModel RiskModel::build_switch_model(const PolicyIndex& index,
                                        SwitchId sw) {
  RiskModel m;
  m.kind_ = RiskModelKind::kSwitch;
  for (const EpgPair& pair : index.pairs_on_switch(sw)) {
    const ElementIdx e = m.intern_element(RiskElement{sw, pair});
    for (ObjectRef obj : index.objects_of(pair)) {
      m.add_edge(e, m.intern_risk(obj));
    }
  }
  return m;
}

RiskModel RiskModel::build_controller_model(const PolicyIndex& index) {
  RiskModel m;
  m.kind_ = RiskModelKind::kController;
  std::vector<RiskIdx> pair_risks;
  for (const EpgPair& pair : index.pairs()) {
    const auto& switches = index.switches_of(pair);
    // A pair deployed nowhere has no element, so none of its objects is a
    // risk. Otherwise its objects are interned once, in the order the
    // first switch's element would intern them.
    if (switches.empty()) continue;
    pair_risks.clear();
    for (ObjectRef obj : index.objects_of(pair)) {
      pair_risks.push_back(m.intern_risk(obj));
    }
    for (SwitchId sw : switches) {
      const ElementIdx e = m.intern_element(RiskElement{sw, pair});
      m.elem_risks_[e].reserve(pair_risks.size() + 1);
      for (const RiskIdx r : pair_risks) m.add_edge(e, r);
      // The switch is a physical shared risk for every pair deployed on it
      // (Figure 3 includes switches among the objects pairs depend on).
      m.add_edge(e, m.intern_risk(ObjectRef::of(sw)));
    }
  }
  return m;
}

RiskModel::RiskIdx RiskModel::risk_index(ObjectRef object) const {
  const auto it = risk_idx_.find(object);
  if (it == risk_idx_.end()) {
    throw std::out_of_range{"RiskModel: unknown risk object"};
  }
  return it->second;
}

RiskModel::ElementIdx RiskModel::element_index(const RiskElement& e) const {
  const auto it = elem_idx_.find(e);
  if (it == elem_idx_.end()) {
    throw std::out_of_range{"RiskModel: unknown element"};
  }
  return it->second;
}

void RiskModel::mark_edge_failed(ElementIdx e, RiskIdx r) {
  // Edge must exist in the dependency structure.
  const auto& risks = elem_risks_[e];
  if (std::find(risks.begin(), risks.end(), r) == risks.end()) return;
  auto& failed = failed_risks_[e];
  const auto pos = std::lower_bound(failed.begin(), failed.end(), r);
  if (pos != failed.end() && *pos == r) return;  // already failed
  failed.insert(pos, r);
  ++failed_count_per_risk_[r];
}

void RiskModel::augment(std::span<const LogicalRule> missing_rules) {
  for (const LogicalRule& lr : missing_rules) {
    if (!lr.prov.contract.valid()) continue;  // default-deny: no provenance
    const RiskElement key{lr.prov.sw, lr.prov.pair};
    const auto it = elem_idx_.find(key);
    if (it == elem_idx_.end()) continue;  // outside this model's scope
    const ElementIdx e = it->second;
    for (ObjectRef obj : lr.prov.policy_objects()) {
      const auto rit = risk_idx_.find(obj);
      if (rit != risk_idx_.end()) mark_edge_failed(e, rit->second);
    }
    if (kind_ == RiskModelKind::kController) {
      const auto rit = risk_idx_.find(ObjectRef::of(lr.prov.sw));
      if (rit != risk_idx_.end()) mark_edge_failed(e, rit->second);
    }
  }
}

bool RiskModel::edge_failed(ElementIdx e, RiskIdx r) const noexcept {
  const auto& failed = failed_risks_[e];
  return std::binary_search(failed.begin(), failed.end(), r);
}

std::span<const RiskModel::RiskIdx> RiskModel::failed_risks_of(
    ElementIdx e) const {
  return failed_risks_[e];
}

std::vector<RiskModel::ElementIdx> RiskModel::failure_signature() const {
  std::vector<ElementIdx> out;
  for (ElementIdx e = 0; e < elements_.size(); ++e) {
    if (!failed_risks_[e].empty()) out.push_back(e);
  }
  return out;
}

std::vector<RiskModel::RiskIdx> RiskModel::suspect_set() const {
  std::vector<bool> suspect(risks_.size(), false);
  for (ElementIdx e = 0; e < elements_.size(); ++e) {
    if (failed_risks_[e].empty()) continue;
    for (RiskIdx r : elem_risks_[e]) suspect[r] = true;
  }
  std::vector<RiskIdx> out;
  for (RiskIdx r = 0; r < risks_.size(); ++r) {
    if (suspect[r]) out.push_back(r);
  }
  return out;
}

void RiskModel::clear_failures() {
  for (auto& v : failed_risks_) v.clear();
  std::fill(failed_count_per_risk_.begin(), failed_count_per_risk_.end(), 0);
}

}  // namespace scout
