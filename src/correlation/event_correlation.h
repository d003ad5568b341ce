// Event correlation engine (paper §V-A): joins the localization hypothesis
// with the controller change log and the device/controller fault logs to
// output most-likely physical-level root causes.
//
// Workflow per the paper: (i) the hypothesis selects which change-log
// records matter; (ii) their timestamps narrow the fault logs to records
// "logged before the policy changes and keep alive"; (iii) matching fault
// records against pre-configured signatures tags each impacted object with
// a root cause, or 'unknown' when nothing matches (e.g. silent TCAM
// corruption, which raises no fault log).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/agent/fault_log.h"
#include "src/policy/change_log.h"
#include "src/policy/object_ref.h"

namespace scout {

enum class RootCauseType : std::uint8_t {
  kTcamOverflow,
  kSwitchUnreachable,
  kAgentCrash,
  kTcamCorruption,
  kRuleEviction,
  kUnknown,
};

[[nodiscard]] std::string_view to_string(RootCauseType t) noexcept;

struct RootCause {
  ObjectRef object;  // the faulty policy object being explained
  RootCauseType type = RootCauseType::kUnknown;
  std::optional<SwitchId> sw;  // where the physical fault occurred
  std::string explanation;
};

// A signature maps a fault-log code to a root-cause class. Admins compose
// these from domain knowledge; more signatures = better coverage (§V-A).
struct FaultSignature {
  std::string name;
  FaultCode code = FaultCode::kTcamOverflow;
  FaultSeverity min_severity = FaultSeverity::kInfo;
  RootCauseType cause = RootCauseType::kUnknown;
};

// Which switches each policy object's compiled rules are on. Keys are the
// objects named by the provenance of at least one L-rule (default-deny
// rules name none); each switch is listed once, in the compiled policy's
// switch iteration order, not sorted. ScoutSystem::build_object_scope
// builds it. correlate() looks up only the hypothesis objects, to require
// that a fault record's switch is in the object's deployment scope.
using ObjectScope = std::unordered_map<ObjectRef, std::vector<SwitchId>>;

class EventCorrelationEngine {
 public:
  // Pre-configures the paper's known-fault signatures (TCAM overflow,
  // unresponsive switch, agent crash, parity error, rule eviction).
  EventCorrelationEngine();

  void add_signature(FaultSignature sig) {
    signatures_.push_back(std::move(sig));
  }
  [[nodiscard]] std::span<const FaultSignature> signatures() const noexcept {
    return signatures_;
  }

  [[nodiscard]] std::vector<RootCause> correlate(
      std::span<const ObjectRef> hypothesis, const ChangeLog& change_log,
      const FaultLog& fault_log, const ObjectScope& scope) const;

 private:
  [[nodiscard]] const FaultSignature* match(
      const FaultRecord& record) const noexcept;

  std::vector<FaultSignature> signatures_;
};

}  // namespace scout
