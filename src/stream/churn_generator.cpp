#include "src/stream/churn_generator.h"

#include <algorithm>

namespace scout::stream {
namespace {

bool contains(const std::vector<SwitchId>& v, SwitchId sw) {
  return std::find(v.begin(), v.end(), sw) != v.end();
}

void erase_one(std::vector<SwitchId>& v, SwitchId sw) {
  const auto it = std::find(v.begin(), v.end(), sw);
  if (it != v.end()) v.erase(it);
}

}  // namespace

ChurnGenerator::ChurnGenerator(SimNetwork& net, EventBus& bus,
                               std::uint64_t seed, ChurnMix mix)
    : net_(&net), bus_(&bus), rng_(seed), mix_(mix) {}

SwitchAgent& ChurnGenerator::agent_at(std::size_t index) {
  return *net_->agents()[index].get();
}

SwitchAgent* ChurnGenerator::healthy_agent() {
  const auto agents = net_->agents();
  if (agents.empty()) return nullptr;
  // Bounded random probing keeps the draw count deterministic-ish cheap;
  // fall back to a scan so "one healthy switch left" still terminates.
  for (int tries = 0; tries < 8; ++tries) {
    SwitchAgent& a = agent_at(rng_.below(agents.size()));
    if (!a.crashed() && !contains(disconnected_, a.id())) return &a;
  }
  for (const auto& a : agents) {
    if (!a->crashed() && !contains(disconnected_, a->id())) return a.get();
  }
  return nullptr;
}

std::size_t ChurnGenerator::pump(std::size_t ops, bool allow_valve) {
  const EventBus::Cursor start = bus_->cursor();
  for (std::size_t i = 0; i < ops; ++i) {
    step();
    ++ops_;
  }
  if (allow_valve && bus_->cursor() == start) {
    // Degenerate-network valve: force repair churn (a resync always
    // republishes something on a deployed fabric) before reporting a
    // silent interval.
    if (SwitchAgent* a = healthy_agent()) {
      (void)net_->controller().resync_switch(a->id());
      ++ops_;
    }
  }
  return bus_->cursor() - start;
}

void ChurnGenerator::step() {
  Controller& controller = net_->controller();
  const auto agents = net_->agents();
  if (agents.empty()) return;
  net_->clock().advance(rng_.between(1, 40));
  const SimTime now = net_->clock().now();

  const double weights[] = {mix_.evict,   mix_.corrupt,       mix_.resync,
                            mix_.crash,   mix_.recover,       mix_.channel_flap,
                            mix_.benign_change, mix_.migrate};
  double total = 0.0;
  for (const double w : weights) total += std::max(0.0, w);
  if (total <= 0.0) return;
  double draw = rng_.uniform() * total;
  std::size_t op = 0;
  for (; op + 1 < std::size(weights); ++op) {
    draw -= std::max(0.0, weights[op]);
    if (draw < 0.0) break;
  }

  switch (op) {
    case 0: {  // evict
      SwitchAgent& a = agent_at(rng_.below(agents.size()));
      const CauseId cause =
          CauseId::make(CauseEngine::kChurnEvict, ++cause_ordinal_);
      CauseScope scope{cause};
      if (a.evict_rules(1 + rng_.below(3), now) > 0 && ledger_ != nullptr) {
        ledger_->record(cause, a.id(), now);
      }
      break;
    }
    case 1: {  // corrupt
      SwitchAgent& a = agent_at(rng_.below(agents.size()));
      const CauseId cause =
          CauseId::make(CauseEngine::kChurnCorrupt, ++cause_ordinal_);
      CauseScope scope{cause};
      const auto corruption =
          a.corrupt_tcam_bit(rng_, now, /*detection_probability=*/0.5);
      if (corruption.has_value() && ledger_ != nullptr) {
        ledger_->record(cause, a.id(), now);
      }
      break;
    }
    case 2: {  // resync (repair churn on a healthy switch)
      if (SwitchAgent* a = healthy_agent()) {
        (void)controller.resync_switch(a->id());
      }
      break;
    }
    case 3: {  // crash mid-resync: the §V-B hard case, switch ends wiped
      SwitchAgent* a = healthy_agent();
      if (a == nullptr) break;
      const CauseId cause =
          CauseId::make(CauseEngine::kChurnCrash, ++cause_ordinal_);
      CauseScope scope{cause};
      a->crash_after(0);
      crashed_.push_back(a->id());
      (void)controller.resync_switch(a->id());
      if (ledger_ != nullptr) ledger_->record(cause, a->id(), now);
      break;
    }
    case 4: {  // recover a crashed agent and resync it clean
      if (crashed_.empty()) break;
      const SwitchId sw = crashed_[rng_.below(crashed_.size())];
      net_->agent(sw).recover(now);
      erase_one(crashed_, sw);
      (void)controller.resync_switch(sw);
      break;
    }
    case 5: {  // channel flap: down now, up + resync on a later flap
      if (!disconnected_.empty() && rng_.chance(0.6)) {
        const SwitchId sw =
            disconnected_[rng_.below(disconnected_.size())];
        controller.reconnect_switch(sw);
        erase_one(disconnected_, sw);
        (void)controller.resync_switch(sw);
      } else if (SwitchAgent* a = healthy_agent()) {
        controller.disconnect_switch(a->id());
        disconnected_.push_back(a->id());
      }
      break;
    }
    case 6: {  // benign change-log noise
      const NetworkPolicy& policy = controller.policy();
      const std::size_t kind = rng_.below(3);
      if (kind == 0 && !policy.filters().empty()) {
        controller.record_benign_change(ObjectRef::of(
            policy.filters()[rng_.below(policy.filters().size())].id));
      } else if (kind == 1 && !policy.contracts().empty()) {
        controller.record_benign_change(ObjectRef::of(
            policy.contracts()[rng_.below(policy.contracts().size())].id));
      } else if (!policy.epgs().empty()) {
        controller.record_benign_change(ObjectRef::of(
            policy.epgs()[rng_.below(policy.epgs().size())].id));
      }
      break;
    }
    case 7: {  // endpoint migration: recompile (epoch bump) + two resyncs
      const NetworkPolicy& policy = controller.policy();
      if (policy.endpoints().empty()) break;
      const EndpointId ep =
          policy.endpoints()[rng_.below(policy.endpoints().size())].id;
      SwitchAgent* to = healthy_agent();
      if (to == nullptr) break;
      (void)controller.migrate_endpoint(ep, to->id());
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// ConcurrentChurnDriver

namespace {

// Control tail runs the policy/repair ops only; evict and corrupt belong
// to the concurrent data phase.
ChurnMix control_tail_mix(ChurnMix mix) {
  mix.evict = 0.0;
  mix.corrupt = 0.0;
  return mix;
}

}  // namespace

ConcurrentChurnDriver::ConcurrentChurnDriver(SimNetwork& net, EventBus& bus,
                                             std::uint64_t seed)
    : ConcurrentChurnDriver(net, bus, seed, Options{}) {}

ConcurrentChurnDriver::ConcurrentChurnDriver(SimNetwork& net, EventBus& bus,
                                             std::uint64_t seed,
                                             Options options)
    : net_(&net),
      bus_(&bus),
      options_(options),
      schedule_seed_(derive_seed(seed, 0)),
      control_(net, bus, derive_seed(seed, 1),
               control_tail_mix(options.mix)) {
  SCOUT_CHECK(options_.publishers > 0,
              "ConcurrentChurnDriver: at least one publisher");
  if (options_.use_ring) {
    SCOUT_CHECK(bus_->ring() != nullptr,
                "ConcurrentChurnDriver: use_ring requires an attached ring");
    SCOUT_CHECK(bus_->ring()->publishers() >= options_.publishers,
                "ConcurrentChurnDriver: ring has "
                    << bus_->ring()->publishers() << " shards, need "
                    << options_.publishers);
    workers_.reserve(options_.publishers);
    for (std::size_t p = 0; p < options_.publishers; ++p) {
      workers_.emplace_back([this, p] { worker_main(p); });
    }
  }
}

ConcurrentChurnDriver::~ConcurrentChurnDriver() {
  stop_requested_.store(true, std::memory_order_release);
  {
    MutexLock l{mu_};
    shutdown_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
}

void ConcurrentChurnDriver::make_schedule(std::size_t data_ops) {
  SCOUT_DCHECK(schedule_folded_,
               "ConcurrentChurnDriver: previous generation's truths "
               "not folded before rescheduling");
  schedule_.clear();
  schedule_mutated_.clear();
  const auto agents = net_->agents();
  const double evict_w = std::max(0.0, options_.mix.evict);
  const double corrupt_w = std::max(0.0, options_.mix.corrupt);
  const double total = evict_w + corrupt_w;
  // A mix without data-plane weights schedules no data ops at all.
  if (agents.empty() || data_ops == 0 || total <= 0.0) return;
  schedule_.reserve(data_ops);
  const std::uint64_t interval_seed = derive_seed(schedule_seed_, interval_);
  ++interval_;
  for (std::size_t i = 0; i < data_ops; ++i) {
    // One private rng per op, derived from (interval, op index) — no
    // shared stream for publisher threads to race on, and no dependence
    // on who executes the op when.
    Rng op_rng{derive_seed(interval_seed, i)};
    net_->clock().advance(op_rng.between(1, 40));
    DataOp op;
    op.agent_index = op_rng.below(agents.size());
    op.kind = op_rng.uniform() * total < evict_w ? DataOp::Kind::kEvict
                                                  : DataOp::Kind::kCorrupt;
    op.rng_seed = op_rng();
    op.time = net_->clock().now();
    op.cause = CauseId::make(op.kind == DataOp::Kind::kEvict
                                 ? CauseEngine::kChurnEvict
                                 : CauseEngine::kChurnCorrupt,
                             ++data_cause_ordinal_);
    schedule_.push_back(op);
  }
  schedule_mutated_.assign(schedule_.size(), 0);
  schedule_folded_ = false;
}

bool ConcurrentChurnDriver::run_op(const DataOp& op) {
  SwitchAgent& a = *net_->agents()[op.agent_index];
  Rng rng{op.rng_seed};
  CauseScope scope{op.cause};
  if (op.kind == DataOp::Kind::kEvict) {
    return a.evict_rules(1 + rng.below(3), op.time) > 0;
  }
  return a.corrupt_tcam_bit(rng, op.time, /*detection_probability=*/0.5)
      .has_value();
}

void ConcurrentChurnDriver::fold_schedule_truths() {
  if (schedule_folded_) return;
  schedule_folded_ = true;
  if (ledger_ == nullptr) return;
  const auto agents = net_->agents();
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    if (schedule_mutated_[i] == 0) continue;
    const DataOp& op = schedule_[i];
    ledger_->record(op.cause, agents[op.agent_index]->id(), op.time);
  }
}

void ConcurrentChurnDriver::dispatch(bool wait_done) {
  MutexLock l{mu_};
  SCOUT_CHECK(pending_workers_ == 0,
              "ConcurrentChurnDriver: generation already in flight");
  pending_workers_ = workers_.size();
  ++generation_;
  work_cv_.notify_all();
  while (wait_done && pending_workers_ != 0) done_cv_.wait(mu_);
}

void ConcurrentChurnDriver::worker_main(std::size_t pub) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      MutexLock l{mu_};
      while (generation_ == seen && !shutdown_) work_cv_.wait(mu_);
      if (shutdown_) return;
      seen = generation_;
    }
    {
      // Claim the shard + route this thread's publishes into it for the
      // duration of the generation.
      EventBus::ConcurrentPublishCapability cap{*bus_, pub};
      for (std::size_t i = 0; i < schedule_.size(); ++i) {
        const DataOp& op = schedule_[i];
        if (op.agent_index % options_.publishers != pub) continue;
        if (stop_requested_.load(std::memory_order_acquire)) break;
        if (run_op(op)) schedule_mutated_[i] = 1;
        executed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    {
      MutexLock l{mu_};
      if (--pending_workers_ == 0) done_cv_.notify_all();
    }
  }
}

std::size_t ConcurrentChurnDriver::pump(std::size_t ops) {
  const EventBus::Cursor start = bus_->cursor();
  std::size_t control_ops =
      ops == 0 ? 0
               : std::max<std::size_t>(
                     1, static_cast<std::size_t>(
                            static_cast<double>(ops) *
                            options_.control_fraction));
  control_ops = std::min(control_ops, ops);
  make_schedule(ops - control_ops);
  if (!schedule_.empty()) {
    if (!workers_.empty()) {
      dispatch(/*wait_done=*/true);
    } else {
      for (std::size_t i = 0; i < schedule_.size(); ++i) {
        if (run_op(schedule_[i])) schedule_mutated_[i] = 1;
      }
      executed_.fetch_add(schedule_.size(), std::memory_order_relaxed);
    }
  }
  fold_schedule_truths();
  if (bus_->ring() != nullptr) (void)bus_->ingest_ring();
  if (control_ops > 0) (void)control_.pump(control_ops, /*allow_valve=*/false);
  return bus_->cursor() - start;
}

std::size_t ConcurrentChurnDriver::pump_control(std::size_t ops) {
  // Documented precondition: called at publisher quiescence, which is
  // also the first serial point where a pipelined segment's truths can
  // be folded.
  fold_schedule_truths();
  if (ops == 0) return 0;
  const std::size_t control_ops = std::min(
      ops, std::max<std::size_t>(
               1, static_cast<std::size_t>(static_cast<double>(ops) *
                                           options_.control_fraction)));
  return control_.pump(control_ops, /*allow_valve=*/false);
}

void ConcurrentChurnDriver::start(std::size_t total_ops) {
  SCOUT_CHECK(!workers_.empty(),
              "ConcurrentChurnDriver::start: pipelined mode needs use_ring");
  stop_requested_.store(false, std::memory_order_release);
  make_schedule(total_ops);
  if (!schedule_.empty()) dispatch(/*wait_done=*/false);
}

bool ConcurrentChurnDriver::producing() const {
  MutexLock l{mu_};
  return pending_workers_ != 0;
}

void ConcurrentChurnDriver::stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (MpscRing* ring = bus_->ring()) ring->close();
  {
    MutexLock l{mu_};
    while (pending_workers_ != 0) done_cv_.wait(mu_);
  }
  fold_schedule_truths();
}

std::size_t ConcurrentChurnDriver::ops_applied() const noexcept {
  return control_.ops_applied() +
         executed_.load(std::memory_order_acquire);
}

}  // namespace scout::stream
