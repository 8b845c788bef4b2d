#include "fd/heartbeat.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/pool.hpp"

namespace svs::fd {
namespace {

/// Timeout multiplier applied after a false suspicion.
constexpr std::int64_t kBackoff = 2;

}  // namespace

HeartbeatDetector::HeartbeatDetector(sim::Simulator& simulator,
                                     net::Transport& network,
                                     net::ProcessId owner,
                                     std::vector<net::ProcessId> peers,
                                     Config config)
    : sim_(simulator),
      net_(network),
      owner_(owner),
      peers_(std::move(peers)),
      config_(config) {
  SVS_REQUIRE(config_.interval > sim::Duration::zero(),
              "heartbeat interval must be positive");
  SVS_REQUIRE(config_.initial_timeout > config_.interval,
              "timeout must exceed the heartbeat interval");
  SVS_REQUIRE(std::find(peers_.begin(), peers_.end(), owner_) == peers_.end(),
              "a detector does not monitor its own process");
  for (const auto p : peers_) {
    state_.emplace(p, PeerState{config_.initial_timeout, sim::EventId{}, false});
  }
}

void HeartbeatDetector::start() {
  SVS_REQUIRE(!started_, "detector already started");
  started_ = true;
  broadcast();
  for (const auto p : peers_) arm_timer(p);
}

void HeartbeatDetector::broadcast() {
  for (const auto p : peers_) {
    net_.send(owner_, p, util::pool_shared<HeartbeatMessage>(),
              net::Lane::control);
  }
  sim_.schedule_after(config_.interval, [this] { broadcast(); });
}

void HeartbeatDetector::arm_timer(net::ProcessId p) {
  PeerState& st = state_.at(p);
  if (st.timer.valid()) sim_.cancel(st.timer);
  st.timer = sim_.schedule_after(st.timeout, [this, p] { on_timeout(p); });
}

void HeartbeatDetector::on_timeout(net::ProcessId p) {
  PeerState& st = state_.at(p);
  st.timer = sim::EventId{};
  if (!st.suspected) {
    st.suspected = true;
    notify_changed();
  }
}

void HeartbeatDetector::on_heartbeat(net::ProcessId from) {
  const auto it = state_.find(from);
  if (it == state_.end()) return;  // not a monitored peer; ignore
  PeerState& st = it->second;
  if (st.suspected) {
    // False suspicion: revoke and adapt so it eventually stops recurring.
    st.suspected = false;
    st.timeout = std::min(st.timeout * kBackoff, config_.max_timeout);
    notify_changed();
  }
  arm_timer(from);
}

bool HeartbeatDetector::suspects(net::ProcessId p) const {
  const auto it = state_.find(p);
  return it != state_.end() && it->second.suspected;
}

sim::Duration HeartbeatDetector::timeout_of(net::ProcessId p) const {
  const auto it = state_.find(p);
  SVS_REQUIRE(it != state_.end(), "unknown peer");
  return it->second.timeout;
}

}  // namespace svs::fd
