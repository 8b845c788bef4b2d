// Heartbeat-based failure detector with adaptive timeouts.
//
// Every `interval` the owner broadcasts a heartbeat on the control lane.
// A peer is suspected when no heartbeat arrived within its current timeout;
// a late heartbeat from a suspected peer revokes the suspicion and enlarges
// that peer's timeout (multiplicatively), so in any run where delays
// eventually stabilise there is a time after which no correct process is
// suspected — the eventually-strong (◊S) behaviour the protocols assume.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fd/failure_detector.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace svs::fd {

/// Control-lane heartbeat message.
class HeartbeatMessage final : public net::Message {
 public:
  HeartbeatMessage() : net::Message(net::MessageType::heartbeat) {}
};

class HeartbeatDetector final : public FailureDetector {
 public:
  struct Config {
    sim::Duration interval = sim::Duration::millis(20);
    sim::Duration initial_timeout = sim::Duration::millis(100);
    sim::Duration max_timeout = sim::Duration::seconds(10.0);
  };

  /// Monitors `peers` (which must not contain `owner`) on behalf of `owner`.
  HeartbeatDetector(sim::Simulator& simulator, net::Transport& network,
                    net::ProcessId owner, std::vector<net::ProcessId> peers,
                    Config config);

  /// Begins emitting heartbeats and arming peer timers.
  void start();

  /// The owner's endpoint routes arriving HeartbeatMessages here.
  void on_heartbeat(net::ProcessId from);

  [[nodiscard]] bool suspects(net::ProcessId p) const override;

  /// Current timeout for a peer (exposed for tests of the adaptive rule).
  [[nodiscard]] sim::Duration timeout_of(net::ProcessId p) const;

 private:
  void broadcast();
  void arm_timer(net::ProcessId p);
  void on_timeout(net::ProcessId p);

  sim::Simulator& sim_;
  net::Transport& net_;
  net::ProcessId owner_;
  std::vector<net::ProcessId> peers_;
  Config config_;
  bool started_ = false;

  struct PeerState {
    sim::Duration timeout;
    sim::EventId timer;
    bool suspected = false;
  };
  std::unordered_map<net::ProcessId, PeerState> state_;
};

}  // namespace svs::fd
