// Convenience harness: a fully wired group of SVS nodes over a transport
// backend, with per-node failure detectors and membership policies.
// Used by tests, examples and the experiment drivers.
#pragma once

#include <memory>
#include <vector>

#include "core/membership.hpp"
#include "core/node.hpp"
#include "core/observer.hpp"
#include "fd/heartbeat.hpp"
#include "fd/oracle.hpp"
#include "fd/swim.hpp"
#include "net/network.hpp"
#include "net/udp_transport.hpp"
#include "sim/simulator.hpp"

namespace svs::core {

class Group {
 public:
  enum class FdKind { oracle, heartbeat, swim };

  /// Which net::Transport implementation carries the group's traffic.
  enum class Backend {
    sim,  // in-memory simulated fabric (the default)
    udp,  // every delivery encoded, shipped through the kernel as a real
          // UDP datagram, recovered by the reliable lane and decoded fresh
          // (net/udp_transport.hpp, all-local mode)
  };

  struct Config {
    std::size_t size = 3;
    NodeConfig node;  // template applied to every node
    net::Network::Config network;
    Backend backend = Backend::sim;
    /// Backend::udp: socket-boundary loss.
    double udp_loss_rate = 0.0;
    /// Backend::udp: if > 0, shrink every socket's SO_RCVBUF (kernel-drop
    /// stress mode).
    int udp_rcvbuf_bytes = 0;
    FdKind fd_kind = FdKind::oracle;
    /// Oracle detection delay (crash -> suspicion).
    sim::Duration oracle_delay = sim::Duration::millis(30);
    fd::HeartbeatDetector::Config heartbeat;
    /// FdKind::swim: shared template; each detector derives its private
    /// rng stream from (swim.seed, owner), so one config serves them all.
    fd::SwimDetector::Config swim;
    /// Attach a MembershipPolicy to every node (suspicion-driven
    /// exclusions).  Disable for experiments that must not reconfigure.
    bool auto_membership = true;
    MembershipPolicy::Config membership;
    /// Optional observer shared by all nodes (e.g. a SpecChecker).
    NodeObserver* observer = nullptr;
  };

  Group(sim::Simulator& simulator, Config config);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] net::ProcessId pid(std::size_t i) const {
    return net::ProcessId(static_cast<std::uint32_t>(i));
  }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] fd::FailureDetector& detector(std::size_t i) {
    return *detectors_.at(i);
  }
  /// The SWIM backend's counters/incarnations; null on the other kinds.
  [[nodiscard]] fd::SwimDetector* swim_detector(std::size_t i) {
    return dynamic_cast<fd::SwimDetector*>(detectors_.at(i).get());
  }
  [[nodiscard]] net::Transport& network() { return *network_; }
  /// The UDP backend's lane telemetry and sockets; null on the sim backend.
  [[nodiscard]] net::UdpTransport* udp() {
    return dynamic_cast<net::UdpTransport*>(network_.get());
  }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Crash-stops process i.
  void crash(std::size_t i) { network_->crash(pid(i)); }

  /// Drains node i's delivery queue (t1 in a loop), returning everything.
  std::vector<Delivery> drain(std::size_t i);

 private:
  sim::Simulator& sim_;
  std::unique_ptr<net::Transport> network_;
  std::vector<std::unique_ptr<fd::FailureDetector>> detectors_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<MembershipPolicy>> policies_;
};

}  // namespace svs::core
