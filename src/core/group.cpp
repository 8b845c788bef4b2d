#include "core/group.hpp"

#include <utility>

namespace svs::core {

Group::Group(sim::Simulator& simulator, Config config) : sim_(simulator) {
  SVS_REQUIRE(config.size >= 1, "a group needs at least one member");
  if (config.backend == Backend::udp) {
    net::UdpTransport::Config udp;
    udp.network = config.network;
    udp.loss_rate = config.udp_loss_rate;
    udp.rcvbuf_bytes = config.udp_rcvbuf_bytes;
    network_ = std::make_unique<net::UdpTransport>(simulator, udp);
  } else {
    network_ = std::make_unique<net::Network>(simulator, config.network);
  }

  std::vector<net::ProcessId> members;
  members.reserve(config.size);
  for (std::size_t i = 0; i < config.size; ++i) members.push_back(pid(i));
  const View initial(ViewId(0), members);

  // Detectors first (they must exist before nodes subscribe to them), but
  // heartbeat emission starts only after every endpoint is attached.
  std::vector<fd::HeartbeatDetector*> heartbeats;
  std::vector<fd::SwimDetector*> swims;
  for (std::size_t i = 0; i < config.size; ++i) {
    std::vector<net::ProcessId> peers;
    for (const auto p : members) {
      if (p != pid(i)) peers.push_back(p);
    }
    if (config.fd_kind == FdKind::oracle) {
      detectors_.push_back(std::make_unique<fd::OracleDetector>(
          simulator, *network_, pid(i), config.oracle_delay));
    } else if (config.fd_kind == FdKind::heartbeat) {
      auto hb = std::make_unique<fd::HeartbeatDetector>(
          simulator, *network_, pid(i), std::move(peers), config.heartbeat);
      heartbeats.push_back(hb.get());
      detectors_.push_back(std::move(hb));
    } else {
      auto swim = std::make_unique<fd::SwimDetector>(
          simulator, *network_, pid(i), std::move(peers), config.swim);
      swims.push_back(swim.get());
      detectors_.push_back(std::move(swim));
    }
  }

  for (std::size_t i = 0; i < config.size; ++i) {
    nodes_.push_back(std::make_unique<Node>(simulator, *network_,
                                            *detectors_[i], pid(i), initial,
                                            config.node, config.observer));
  }

  // Route detector traffic to the detectors and start them.
  if (config.fd_kind == FdKind::heartbeat) {
    for (std::size_t i = 0; i < config.size; ++i) {
      auto* hb = heartbeats[i];
      nodes_[i]->set_control_sink(
          [hb](net::ProcessId from, const net::MessagePtr& message) {
            if (message->type() == net::MessageType::heartbeat) {
              hb->on_heartbeat(from);
            }
          });
      hb->start();
    }
  } else if (config.fd_kind == FdKind::swim) {
    for (std::size_t i = 0; i < config.size; ++i) {
      auto* swim = swims[i];
      nodes_[i]->set_control_sink(
          [swim](net::ProcessId from, const net::MessagePtr& message) {
            switch (message->type()) {
              case net::MessageType::swim_ping:
              case net::MessageType::swim_ping_req:
              case net::MessageType::swim_ack:
                swim->on_message(from, message);
                break;
              default:
                break;  // e.g. stale heartbeats after a backend swap
            }
          });
      swim->start();
    }
  }

  if (config.auto_membership) {
    for (std::size_t i = 0; i < config.size; ++i) {
      policies_.push_back(std::make_unique<MembershipPolicy>(
          simulator, *nodes_[i], *detectors_[i], config.membership));
    }
  }
}

std::vector<Delivery> Group::drain(std::size_t i) {
  std::vector<Delivery> out;
  while (auto d = nodes_.at(i)->try_deliver()) {
    out.push_back(std::move(*d));
  }
  return out;
}

}  // namespace svs::core
