// Wall-clock driver for the distributed UDP deployment (tools/svs_proc).
//
// The whole SVS stack runs on the virtual clock (sim::Simulator): timers,
// heartbeats, membership grace periods, consensus retries.  A deployed
// process must instead advance through *wall* time while real datagrams
// arrive at unpredictable instants.  RealTimeDriver reconciles the two with
// a lockstep loop:
//
//   1. advance the virtual clock to (start_virtual + wall elapsed), firing
//      every timer that came due;
//   2. pump the UDP transport — drain arrived datagrams (which enqueue
//      protocol work at the *current* virtual time) and sweep due
//      retransmissions;
//   3. sleep in the pump's poll until the next datagram or a short tick,
//      whichever comes first.
//
// Virtual time therefore tracks wall time from below (never ahead), so a
// timer never fires early relative to the kernel's datagram delivery.  Any
// inner-network delay plays back as real wall time; in distributed mode the
// only one is the hold on overwrites (net::Network::Hold::marked); every
// other message is handed to the reliable lane at the virtual instant it
// was sent.
#pragma once

#include <cstdint>
#include <functional>

#include "net/udp_transport.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace svs::runtime {

class RealTimeDriver {
 public:
  struct Config {
    /// Upper bound on one poll sleep: the virtual clock is re-synced at
    /// least this often even with no traffic.
    std::int64_t tick_us = 2'000;
  };

  RealTimeDriver(sim::Simulator& simulator, net::UdpTransport& transport)
      : RealTimeDriver(simulator, transport, Config()) {}
  RealTimeDriver(sim::Simulator& simulator, net::UdpTransport& transport,
                 Config config)
      : sim_(simulator), transport_(transport), config_(config) {}

  /// Runs the lockstep loop for `duration` of wall time, or until `stop`
  /// (polled once per iteration) returns true.  Returns the number of
  /// datagrams pumped.
  std::size_t run(sim::Duration duration,
                  const std::function<bool()>& stop = {});

 private:
  sim::Simulator& sim_;
  net::UdpTransport& transport_;
  Config config_;
};

}  // namespace svs::runtime
