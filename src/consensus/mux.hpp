// Multiplexes the consensus instances of one process: buffers early
// traffic, forwards failure-detector transitions, and closes decided
// instances.
//
// A process opens an instance when it is ready to propose (Figure 1's t7);
// other group members may already have proposed and their messages may
// arrive first.  The Mux parks such messages until the local instance is
// opened, then replays them in arrival order.
//
// Lifetime (DESIGN.md §1): the owner closes every instance below an id
// once all of them have decided — the view-change protocol closes below
// the view it installs — so a process holds the instances still in use,
// not one per decision it ever took part in.  Closing loses nothing: a
// decided instance has already relayed its decision and ignores all later
// traffic.  Traffic for a closed id is dropped, never buffered.  A closed
// instance is destroyed only once no Mux call is on the stack, because
// close_below() typically runs inside the deciding instance's callback,
// and that callback may open (and, from buffered traffic, decide) the
// next instance before it returns.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "consensus/instance.hpp"

namespace svs::consensus {

class Mux {
 public:
  Mux(net::Transport& network, fd::FailureDetector& detector,
      net::ProcessId self)
      : net_(network), fd_(detector), self_(self) {}

  Mux(const Mux&) = delete;
  Mux& operator=(const Mux&) = delete;

  /// Creates the instance and replays any buffered messages for it.  The
  /// replay stops if a buffered decision gets the instance closed.
  void open(InstanceId id, std::vector<net::ProcessId> participants,
            Instance::DecideCallback on_decide);

  /// Submits this process's proposal to the open instance `id`.
  void propose(InstanceId id, ValuePtr value);

  /// Routes a network message if it is consensus traffic.
  /// Returns true when consumed.
  bool on_message(net::ProcessId from, const net::MessagePtr& message);

  /// Closes every instance with an id below `id`, each of which must have
  /// decided, and discards their buffered and future traffic.
  void close_below(InstanceId id);

  /// The open instance `id`, or nullptr when it is not open (never opened
  /// or already closed).
  [[nodiscard]] Instance* find(InstanceId id);

  /// Instances opened and not yet closed.
  [[nodiscard]] std::size_t open_instances() const {
    return instances_.size();
  }

 private:
  class CallScope;
  struct Buffered {
    net::ProcessId from;
    std::shared_ptr<const ConsensusMessage> message;
  };

  void on_suspicion_change();

  net::Transport& net_;
  fd::FailureDetector& fd_;
  net::ProcessId self_;
  bool subscribed_ = false;
  std::map<InstanceId, std::unique_ptr<Instance>> instances_;
  std::map<InstanceId, std::deque<Buffered>> buffered_;
  InstanceId closed_below_{0};  // every id below it is closed
  int depth_ = 0;               // Mux calls on the stack
  std::vector<std::unique_ptr<Instance>> closed_;  // destroyed at depth 0
};

}  // namespace svs::consensus
