// One instance of Chandra-Toueg ◊S consensus (rotating coordinator).
//
// Implements the classic algorithm (Chandra & Toueg, JACM 1996) the paper's
// §3.1 assumes as a building block:
//
//   round r, coordinator c = participants[r mod n]:
//     phase 1  every participant sends (ESTIMATE, r, estimate, ts) to c
//     phase 2  c adopts the estimate with the largest ts among a majority
//              and broadcasts (PROPOSE, r, v)
//     phase 3  a participant either receives PROPOSE — adopts v, ts := r,
//              sends ACK — or comes to suspect c — sends NACK; either way
//              it then enters round r+1
//     phase 4  c, upon a majority of ACKs for round r (whenever they
//              arrive), reliably broadcasts (DECIDE, r, v)
//
//   reliable broadcast: on first DECIDE, relay DECIDE to all, then decide.
//
// A DECIDE(r) travelling from or to c omits v (DESIGN.md §6): c sent
// PROPOSE(r, v) to every participant before it could decide, on the same
// FIFO control link, and c holds its own proposal, so the addressee
// decides its stored PROPOSE(r).  Relays between the other participants
// carry v: they are what delivers the decision past a c that crashed in
// the middle of its broadcast.
//
// Safety (agreement, validity, integrity) holds with any failure detector;
// termination needs ◊S behaviour and a majority of correct participants —
// exactly the system model of §3.1 ("crash-stop failures of at most a
// minority of processes").
//
// The implementation is event-driven: every input (message, suspicion
// change, propose call) mutates the tally state and then `advance()`
// re-evaluates the guards of the current round.  Instances are created,
// fed and closed by a consensus::Mux (mux.hpp), which also forwards the
// failure detector's transitions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "consensus/message.hpp"
#include "consensus/value.hpp"
#include "fd/failure_detector.hpp"
#include "net/transport.hpp"

namespace svs::consensus {

/// Statistics exposed for tests and benchmarks.
struct InstanceStats {
  Round rounds_entered = 0;
  std::uint64_t messages_sent = 0;
};

class Instance {
 public:
  using DecideCallback = std::function<void(const ValuePtr&)>;

  Instance(net::Transport& network, const fd::FailureDetector& detector,
           net::ProcessId self, std::vector<net::ProcessId> participants,
           InstanceId id, DecideCallback on_decide);

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Submits this process's proposal.  May be called at most once; messages
  /// arriving before propose() are buffered by the Mux, so proposals may be
  /// late relative to other participants.
  void propose(ValuePtr value);

  /// Routes a consensus message for this instance.
  void on_message(net::ProcessId from, const ConsensusMessage& message);

  /// Re-evaluates the current round's guards after the suspect set
  /// changed (phase 3 may now NACK).
  void on_suspicion_change() { advance(); }

  [[nodiscard]] bool decided() const { return decision_ != nullptr; }
  [[nodiscard]] const ValuePtr& decision() const { return decision_; }
  [[nodiscard]] InstanceId id() const { return id_; }
  [[nodiscard]] const InstanceStats& stats() const { return stats_; }

 private:
  struct Estimate {
    ValuePtr value;
    Round timestamp = 0;
  };

  [[nodiscard]] net::ProcessId coordinator(Round r) const;
  [[nodiscard]] std::size_t majority() const {
    return participants_.size() / 2 + 1;
  }
  void send(net::ProcessId to, Phase phase, Round round, const ValuePtr& value,
            Round ts);
  void broadcast(Phase phase, Round round, const ValuePtr& value, Round ts);
  void enter_round(Round r);
  void advance();
  void decide(Round round, const ValuePtr& value);

  net::Transport& net_;
  const fd::FailureDetector& fd_;
  net::ProcessId self_;
  std::vector<net::ProcessId> participants_;
  InstanceId id_;
  DecideCallback on_decide_;

  bool proposed_ = false;
  Estimate estimate_;           // current estimate of this process
  Round round_ = 0;             // current round
  bool sent_estimate_ = false;  // for the current round
  bool answered_ = false;       // ACK or NACK sent in the current round
  ValuePtr decision_;

  // Tallies, keyed by round (messages may arrive for rounds this process
  // has not reached yet, or for rounds a slow coordinator left behind).
  std::map<Round, std::map<net::ProcessId, Estimate>> estimates_;
  std::map<Round, ValuePtr> proposals_;
  std::map<Round, std::set<net::ProcessId>> acks_;
  std::map<Round, bool> proposed_in_round_;  // coordinator duty done

  InstanceStats stats_;
};

}  // namespace svs::consensus
