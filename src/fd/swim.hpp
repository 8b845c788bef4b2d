// SWIM-style failure detector (DESIGN.md §11).
//
// Instead of every member heartbeating every other member — O(n²) control
// messages per interval — each member probes ONE random peer per protocol
// period: a direct ping, then (on timeout) k indirect ping-req probes
// through random relays, then suspicion.  Suspicion carries the suspect's
// incarnation number; the suspect refutes by disseminating a higher-
// incarnation alive update, which beats the pending confirm.  Membership
// updates spread epidemically as bounded piggyback sections on the probe
// traffic itself, so the detector's per-member byte rate is constant in
// the group size.
//
// Every random choice (probe order shuffles, indirect-relay picks) comes
// from one sim::Rng stream seeded at construction, and every timer is a
// simulator event — two runs with the same seed are bit-identical, and a
// shrunk explorer scenario replays exactly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "fd/failure_detector.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace svs::fd {

/// One piggybacked membership update: (member, status, incarnation).
/// Status order matters for the override rules (confirm yields only to a
/// strictly higher-incarnation alive — the member's own refutation).
struct SwimUpdate {
  enum class Status : std::uint8_t { alive = 0, suspect = 1, confirm = 2 };

  net::ProcessId member;
  Status status = Status::alive;
  std::uint64_t incarnation = 0;

  friend bool operator==(const SwimUpdate&, const SwimUpdate&) = default;
};

using SwimUpdates = std::vector<SwimUpdate>;

/// Direct probe: "are you alive?"  The nonce matches the eventual ack to
/// the probe that asked.
class SwimPingMessage final : public net::Message {
 public:
  SwimPingMessage(std::uint64_t nonce, SwimUpdates updates)
      : net::Message(net::MessageType::swim_ping),
        nonce_(nonce),
        updates_(std::move(updates)) {}

  [[nodiscard]] std::uint64_t nonce() const { return nonce_; }
  [[nodiscard]] const SwimUpdates& updates() const { return updates_; }

 private:
  std::uint64_t nonce_;
  SwimUpdates updates_;
};

/// Indirect probe request: "ping `target` for me".  The relay pings the
/// target with its own nonce and forwards the ack back under this one.
class SwimPingReqMessage final : public net::Message {
 public:
  SwimPingReqMessage(std::uint64_t nonce, net::ProcessId target,
                     SwimUpdates updates)
      : net::Message(net::MessageType::swim_ping_req),
        nonce_(nonce),
        target_(target),
        updates_(std::move(updates)) {}

  [[nodiscard]] std::uint64_t nonce() const { return nonce_; }
  [[nodiscard]] net::ProcessId target() const { return target_; }
  [[nodiscard]] const SwimUpdates& updates() const { return updates_; }

 private:
  std::uint64_t nonce_;
  net::ProcessId target_;
  SwimUpdates updates_;
};

/// Probe answer.  `subject` is the member certified alive (the responder
/// for a direct ack, the probed target for a relayed one) at `incarnation`
/// — so an ack doubles as a refutation carrier.
class SwimAckMessage final : public net::Message {
 public:
  SwimAckMessage(std::uint64_t nonce, net::ProcessId subject,
                 std::uint64_t incarnation, SwimUpdates updates)
      : net::Message(net::MessageType::swim_ack),
        nonce_(nonce),
        subject_(subject),
        incarnation_(incarnation),
        updates_(std::move(updates)) {}

  [[nodiscard]] std::uint64_t nonce() const { return nonce_; }
  [[nodiscard]] net::ProcessId subject() const { return subject_; }
  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }
  [[nodiscard]] const SwimUpdates& updates() const { return updates_; }

 private:
  std::uint64_t nonce_;
  net::ProcessId subject_;
  std::uint64_t incarnation_;
  SwimUpdates updates_;
};

class SwimDetector final : public FailureDetector {
 public:
  struct Config {
    /// One probe target per protocol period.
    sim::Duration period = sim::Duration::millis(100);
    /// How long the direct ping may go unanswered before the k indirect
    /// ping-req probes go out.  Must leave room for the indirect round
    /// trip before the period ends.
    sim::Duration direct_timeout = sim::Duration::millis(30);
    /// Suspicion lasts this many protocol periods before it hardens into
    /// a confirm (unless a refutation lands first).
    std::uint32_t suspicion_periods = 3;
    /// Seed of this detector's private sim::Rng stream.
    std::uint64_t seed = 1;
  };

  /// Per-detector event counters, exposed for the state-machine unit
  /// tests and the cross-backend equivalence assertions.
  struct Counters {
    std::uint64_t probes_sent = 0;           // direct pings originated
    std::uint64_t acks_received = 0;         // acks arriving here
    std::uint64_t indirect_probes_sent = 0;  // ping-reqs originated
    std::uint64_t ping_reqs_relayed = 0;     // ping-reqs served as relay
    std::uint64_t suspicions = 0;            // transitions into suspect
    std::uint64_t refutations = 0;           // suspicions revoked by alive
    std::uint64_t confirms = 0;              // transitions into confirm
    std::uint64_t updates_piggybacked = 0;   // update entries shipped
  };

  /// Monitors `peers` (which must not contain `owner`) on behalf of
  /// `owner`.  All timers and random draws are deterministic functions of
  /// (config.seed, the simulator schedule).
  SwimDetector(sim::Simulator& simulator, net::Transport& network,
               net::ProcessId owner, std::vector<net::ProcessId> peers,
               Config config);

  /// Begins the protocol-period probe loop.
  void start();

  /// The owner's endpoint routes arriving swim_* messages here.
  void on_message(net::ProcessId from, const net::MessagePtr& message);

  /// Suspected = suspect or confirmed faulty.
  [[nodiscard]] bool suspects(net::ProcessId p) const override;

  /// Hardened suspicion (refutable only by the member's own
  /// higher-incarnation alive; exposed for tests).
  [[nodiscard]] bool confirmed(net::ProcessId p) const;

  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// This member's own incarnation number (bumps on self-refutation).
  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }

  /// Last known incarnation of a peer (exposed for tests).
  [[nodiscard]] std::uint64_t incarnation_of(net::ProcessId p) const;

 private:
  enum class State : std::uint8_t { alive, suspect, confirmed };

  struct Member {
    State state = State::alive;
    std::uint64_t incarnation = 0;
    sim::EventId suspicion_timer;
  };

  /// A pending dissemination entry: the current update for one member and
  /// how many more outgoing messages it may ride.
  struct Dissemination {
    SwimUpdate update;
    std::uint32_t remaining = 0;
  };

  /// A ping sent on behalf of someone else's ping-req: when the target's
  /// ack lands here, forward it to the origin under the origin's nonce.
  struct Relay {
    net::ProcessId origin;
    std::uint64_t origin_nonce = 0;
  };

  void on_period();
  void begin_probe();
  void resolve_probe();
  void on_direct_timeout(std::uint64_t nonce);
  void on_suspicion_timeout(net::ProcessId p, std::uint64_t incarnation);

  void handle_ping(net::ProcessId from, const SwimPingMessage& m);
  void handle_ping_req(net::ProcessId from, const SwimPingReqMessage& m);
  void handle_ack(net::ProcessId from, const SwimAckMessage& m);

  void begin_suspicion(net::ProcessId p);
  void apply_update(const SwimUpdate& update);
  void merge_updates(const SwimUpdates& updates);
  void enqueue_update(const SwimUpdate& update);
  [[nodiscard]] SwimUpdates take_piggyback();

  [[nodiscard]] std::optional<net::ProcessId> next_target();

  sim::Simulator& sim_;
  net::Transport& net_;
  net::ProcessId owner_;
  std::vector<net::ProcessId> peers_;
  Config config_;
  sim::Rng rng_;
  bool started_ = false;

  std::map<net::ProcessId, Member> members_;
  std::uint64_t incarnation_ = 0;

  // Shuffled round-robin probe order: every peer is probed once per n
  // periods, reshuffled each cycle.
  std::vector<net::ProcessId> probe_order_;
  std::size_t probe_cursor_ = 0;

  // The in-flight probe of the current protocol period.
  bool probe_active_ = false;
  bool probe_acked_ = false;
  net::ProcessId probe_target_;
  std::uint64_t probe_nonce_ = 0;

  std::uint64_t next_nonce_ = 1;
  std::map<std::uint64_t, Relay> relays_;
  std::uint64_t relay_gc_floor_ = 1;

  std::map<net::ProcessId, Dissemination> dissemination_;
  std::uint32_t update_budget_ = 1;

  Counters counters_;
};

}  // namespace svs::fd
