// The Semantic View Synchrony protocol of Figure 1.
//
// One Node is one group member.  It implements the seven transitions:
//
//   t1  try_deliver()            — application consumes the queue head
//   t2  multicast()              — send tagged data + self-insert + purge
//   t3  handle_data()            — accept data of the current view, purge
//                                  the queue
//   t4  request_view_change()    — disseminate INIT
//   t5  handle_init()            — forward INIT, block, emit PRED
//   t6  handle_pred()            — accumulate global-pred / pred-received
//   t7  try_propose()+install()  — propose to consensus, flush the decided
//                                  pred-view, deliver VIEW, unblock
//
// The shaded (SVS-specific) parts of Figure 1 — every purge call — are
// controlled by NodeConfig: with purging disabled or the EmptyRelation, the
// node is a conventional View Synchrony implementation, which is the
// paper's "reliable" baseline.  t3's obsolescence test never fires here:
// obsolescence is per-sender and channels are FIFO, so nothing accepted
// can cover an arrival, and handle_data does not run it.
//
// Bounded buffers and flow control follow the simulation model of §5.3:
// the delivery queue bounds its data occupancy (control entries and
// view-change flushes use reserved space); a full node refuses data from
// the network; multicast blocks when any outgoing buffer is full.
//
// The Node itself is a thin transition coordinator (DESIGN.md §1): the
// purgeable buffers live in DeliveryQueue (with the per-sender purge
// index), the gossip GC state — reception records, covered frontiers and
// the purge-debt ledger — in StabilityLedger, and the t4–t7 bookkeeping
// in ViewChangeEngine.  The Node wires them to the network, the failure
// detector and the consensus multiplexer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "consensus/mux.hpp"
#include "core/delivery_queue.hpp"
#include "core/message.hpp"
#include "core/observer.hpp"
#include "core/stability_ledger.hpp"
#include "core/types.hpp"
#include "core/view_change_engine.hpp"
#include "fd/failure_detector.hpp"
#include "net/transport.hpp"
#include "obs/relation.hpp"
#include "sim/simulator.hpp"

namespace svs::core {

struct NodeConfig {
  /// Max data messages in the delivery queue; 0 = unbounded (pure Figure 1).
  std::size_t delivery_capacity = 0;
  /// Max data messages queued towards any single destination; 0 = unbounded.
  std::size_t out_capacity = 0;
  /// Apply purging to the delivery queue (t2/t3/t7 purge calls).
  bool purge_delivery_queue = true;
  /// Apply purging to outgoing buffers (sender-side semantic purging, [22]).
  bool purge_outgoing = true;
  /// The obsolescence relation oracle.  Required.  EmptyRelation yields VS.
  obs::RelationPtr relation;
  /// Period of the stability gossip that garbage-collects the delivered
  /// history once every member received a message (zero disables it; the
  /// history then grows until the next view change).
  ///
  /// The gossip is quiescent (DESIGN.md §10): a round is suppressed
  /// entirely when the ledger has no delta to report; while convergence is
  /// still outstanding every 4th clean round escalates to a full-vector
  /// heartbeat, and after 8 consecutive no-progress heartbeats the timer
  /// parks until new traffic, a merge, or an install re-arms it.  Stability
  /// sections also piggyback on outgoing DATA (at most one per
  /// stability_interval), so a group under traffic needs almost no
  /// standalone gossip and an idle group goes silent.  Views of 16 or more
  /// members send each round to two ring successors, which relay what it
  /// taught them, instead of to every member (DESIGN.md §11).
  sim::Duration stability_interval = sim::Duration::millis(50);
};

struct NodeStats {
  std::uint64_t multicasts = 0;
  std::uint64_t multicast_blocked = 0;   // t2 attempts refused by flow control
  std::uint64_t delivered_data = 0;
  std::uint64_t purged_delivery = 0;     // victims removed from the queue
  // Arrivals already covered by an accepted message.  Always 0: obsolescence
  // is per-sender and channels are FIFO, so an arrival is its sender's
  // newest here and nothing accepted can cover it.  Kept because the
  // service benchmark reports it.
  std::uint64_t suppressed_obsolete = 0;
  std::uint64_t stale_view_drops = 0;    // data of superseded views discarded
  std::uint64_t duplicate_drops = 0;     // network-duplicated arrivals dropped
  std::uint64_t refused_data = 0;        // arrivals stalled (buffer full)
  std::uint64_t flushed_in = 0;          // pred-view messages added at install
  std::uint64_t stability_gcs = 0;       // delivered messages collected
  std::uint64_t debts_recorded = 0;      // own purge debts entered the ledger
  std::uint64_t debts_collected = 0;     // own purge debts retired (stable)
  std::uint64_t debt_entries_gossiped = 0;  // debt entries shipped (pre-fanout)
  std::uint64_t debt_bytes_gossiped = 0;    // their encoded bytes (pre-fanout)
  std::uint64_t gossip_rounds_suppressed = 0;  // clean rounds not sent
  std::uint64_t gossip_heartbeats = 0;      // forced full rounds at silence
  std::uint64_t frontier_piggybacks = 0;    // stability sections on DATA
  std::uint64_t digest_rounds = 0;     // relaying rounds sent (pre-fanout)
  std::uint64_t digest_rows_sent = 0;  // their rows, the sender's own included
  std::uint64_t views_installed = 0;
  std::uint64_t view_changes_initiated = 0;
  sim::Duration last_change_latency = sim::Duration::zero();
  std::size_t last_flush_total = 0;      // |pred-view| of the last change
};

class Node final : public net::Endpoint {
 public:
  /// The node is backend-agnostic: it talks to any net::Transport (the sim
  /// fabric or the UDP datagram backend, all-local or distributed).
  Node(sim::Simulator& simulator, net::Transport& network,
       fd::FailureDetector& detector, net::ProcessId self, View initial,
       NodeConfig config, NodeObserver* observer = nullptr);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // -- application interface -------------------------------------------

  /// t2.  Returns the assigned sequence number, or nullopt when blocked
  /// (view change in progress, flow control, or not a member).  Producers
  /// should retry when the unblocked callback fires.
  std::optional<std::uint64_t> multicast(PayloadPtr payload,
                                         obs::Annotation annotation);

  /// Cheap pre-check mirroring multicast()'s guards (it does not account
  /// for the space the message's own purging would free, so multicast() can
  /// succeed where this returns false — never the other way round).
  [[nodiscard]] bool can_multicast() const;

  /// t1.  Down-call delivery (§3.2): pops the queue head if any.
  std::optional<Delivery> try_deliver();

  [[nodiscard]] bool has_deliverable() const { return !queue_.empty(); }

  /// t4.  Starts a view change removing `leave` (may be empty: a pure
  /// reconfiguration).  Returns false if a change is already in progress.
  bool request_view_change(const std::vector<net::ProcessId>& leave);

  /// Fired whenever a previously failing multicast may now succeed.
  void set_unblocked_callback(std::function<void()> callback);

  /// Fired (once per quiescence, deferred to its own event) when the
  /// delivery queue gains entries — how consumers learn to resume t1 calls.
  void set_deliverable_callback(std::function<void()> callback);

  /// Fired right after this node installs a view (protocol-level, before
  /// the application consumes the notification).  Used by membership
  /// policies.
  void subscribe_install(std::function<void(const View&)> callback);

  /// Handler for control-lane messages the protocol does not recognise
  /// (e.g. failure-detector heartbeats routed to a HeartbeatDetector).
  void set_control_sink(
      std::function<void(net::ProcessId, const net::MessagePtr&)> sink);

  // -- introspection ----------------------------------------------------

  [[nodiscard]] net::ProcessId id() const { return self_; }
  [[nodiscard]] const View& current_view() const { return view_; }
  [[nodiscard]] bool blocked() const { return change_.blocked(); }
  [[nodiscard]] bool excluded() const { return excluded_; }
  [[nodiscard]] std::size_t delivery_queue_length() const {
    return queue_.length();
  }
  [[nodiscard]] std::size_t delivery_data_count() const {
    return queue_.data_count();
  }
  /// Delivered messages of the current view still buffered for a possible
  /// view-change flush (shrinks as stability gossip collects them).
  [[nodiscard]] std::size_t delivered_retained() const {
    return queue_.delivered_retained();
  }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  /// Counters.  purged_delivery reads through to the DeliveryQueue, which
  /// is the single bookkeeper of purge victims.
  [[nodiscard]] const NodeStats& stats() const {
    stats_.purged_delivery = queue_.stats().purged;
    return stats_;
  }
  [[nodiscard]] const NodeConfig& config() const { return config_; }
  /// The purgeable buffers (purge-scan telemetry for the benches).
  [[nodiscard]] const DeliveryQueue& delivery_queue() const { return queue_; }
  /// The stability/GC state (boundedness asserts and debt telemetry).
  [[nodiscard]] const StabilityLedger& stability_ledger() const {
    return stability_;
  }
  /// True when this view's stability rounds relay other origins' rows:
  /// the successors do not reach every other member (16 or more members,
  /// DESIGN.md §11).
  [[nodiscard]] bool relays() const {
    return successors_.size() + 1 < view_.size();
  }
  /// Purge debts of other origins kept for onward relay (0 unless relays());
  /// bounded by the un-stable window, like the ledger's own counts.
  [[nodiscard]] std::size_t relayed_debts() const;
  /// The view-change consensus instances (lifetime asserts).
  [[nodiscard]] const consensus::Mux& consensus_mux() const {
    return consensus_mux_;
  }

  // -- network ----------------------------------------------------------

  bool on_message(net::ProcessId from, const net::MessagePtr& message,
                  net::Lane lane) override;

 private:
  // Figure 1 transitions (t1/t2/t4 are the public calls above).
  bool handle_data(net::ProcessId from, const DataMessagePtr& m);
  void handle_init(net::ProcessId from,
                   const std::shared_ptr<const InitMessage>& m);
  void handle_pred(net::ProcessId from,
                   const std::shared_ptr<const PredMessage>& m);
  void try_propose();                       // t7 guard + consensus propose
  void install(const ProposalValue& decided);  // t7 after consensus returns

  /// The ordered [DATA, v, d] with v = cv in delivered ++ to-deliver (t5).
  [[nodiscard]] std::vector<DataMessagePtr> local_pred() const;

  // Windowed sender-side purging (the outgoing analogue of the delivery
  // queue's indexed purge): the [floor, below) order-key window `m` can
  // possibly cover, its victim test, the admission pre-count and the
  // post-commit eviction.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> outgoing_purge_window(
      const DataMessage& m) const;
  [[nodiscard]] bool covers_outgoing(const net::MessagePtr& queued,
                                     const DataMessage& m,
                                     const obs::MessageRef& mref) const;
  std::size_t count_outgoing_victims(net::ProcessId peer,
                                     const DataMessage& m);
  void purge_outgoing_covered(net::ProcessId peer, const DataMessagePtr& m,
                              std::uint64_t floor_seq,
                              std::uint64_t below_seq);

  void open_consensus();
  void note_seen(const DataMessage& m);
  void arm_stability_gossip();
  void gossip_stability();
  /// The ledger's next report (full or delta), counted into the debt
  /// telemetry — what a gossip round or a piggyback ships.
  [[nodiscard]] StabilityReport take_report(bool full);
  /// Merges one row — `origin`'s report from its own round, from its
  /// piggyback, or relayed by another member — exactly as if the origin's
  /// round had arrived directly.  The anchor is absent only on relayed rows
  /// that do not know it yet.  In a relaying view the row's debts are kept
  /// for onward relay and a row that taught something marks its origin
  /// dirty.  Returns true when anything was news.
  bool merge_row(net::ProcessId origin, std::optional<std::uint64_t> anchor,
                 const StabilityReport& report);
  void handle_stability(net::ProcessId from,
                        const std::shared_ptr<const StabilityMessage>& m);
  void collect_stable();
  /// Stability successors and relayed rows (DESIGN.md §11): the members a
  /// round goes to (recomputed at install), and the row this node relays
  /// for an origin.
  void compute_successors();
  [[nodiscard]] StabilityMessage::Row make_relay_row(
      net::ProcessId origin) const;
  void consider_refresh(bool news);
  /// Quiescent-gossip helpers (DESIGN.md §10): attach a delta stability
  /// section to an outgoing DATA (rate-limited), merge an incoming one
  /// (same semantics as a standalone round of the same view), and record
  /// that reportable state advanced (resets the silence bookkeeping).
  void maybe_attach_piggyback(DataMessage& m);
  void merge_piggyback(net::ProcessId from, const StabilityPiggyback& pb);
  void note_gossip_progress();
  void notify_unblocked();
  void notify_deliverable();
  void replay_pending_control();

  sim::Simulator& sim_;
  net::Transport& net_;
  fd::FailureDetector& fd_;
  net::ProcessId self_;
  NodeConfig config_;
  NodeObserver* observer_;  // optional, not owned

  View view_;          // cv
  bool excluded_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t view_first_seq_ = 1;  // first seq multicast in cv (anchor + 1)

  DeliveryQueue queue_;
  StabilityLedger stability_;
  ViewChangeEngine change_;
  bool stability_armed_ = false;
  std::uint64_t gossip_round_ = 0;  // rounds sent in the current view
  // Quiescence bookkeeping.  clean_rounds_ counts consecutive timer
  // firings with nothing to report; every kSilentRoundPeriod-th one
  // escalates to a heartbeat, and fruitless_heartbeats_ bounds heartbeats
  // that observe no progress in (retained, own debts, merged debts).
  // refresh_spent_ limits the anti-entropy response to a still-gossiping
  // peer to once per progress epoch, last_refresh_ rate-limits it under
  // traffic.
  std::uint64_t clean_rounds_ = 0;
  std::uint64_t fruitless_heartbeats_ = 0;
  std::size_t hb_retained_ = 0;
  std::size_t hb_own_debts_ = 0;
  std::size_t hb_merged_debts_ = 0;
  bool refresh_pending_ = false;
  bool refresh_spent_ = false;
  sim::TimePoint last_refresh_;
  bool piggyback_sent_ = false;
  sim::TimePoint last_piggyback_;
  // The members a stability round goes to, in view order below 16 members
  // and the two ring successors at or above.  Relaying state (relaying
  // views only, reset per view): origins whose relayed row changed since
  // the last round, and the per-origin debts retained for onward relay
  // (the ledger prunes merged debts once the *local* frontier passes them,
  // but a successor may still need them; these retire at install or once
  // the origin's floor passes them).
  std::vector<net::ProcessId> successors_;
  std::set<net::ProcessId> dirty_rows_;
  std::map<net::ProcessId, std::map<std::uint64_t, std::uint64_t>>
      relay_debts_;

  consensus::Mux consensus_mux_;
  std::function<void()> unblocked_callback_;
  bool unblock_notify_pending_ = false;
  std::function<void()> deliverable_callback_;
  bool deliverable_notify_pending_ = false;
  std::function<void(net::ProcessId, const net::MessagePtr&)> control_sink_;
  std::vector<std::function<void(const View&)>> install_callbacks_;
  mutable NodeStats stats_;  // purged_delivery refreshed in stats()
};

}  // namespace svs::core
