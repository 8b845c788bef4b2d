// Transport-level message abstraction.
//
// The simulation passes messages by shared pointer (zero-copy, like a real
// stack passing refcounted buffers), but every message reports its exact
// wire size so experiments can account for encoded bytes where it matters
// (§4.2's compactness comparison).  The size is the codec's own count: the
// simulator never encodes, so wire_size() runs net::Codec into a counting
// writer that stores nothing (DESIGN.md §6).
//
// Every message carries a MessageType tag so receivers dispatch with a
// switch instead of a chain of dynamic_pointer_cast probes — one byte on
// the wire (real stacks encode exactly such a tag) buys an RTTI-free hot
// path.  Data messages additionally expose an order key (the sender's
// sequence number): outgoing data-lane queues are ordered by it, which is
// what lets the network run windowed sender-side purges without knowing the
// protocol's message classes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/bytes.hpp"

namespace svs::net {

/// A refcounted, immutable wire frame — the encoded bytes of one message,
/// shared across every destination, retry and duplicate that ships it
/// (DESIGN.md §8: the frame is encoded at most once per message).
using FramePtr = std::shared_ptr<const util::Bytes>;

/// Wire-level dispatch tag.  `other` covers traffic the core protocol does
/// not recognise (routed to the control sink, e.g. test messages).
enum class MessageType : std::uint8_t {
  other = 0,
  data,              // core::DataMessage
  init,              // core::InitMessage
  pred,              // core::PredMessage
  stability,         // core::StabilityMessage without relayed rows
  consensus,         // consensus::ConsensusMessage
  heartbeat,         // fd::HeartbeatMessage
  swim_ping,         // fd::SwimPingMessage
  swim_ping_req,     // fd::SwimPingReqMessage
  swim_ack,          // fd::SwimAckMessage
  stability_digest,  // core::StabilityMessage with relayed rows
};

/// Base class for everything that travels through the network.
class Message {
 public:
  Message() = default;
  explicit Message(MessageType type, std::uint64_t order_key = 0)
      : type_(type), order_key_(order_key) {}
  Message(const Message&) = delete;
  Message& operator=(const Message&) = delete;
  virtual ~Message() = default;

  /// Exact size in bytes when encoded for the wire — the number of bytes
  /// net::Codec writes (DESIGN.md §6).  Computed once per message and
  /// cached: messages are immutable, and byte accounting touches every
  /// delivery, so the fan-out shares one computation instead of paying an
  /// encode per destination.
  [[nodiscard]] std::size_t wire_size() const {
    if (wire_size_cache_ == 0) wire_size_cache_ = compute_wire_size();
    return wire_size_cache_;
  }

  /// Dispatch tag; receivers switch on it instead of RTTI-probing.
  [[nodiscard]] MessageType type() const { return type_; }

  /// Position of this message in its sender's data-lane FIFO order (the
  /// sender's sequence number for data messages, 0 otherwise).  Data-lane
  /// queues are non-decreasing in this key, enabling windowed purges.
  [[nodiscard]] std::uint64_t order_key() const { return order_key_; }

  /// True once Codec::shared_frame has encoded (and cached) this message's
  /// wire frame — telemetry hook for the encode-once counters.
  [[nodiscard]] bool frame_cached() const { return frame_cache_ != nullptr; }

  /// True when the sender marked this message as an overwrite worth
  /// holding (set_held).  Never encoded: it only steers the sender's own
  /// network.
  [[nodiscard]] bool held() const { return held_; }

  /// Marks this message as an overwrite: one whose annotation names an
  /// earlier message, so the sender's next write may purge it in turn.  A
  /// network that holds only marked messages (Network::Hold::marked, the
  /// distributed UDP mode) keeps it in the purgeable outgoing buffer for
  /// its propagation delay; every other network ignores the mark.  Must
  /// happen before the first send, like DataMessage::set_piggyback.
  void set_held() { held_ = true; }

 protected:
  /// The exact encoded size: net::Codec::encode run into a counting
  /// writer (defined in net/codec.cpp).  Only MessageType::other test
  /// messages, which have no encoding, override it.  Called at most once
  /// per object (via the wire_size() cache).
  [[nodiscard]] virtual std::size_t compute_wire_size() const;

 private:
  friend class Codec;  // fills frame_cache_ on the first shared_frame()

  MessageType type_ = MessageType::other;
  bool held_ = false;
  std::uint64_t order_key_ = 0;
  // 0 = not yet computed (no real message encodes to zero bytes: the type
  // tag alone is one byte).  Messages are confined to one protocol thread
  // (a receiver always gets a decoded copy or a same-thread pointer), so a
  // plain mutable cell is safe.
  mutable std::size_t wire_size_cache_ = 0;
  // The encode-once frame (null until first needed).  Same confinement
  // argument as above: only the owning protocol thread fills or reads the
  // cell; the transport ships the immutable Bytes through its own FramePtr
  // copy, never this field.
  mutable FramePtr frame_cache_;
};

using MessagePtr = std::shared_ptr<const Message>;

/// Messages travel on one of two FIFO lanes per link.
///
/// The data lane is subject to flow control (a full receiver refuses it and
/// it backs up into the sender's outgoing buffer).  The control lane carries
/// INIT/PRED/consensus/heartbeat traffic and is never refused: §5.3 requires
/// the protocol to "always reserve separate buffer space for control
/// information", and Figure 1's guards assume a blocked process still
/// receives view-change messages.  See DESIGN.md §3(1).
enum class Lane : std::uint8_t { data, control };

}  // namespace svs::net
