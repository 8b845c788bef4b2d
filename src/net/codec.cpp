#include "net/codec.hpp"

#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "consensus/message.hpp"
#include "core/types.hpp"
#include "fd/heartbeat.hpp"
#include "fd/swim.hpp"
#include "obs/annotation.hpp"
#include "util/contracts.hpp"
#include "util/pool.hpp"
#include "workload/item_op.hpp"

namespace svs::net {
namespace {

// ---------------------------------------------------------------------------
// the payload kind: workload::ItemOp (payload_kind 1)
// ---------------------------------------------------------------------------

void encode_item_op(const core::Payload& payload, util::ByteWriter& w) {
  const auto& op = static_cast<const workload::ItemOp&>(payload);
  // op kind in the low bits, commit flag in bit 7 — one byte, as the
  // wire_size() arithmetic promises.
  const auto packed = static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(op.op()) |
      (op.commit() ? std::uint8_t{0x80} : std::uint8_t{0}));
  w.u8(packed);
  w.u64(op.item());
  w.u64(op.round());
  w.fixed64(op.value());
}

core::PayloadPtr decode_item_op(util::ByteReader& r) {
  const std::uint8_t packed = r.u8();
  const auto op_raw = static_cast<std::uint8_t>(packed & 0x7FU);
  SVS_REQUIRE(op_raw <= static_cast<std::uint8_t>(workload::OpKind::destroy),
              "bad ItemOp kind on the wire");
  const bool commit = (packed & 0x80U) != 0;
  const std::uint64_t item = r.u64();
  const std::uint64_t round = r.u64();
  const std::uint64_t value = r.fixed64();
  return util::pool_shared<workload::ItemOp>(
      static_cast<workload::OpKind>(op_raw), item, value, round, commit);
}

// ---------------------------------------------------------------------------
// the value kind: core::ProposalValue (value_kind 1)
// ---------------------------------------------------------------------------

void encode_proposal(const consensus::ValueBase& value, util::ByteWriter& w) {
  const auto& proposal = static_cast<const core::ProposalValue&>(value);
  w.u64(proposal.next_view().id().value());
  w.u64(proposal.next_view().size());
  for (const auto p : proposal.next_view().members()) w.u32(p.value());
  w.u64(proposal.pred_view().size());
  for (const auto& m : proposal.pred_view()) Codec::encode(*m, w);
}

consensus::ValuePtr decode_proposal(util::ByteReader& r) {
  const core::ViewId view_id(r.u64());
  const std::uint64_t member_count = r.u64();
  SVS_REQUIRE(member_count <= r.remaining(),
              "view membership longer than the buffer");
  std::vector<ProcessId> members;
  members.reserve(member_count);
  for (std::uint64_t i = 0; i < member_count; ++i) {
    members.emplace_back(r.u32());
  }
  const std::uint64_t pred_count = r.u64();
  SVS_REQUIRE(pred_count <= r.remaining(),
              "pred-view longer than the buffer");
  std::vector<core::DataMessagePtr> pred;
  pred.reserve(pred_count);
  for (std::uint64_t i = 0; i < pred_count; ++i) {
    MessagePtr m = Codec::decode(r);
    SVS_REQUIRE(m->type() == MessageType::data,
                "pred-view must contain data messages");
    pred.push_back(std::static_pointer_cast<const core::DataMessage>(m));
  }
  return util::pool_shared<core::ProposalValue>(
      core::View(view_id, std::move(members)), std::move(pred));
}

// ---------------------------------------------------------------------------
// framed blobs: [kind u32][length u64][body]
//
// One protocol shared by application payloads and consensus values, so the
// framing rules (opaque filler for kind 0, exact-length asserts on both
// sides) cannot drift between the two.  Each side knows exactly one
// interpretable kind besides 0; any other kind throws.  `length` is the
// object's wire_size(): the framing contract both codecs honour, so a
// counting writer takes it as the body's size without encoding the body.
// ---------------------------------------------------------------------------

template <typename Object>
void write_framed(util::ByteWriter& w, std::uint32_t kind, std::size_t length,
                  const Object* object, std::uint32_t known_kind,
                  void (*encode)(const Object&, util::ByteWriter&)) {
  w.u32(kind);
  w.u64(length);
  if (kind == 0 || w.counts_only()) {
    // Kind 0 is opaque filler whose *count* is the object's honest encoded
    // size, so byte accounting survives the round trip; a counting writer
    // needs only that count.
    w.zeros(length);
    return;
  }
  SVS_REQUIRE(kind == known_kind,
              "kind has no codec; only opaque (0) and built-in kinds cross "
              "a byte-moving transport");
  const std::size_t start = w.size();
  encode(*object, w);
  SVS_ASSERT(w.size() - start == length,
             "codec wrote a different number of bytes than the object's "
             "wire_size()");
}

/// MakeOpaque builds the kind-0 stand-in from the framed length.
template <typename Ptr, typename MakeOpaque>
Ptr read_framed(util::ByteReader& r, std::uint32_t known_kind,
                Ptr (*decode)(util::ByteReader&), MakeOpaque&& make_opaque) {
  const std::uint32_t kind = r.u32();
  const std::uint64_t length = r.u64();
  SVS_REQUIRE(length <= r.remaining(), "framed body truncated");
  if (kind == 0) {
    r.skip(length);
    return make_opaque(length);
  }
  SVS_REQUIRE(kind == known_kind, "unknown kind on the wire");
  const std::size_t start = r.position();
  Ptr decoded = decode(r);
  SVS_REQUIRE(r.position() - start == length,
              "framed body length disagrees with its contents");
  return decoded;
}

// ---------------------------------------------------------------------------
// the stability report: one section for gossip rounds, DATA piggybacks and
// relayed rows — seen-count u64 · (sender u32 · frontier u64) each ·
// debt-count u64 · (seq u64 · cover-gap u64) each
// ---------------------------------------------------------------------------

void encode_report(const core::StabilityReport& report, util::ByteWriter& w) {
  w.u64(report.seen.size());
  for (const auto& [sender, frontier] : report.seen) {
    w.u32(sender.value());
    w.u64(frontier);
  }
  w.u64(report.debts.size());
  for (const auto& debt : report.debts) {
    w.u64(debt.seq);
    w.u64(debt.cover_seq - debt.seq);  // covers are strictly newer
  }
}

core::StabilityReport decode_report(util::ByteReader& r) {
  core::StabilityReport report;
  const std::uint64_t count = r.u64();
  // Each entry is at least two bytes (two varints).
  SVS_REQUIRE(count <= r.remaining(), "seen vector longer than the buffer");
  report.seen.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const ProcessId sender(r.u32());
    const std::uint64_t frontier = r.u64();
    report.seen.emplace_back(sender, frontier);
  }
  const std::uint64_t debt_count = r.u64();
  SVS_REQUIRE(debt_count <= r.remaining(),
              "debt ledger longer than the buffer");
  report.debts.reserve(debt_count);
  std::uint64_t prev_seq = 0;
  for (std::uint64_t i = 0; i < debt_count; ++i) {
    const std::uint64_t seq = r.u64();
    SVS_REQUIRE(i == 0 || seq > prev_seq,
                "purge debts must be strictly ascending by seq");
    prev_seq = seq;
    const std::uint64_t cover_gap = r.u64();
    SVS_REQUIRE(cover_gap >= 1, "a purge debt's cover must be strictly newer");
    SVS_REQUIRE(seq <= std::numeric_limits<std::uint64_t>::max() - cover_gap,
                "purge debt cover overflows");
    report.debts.push_back(core::PurgeDebt{seq, seq + cover_gap});
  }
  return report;
}

/// Reads a presence byte, which must be exactly 0 or 1.
bool read_flag(util::ByteReader& r) {
  const std::uint8_t flag = r.u8();
  SVS_REQUIRE(flag <= 1, "bad presence flag on the wire");
  return flag == 1;
}

// ---------------------------------------------------------------------------
// per-type bodies
// ---------------------------------------------------------------------------

void encode_payload(const core::PayloadPtr& payload, util::ByteWriter& w) {
  const std::uint32_t kind = payload != nullptr ? payload->payload_kind() : 0;
  const std::size_t length = payload != nullptr ? payload->wire_size() : 0;
  write_framed(w, kind, length, payload.get(),
               workload::ItemOp::kPayloadKind, encode_item_op);
}

core::PayloadPtr decode_payload(util::ByteReader& r) {
  return read_framed(r, workload::ItemOp::kPayloadKind, decode_item_op,
                     [](std::uint64_t length) -> core::PayloadPtr {
                       if (length == 0) return nullptr;
                       return util::pool_shared<core::OpaquePayload>(length);
                     });
}

void encode_data(const core::DataMessage& m, util::ByteWriter& w) {
  w.u32(m.sender().value());
  w.u64(m.seq());
  w.u64(m.view().value());
  m.annotation().encode(w);
  encode_payload(m.payload(), w);
  const auto& pb = m.piggyback();
  w.u8(pb.has_value() ? 1 : 0);
  if (!pb.has_value()) return;
  w.u64(pb->anchor);
  encode_report(pb->report, w);
}

MessagePtr decode_data(util::ByteReader& r) {
  const ProcessId sender(r.u32());
  const std::uint64_t seq = r.u64();
  const core::ViewId view(r.u64());
  obs::Annotation annotation = obs::Annotation::decode(r);
  core::PayloadPtr payload = decode_payload(r);
  auto m = util::pool_shared<core::DataMessage>(sender, seq, view,
                                               std::move(annotation),
                                               std::move(payload));
  if (read_flag(r)) {
    const std::uint64_t anchor = r.u64();
    m->set_piggyback(core::StabilityPiggyback{anchor, decode_report(r)});
  }
  return m;
}

void encode_init(const core::InitMessage& m, util::ByteWriter& w) {
  w.u64(m.view().value());
  w.u64(m.leave().size());
  for (const auto p : m.leave()) w.u32(p.value());
}

MessagePtr decode_init(util::ByteReader& r) {
  const core::ViewId view(r.u64());
  const std::uint64_t count = r.u64();
  SVS_REQUIRE(count <= r.remaining(), "leave set longer than the buffer");
  std::vector<ProcessId> leave;
  leave.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) leave.emplace_back(r.u32());
  return util::pool_shared<core::InitMessage>(view, std::move(leave));
}

void encode_pred(const core::PredMessage& m, util::ByteWriter& w) {
  w.u64(m.view().value());
  w.u64(m.accepted().size());
  for (const auto& accepted : m.accepted()) Codec::encode(*accepted, w);
}

MessagePtr decode_pred(util::ByteReader& r) {
  const core::ViewId view(r.u64());
  const std::uint64_t count = r.u64();
  SVS_REQUIRE(count <= r.remaining(), "accepted set longer than the buffer");
  std::vector<core::DataMessagePtr> accepted;
  accepted.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    MessagePtr m = Codec::decode(r);
    SVS_REQUIRE(m->type() == MessageType::data,
                "PRED must contain data messages");
    accepted.push_back(std::static_pointer_cast<const core::DataMessage>(m));
  }
  return util::pool_shared<core::PredMessage>(view, std::move(accepted));
}

/// Both stability tags: view · anchor · report, then — only under
/// stability_digest — relay-count u64 · (origin u32 · has-anchor u8 ·
/// [anchor u64] · report) each.  The count is at least one, so each round
/// has exactly one encoding.
void encode_stability(const core::StabilityMessage& m, util::ByteWriter& w) {
  w.u64(m.view().value());
  w.u64(m.anchor());
  encode_report(m.report(), w);
  if (m.relayed().empty()) return;
  w.u64(m.relayed().size());
  for (const auto& row : m.relayed()) {
    w.u32(row.origin.value());
    w.u8(row.anchor.has_value() ? 1 : 0);
    if (row.anchor.has_value()) w.u64(*row.anchor);
    encode_report(row.report, w);
  }
}

MessagePtr decode_stability(util::ByteReader& r, bool relaying) {
  const core::ViewId view(r.u64());
  const std::uint64_t anchor = r.u64();
  core::StabilityReport report = decode_report(r);
  core::StabilityMessage::Rows relayed;
  if (relaying) {
    const std::uint64_t row_count = r.u64();
    SVS_REQUIRE(row_count >= 1, "a relaying round carries at least one row");
    // Each row is at least four bytes (origin, presence flag, two counts).
    SVS_REQUIRE(row_count <= r.remaining(),
                "relayed row section longer than the buffer");
    relayed.reserve(row_count);
    for (std::uint64_t i = 0; i < row_count; ++i) {
      core::StabilityMessage::Row row;
      row.origin = ProcessId(r.u32());
      if (read_flag(r)) row.anchor = r.u64();
      row.report = decode_report(r);
      relayed.push_back(std::move(row));
    }
  }
  return util::pool_shared<core::StabilityMessage>(
      view, anchor, std::move(report), std::move(relayed));
}

// -- SWIM probe traffic (DESIGN.md §11) -------------------------------------

void encode_swim_updates(const fd::SwimUpdates& updates, util::ByteWriter& w) {
  w.u64(updates.size());
  for (const auto& update : updates) {
    w.u32(update.member.value());
    w.u8(static_cast<std::uint8_t>(update.status));
    w.u64(update.incarnation);
  }
}

fd::SwimUpdates decode_swim_updates(util::ByteReader& r) {
  const std::uint64_t count = r.u64();
  // Each update is at least three bytes (two varints plus the status byte).
  SVS_REQUIRE(count <= r.remaining(),
              "membership update section longer than the buffer");
  fd::SwimUpdates updates;
  updates.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const ProcessId member(r.u32());
    const std::uint8_t status = r.u8();
    SVS_REQUIRE(
        status <= static_cast<std::uint8_t>(fd::SwimUpdate::Status::confirm),
        "bad membership status on the wire");
    const std::uint64_t incarnation = r.u64();
    updates.push_back(fd::SwimUpdate{
        member, static_cast<fd::SwimUpdate::Status>(status), incarnation});
  }
  return updates;
}

void encode_swim_ping(const fd::SwimPingMessage& m, util::ByteWriter& w) {
  w.u64(m.nonce());
  encode_swim_updates(m.updates(), w);
}

MessagePtr decode_swim_ping(util::ByteReader& r) {
  const std::uint64_t nonce = r.u64();
  return util::pool_shared<fd::SwimPingMessage>(nonce,
                                                decode_swim_updates(r));
}

void encode_swim_ping_req(const fd::SwimPingReqMessage& m,
                          util::ByteWriter& w) {
  w.u64(m.nonce());
  w.u32(m.target().value());
  encode_swim_updates(m.updates(), w);
}

MessagePtr decode_swim_ping_req(util::ByteReader& r) {
  const std::uint64_t nonce = r.u64();
  const ProcessId target(r.u32());
  return util::pool_shared<fd::SwimPingReqMessage>(nonce, target,
                                                   decode_swim_updates(r));
}

void encode_swim_ack(const fd::SwimAckMessage& m, util::ByteWriter& w) {
  w.u64(m.nonce());
  w.u32(m.subject().value());
  w.u64(m.incarnation());
  encode_swim_updates(m.updates(), w);
}

MessagePtr decode_swim_ack(util::ByteReader& r) {
  const std::uint64_t nonce = r.u64();
  const ProcessId subject(r.u32());
  const std::uint64_t incarnation = r.u64();
  return util::pool_shared<fd::SwimAckMessage>(nonce, subject, incarnation,
                                               decode_swim_updates(r));
}

void encode_consensus(const consensus::ConsensusMessage& m,
                      util::ByteWriter& w) {
  w.u64(m.instance().value());
  w.u32(m.round());
  w.u8(static_cast<std::uint8_t>(m.phase()));
  w.u32(m.timestamp());
  const auto& value = m.value();
  w.u8(value != nullptr ? 1 : 0);
  if (value == nullptr) return;
  write_framed(w, value->value_kind(), value->wire_size(), value.get(),
               core::ProposalValue::kValueKind, encode_proposal);
}

MessagePtr decode_consensus(util::ByteReader& r) {
  const consensus::InstanceId instance(r.u64());
  const consensus::Round round = r.u32();
  const std::uint8_t phase_raw = r.u8();
  SVS_REQUIRE(
      phase_raw <= static_cast<std::uint8_t>(consensus::Phase::decide),
      "bad consensus phase on the wire");
  const consensus::Round timestamp = r.u32();
  consensus::ValuePtr value;
  if (read_flag(r)) {
    value = read_framed(r, core::ProposalValue::kValueKind, decode_proposal,
                        [](std::uint64_t length) -> consensus::ValuePtr {
                          return util::pool_shared<consensus::OpaqueValue>(
                              length);
                        });
  }
  return util::pool_shared<consensus::ConsensusMessage>(
      instance, round, static_cast<consensus::Phase>(phase_raw),
      std::move(value), timestamp);
}

}  // namespace

// ---------------------------------------------------------------------------
// codec
// ---------------------------------------------------------------------------

std::size_t Message::compute_wire_size() const {
  // The size is the encoder's own count (DESIGN.md §6): the same writes,
  // into a writer that stores nothing, so sizing allocates no frame.
  util::ByteWriter w = util::ByteWriter::counting();
  Codec::encode(*this, w);
  return w.size();
}

void Codec::encode(const Message& m, util::ByteWriter& w) {
  w.u8(static_cast<std::uint8_t>(m.type()));
  switch (m.type()) {
    case MessageType::data:
      encode_data(static_cast<const core::DataMessage&>(m), w);
      break;
    case MessageType::init:
      encode_init(static_cast<const core::InitMessage&>(m), w);
      break;
    case MessageType::pred:
      encode_pred(static_cast<const core::PredMessage&>(m), w);
      break;
    case MessageType::stability:
    case MessageType::stability_digest:
      encode_stability(static_cast<const core::StabilityMessage&>(m), w);
      break;
    case MessageType::consensus:
      encode_consensus(static_cast<const consensus::ConsensusMessage&>(m), w);
      break;
    case MessageType::heartbeat:
      break;  // the tag is the whole message
    case MessageType::swim_ping:
      encode_swim_ping(static_cast<const fd::SwimPingMessage&>(m), w);
      break;
    case MessageType::swim_ping_req:
      encode_swim_ping_req(static_cast<const fd::SwimPingReqMessage&>(m), w);
      break;
    case MessageType::swim_ack:
      encode_swim_ack(static_cast<const fd::SwimAckMessage&>(m), w);
      break;
    case MessageType::other:
      SVS_REQUIRE(false,
                  "MessageType::other has no wire encoding; byte-moving "
                  "transports carry protocol messages only");
  }
}

util::Bytes Codec::encode(const Message& m) {
  util::ByteWriter w;
  encode(m, w);
  return w.take();
}

FramePtr Codec::shared_frame(const Message& m) {
  if (m.frame_cache_ == nullptr) {
    m.frame_cache_ = util::pool_shared<util::Bytes>(encode(m));
  }
  return m.frame_cache_;
}

MessagePtr Codec::decode(util::ByteReader& r) {
  const std::uint8_t tag = r.u8();
  SVS_REQUIRE(
      tag > static_cast<std::uint8_t>(MessageType::other) &&
          tag <= static_cast<std::uint8_t>(MessageType::stability_digest),
      "bad message type tag on the wire");
  switch (static_cast<MessageType>(tag)) {
    case MessageType::data:
      return decode_data(r);
    case MessageType::init:
      return decode_init(r);
    case MessageType::pred:
      return decode_pred(r);
    case MessageType::stability:
      return decode_stability(r, /*relaying=*/false);
    case MessageType::consensus:
      return decode_consensus(r);
    case MessageType::heartbeat:
      return util::pool_shared<fd::HeartbeatMessage>();
    case MessageType::swim_ping:
      return decode_swim_ping(r);
    case MessageType::swim_ping_req:
      return decode_swim_ping_req(r);
    case MessageType::swim_ack:
      return decode_swim_ack(r);
    case MessageType::stability_digest:
      return decode_stability(r, /*relaying=*/true);
    case MessageType::other:
      break;
  }
  SVS_UNREACHABLE("tag range checked above");
}

MessagePtr Codec::decode(const util::Bytes& frame) {
  util::ByteReader r(frame);
  MessagePtr m = decode(r);
  SVS_REQUIRE(r.exhausted(), "garbage bytes after the message");
  return m;
}

}  // namespace svs::net
