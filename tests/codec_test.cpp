// Wire-codec tests (DESIGN.md §6): a round-trip property for every
// MessageType and every registered payload/value kind, the measured-bytes
// contract (encoded.size() == wire_size(), always), a byte-for-byte golden
// of one frame per shape, and decode hardening — truncations, bad tags,
// garbage suffixes and a deterministic byte-mutation fuzz loop must throw
// ContractViolation, never crash.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "consensus/message.hpp"
#include "core/message.hpp"
#include "fd/heartbeat.hpp"
#include "fd/swim.hpp"
#include "net/codec.hpp"
#include "net/dgram.hpp"
#include "obs/kbitmap.hpp"
#include "util/bytes.hpp"
#include "util/contracts.hpp"
#include "workload/item_op.hpp"
#include "sim/random.hpp"

namespace svs::net {
namespace {

using core::DataMessage;
using core::DataMessagePtr;
using core::ViewId;

// A registered test payload with interesting fields (string + varint).
class BlobPayload final : public core::Payload {
 public:
  static constexpr std::uint32_t kKind = 7;

  BlobPayload(std::uint64_t x, std::string s) : x_(x), s_(std::move(s)) {}

  [[nodiscard]] std::uint64_t x() const { return x_; }
  [[nodiscard]] const std::string& s() const { return s_; }

  [[nodiscard]] std::size_t wire_size() const override {
    return util::varint_size(x_) + util::varint_size(s_.size()) + s_.size();
  }
  [[nodiscard]] std::uint32_t payload_kind() const override { return kKind; }

  static void encode(const core::Payload& p, util::ByteWriter& w) {
    const auto& blob = static_cast<const BlobPayload&>(p);
    w.u64(blob.x_);
    w.str(blob.s_);
  }
  static core::PayloadPtr decode(util::ByteReader& r) {
    const std::uint64_t x = r.u64();
    std::string s = r.str();
    return std::make_shared<BlobPayload>(x, std::move(s));
  }

 private:
  std::uint64_t x_;
  std::string s_;
};

// An unregistered kind-0 payload: must survive as a size-preserving opaque.
class NullPayload final : public core::Payload {
 public:
  explicit NullPayload(std::size_t n) : n_(n) {}
  [[nodiscard]] std::size_t wire_size() const override { return n_; }

 private:
  std::size_t n_;
};

struct CodecFixture : ::testing::Test {
  CodecFixture() {
    PayloadCodecRegistry::register_codec(BlobPayload::kKind,
                                         BlobPayload::encode,
                                         BlobPayload::decode);
  }

  /// Encode, check the measured-bytes contract, decode the whole frame.
  static MessagePtr round_trip(const Message& m) {
    const util::Bytes frame = Codec::encode(m);
    EXPECT_EQ(frame.size(), m.wire_size())
        << "encoded size must equal wire_size()";
    const MessagePtr back = Codec::decode(frame);
    EXPECT_EQ(back->type(), m.type());
    EXPECT_EQ(back->wire_size(), m.wire_size())
        << "round trip must preserve the encoded size";
    return back;
  }

  static void expect_data_equal(const DataMessage& a, const DataMessage& b) {
    EXPECT_EQ(a.sender(), b.sender());
    EXPECT_EQ(a.seq(), b.seq());
    EXPECT_EQ(a.view(), b.view());
    EXPECT_EQ(a.annotation(), b.annotation());
    EXPECT_EQ(a.order_key(), b.order_key());
    const bool a_has = a.payload() != nullptr;
    const bool b_has = b.payload() != nullptr;
    ASSERT_EQ(a_has, b_has);
    if (a_has) {
      EXPECT_EQ(a.payload()->payload_kind(), b.payload()->payload_kind());
      EXPECT_EQ(a.payload()->wire_size(), b.payload()->wire_size());
    }
  }

  static DataMessagePtr make_data(std::uint32_t sender, std::uint64_t seq,
                                  obs::Annotation annotation,
                                  core::PayloadPtr payload,
                                  std::uint64_t view = 3) {
    return std::make_shared<DataMessage>(ProcessId(sender), seq, ViewId(view),
                                         std::move(annotation),
                                         std::move(payload));
  }

  /// The annotation corpus: one of each representation.
  static std::vector<obs::Annotation> annotations() {
    obs::KBitmap bm(32);
    bm.set(1);
    bm.set(7);
    bm.set(32);
    return {obs::Annotation::none(), obs::Annotation::item(777),
            obs::Annotation::enumerate({3, 9, 200, 4096}),
            obs::Annotation::kenum(bm)};
  }
};

// ---------------------------------------------------------------------------
// round trips, one per MessageType and payload/value kind
// ---------------------------------------------------------------------------

TEST_F(CodecFixture, DataRoundTripsEveryAnnotationKind) {
  for (const auto& annotation : annotations()) {
    const auto m = make_data(
        5, 12345, annotation,
        std::make_shared<workload::ItemOp>(workload::OpKind::update, 42,
                                           0xDEADBEEFCAFEULL, 17, true));
    const auto back = round_trip(*m);
    ASSERT_EQ(back->type(), MessageType::data);
    expect_data_equal(*m, static_cast<const DataMessage&>(*back));
  }
}

TEST_F(CodecFixture, ItemOpPayloadRoundTripsFieldByField) {
  const auto m = make_data(
      1, 2, obs::Annotation::item(9),
      std::make_shared<workload::ItemOp>(workload::OpKind::destroy, 300, 0, 9,
                                         false));
  const auto back =
      std::static_pointer_cast<const DataMessage>(round_trip(*m));
  const auto* op =
      static_cast<const workload::ItemOp*>(back->payload().get());
  EXPECT_EQ(op->op(), workload::OpKind::destroy);
  EXPECT_EQ(op->item(), 300u);
  EXPECT_EQ(op->value(), 0u);
  EXPECT_EQ(op->round(), 9u);
  EXPECT_FALSE(op->commit());
}

TEST_F(CodecFixture, RegisteredBlobPayloadRoundTrips) {
  const auto m = make_data(
      2, 77, obs::Annotation::none(),
      std::make_shared<BlobPayload>(1ULL << 40, "hello \x01 wire"));
  const auto back =
      std::static_pointer_cast<const DataMessage>(round_trip(*m));
  const auto* blob =
      static_cast<const BlobPayload*>(back->payload().get());
  EXPECT_EQ(blob->x(), 1ULL << 40);
  EXPECT_EQ(blob->s(), "hello \x01 wire");
}

TEST_F(CodecFixture, OpaquePayloadPreservesWireSize) {
  const auto m = make_data(3, 4, obs::Annotation::none(),
                           std::make_shared<NullPayload>(13));
  const auto back =
      std::static_pointer_cast<const DataMessage>(round_trip(*m));
  ASSERT_NE(back->payload(), nullptr);
  EXPECT_EQ(back->payload()->payload_kind(), 0u);
  EXPECT_EQ(back->payload()->wire_size(), 13u);
}

TEST_F(CodecFixture, NullPayloadRoundTrips) {
  const auto m = make_data(3, 4, obs::Annotation::none(), nullptr);
  const auto back =
      std::static_pointer_cast<const DataMessage>(round_trip(*m));
  EXPECT_EQ(back->payload(), nullptr);
}

TEST_F(CodecFixture, InitRoundTrips) {
  const core::InitMessage m(ViewId(6), {ProcessId(2), ProcessId(900)});
  const auto back = round_trip(m);
  const auto& init = static_cast<const core::InitMessage&>(*back);
  EXPECT_EQ(init.view(), ViewId(6));
  EXPECT_EQ(init.leave(),
            (std::vector<ProcessId>{ProcessId(2), ProcessId(900)}));
}

TEST_F(CodecFixture, PredRoundTripsNestedMessages) {
  std::vector<DataMessagePtr> accepted;
  std::uint64_t seq = 100;
  for (const auto& annotation : annotations()) {
    ++seq;
    accepted.push_back(make_data(
        4, seq, annotation,
        std::make_shared<workload::ItemOp>(workload::OpKind::create, seq,
                                           seq * 3, 1, false)));
  }
  const core::PredMessage m(ViewId(3), accepted);
  const auto back = round_trip(m);
  const auto& pred = static_cast<const core::PredMessage&>(*back);
  EXPECT_EQ(pred.view(), ViewId(3));
  ASSERT_EQ(pred.accepted().size(), accepted.size());
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    expect_data_equal(*accepted[i], *pred.accepted()[i]);
    // The wire must not preserve object identity.
    EXPECT_NE(pred.accepted()[i].get(), accepted[i].get());
  }
}

TEST_F(CodecFixture, StabilityRoundTrips) {
  const core::StabilityMessage m(
      ViewId(2), 41,
      {{{ProcessId(0), 17}, {ProcessId(3), 0}, {ProcessId(9), 1u << 20}},
       {core::PurgeDebt{42, 44}, core::PurgeDebt{45, 1u << 21}}});
  const auto back = round_trip(m);
  const auto& stability = static_cast<const core::StabilityMessage&>(*back);
  EXPECT_EQ(stability.view(), ViewId(2));
  EXPECT_EQ(stability.anchor(), 41u);
  EXPECT_EQ(stability.report(), m.report());
}

TEST_F(CodecFixture, ReportSectionIsOneShapeWithExactHelperSizes) {
  // The report section is the same bytes in a gossip round, a DATA
  // piggyback and a digest row, and the entry/debt/section helpers that
  // price reports nothing encodes (the full snapshot a delta round
  // avoided) agree with the encoder byte for byte — count varints past
  // one byte included.
  core::StabilityReport long_ledger{{{ProcessId(1), 9}}, {}};
  for (std::uint64_t i = 0; i < 130; ++i) {
    long_ledger.debts.push_back(core::PurgeDebt{10 + 3 * i, 12 + 3 * i});
  }
  const std::vector<core::StabilityReport> reports = {
      {},
      {{{ProcessId(1), 9}}, {}},
      {{{ProcessId(0), 17}, {ProcessId(300), 1u << 20}},
       {core::PurgeDebt{1, 2}, core::PurgeDebt{200, 500},
        core::PurgeDebt{1000, 20000}}},
      long_ledger,
  };
  const auto round_bytes = [](const core::StabilityReport& report) {
    return Codec::encode(core::StabilityMessage(ViewId(7), 3, report)).size();
  };
  const auto piggyback_bytes = [](const core::StabilityReport& report) {
    DataMessage m(ProcessId(5), 41, ViewId(7), obs::Annotation::none(),
                  nullptr);
    m.set_piggyback(core::StabilityPiggyback{3, report});
    return Codec::encode(m).size();
  };
  const auto row_bytes = [](const core::StabilityReport& report) {
    return Codec::encode(core::StabilityDigestMessage(
                             ViewId(7), {{ProcessId(2), 3, report}}))
        .size();
  };
  const core::StabilityReport empty;
  const std::size_t empty_section = core::report_wire_size(empty);
  for (const auto& report : reports) {
    // report_wire_size(report) sums the entry and debt helpers into the
    // aggregate section helper, so this pins all three.
    const std::size_t section = core::report_wire_size(report);
    EXPECT_EQ(round_bytes(report) - round_bytes(empty),
              section - empty_section);
    EXPECT_EQ(piggyback_bytes(report) - piggyback_bytes(empty),
              section - empty_section);
    EXPECT_EQ(row_bytes(report) - row_bytes(empty), section - empty_section);
  }
}

TEST_F(CodecFixture, DataPiggybackRoundTrips) {
  // The optional stability-piggyback section on DATA messages: a rich one
  // (seen entries + debts) and the minimal anchor-only one, both preserving
  // the measured-bytes contract (round_trip checks wire_size parity).
  const core::StabilityPiggyback pb{
      40,
      {{{ProcessId(0), 17}, {ProcessId(3), 0}, {ProcessId(9), 1u << 20}},
       {core::PurgeDebt{42, 44}, core::PurgeDebt{45, 1u << 21}}}};
  const auto m = std::make_shared<DataMessage>(
      ProcessId(5), 41, ViewId(3), obs::Annotation::item(7),
      std::make_shared<workload::ItemOp>(workload::OpKind::update, 7, 8, 9,
                                         true));
  m->set_piggyback(pb);
  const auto back =
      std::static_pointer_cast<const DataMessage>(round_trip(*m));
  ASSERT_TRUE(back->piggyback().has_value());
  EXPECT_EQ(*back->piggyback(), pb);

  const auto bare = std::make_shared<DataMessage>(
      ProcessId(5), 42, ViewId(3), obs::Annotation::none(), nullptr);
  bare->set_piggyback(core::StabilityPiggyback{});
  const auto bare_back =
      std::static_pointer_cast<const DataMessage>(round_trip(*bare));
  ASSERT_TRUE(bare_back->piggyback().has_value());
  EXPECT_EQ(*bare_back->piggyback(), core::StabilityPiggyback{});

  const auto plain = make_data(5, 43, obs::Annotation::none(), nullptr);
  const auto plain_back =
      std::static_pointer_cast<const DataMessage>(round_trip(*plain));
  EXPECT_FALSE(plain_back->piggyback().has_value());
}

TEST_F(CodecFixture, ConsensusWithProposalValueRoundTrips) {
  std::vector<DataMessagePtr> pred{
      make_data(1, 5, obs::Annotation::item(2),
                std::make_shared<workload::ItemOp>(workload::OpKind::update,
                                                   2, 99, 3, true))};
  const auto value = std::make_shared<core::ProposalValue>(
      core::View(ViewId(4), {ProcessId(0), ProcessId(1), ProcessId(2)}),
      pred);
  const consensus::ConsensusMessage m(consensus::InstanceId(3), 2,
                                      consensus::Phase::propose, value, 1);
  const auto back = round_trip(m);
  const auto& cm = static_cast<const consensus::ConsensusMessage&>(*back);
  EXPECT_EQ(cm.instance(), consensus::InstanceId(3));
  EXPECT_EQ(cm.round(), 2u);
  EXPECT_EQ(cm.phase(), consensus::Phase::propose);
  EXPECT_EQ(cm.timestamp(), 1u);
  const auto decided =
      std::dynamic_pointer_cast<const core::ProposalValue>(cm.value());
  ASSERT_NE(decided, nullptr) << "ProposalValue must round-trip as itself";
  EXPECT_EQ(decided->next_view().id(), ViewId(4));
  EXPECT_EQ(decided->next_view().members(),
            (std::vector<ProcessId>{ProcessId(0), ProcessId(1), ProcessId(2)}));
  ASSERT_EQ(decided->pred_view().size(), 1u);
  expect_data_equal(*pred[0], *decided->pred_view()[0]);
}

TEST_F(CodecFixture, ConsensusWithNullValueRoundTrips) {
  const consensus::ConsensusMessage m(consensus::InstanceId(1), 0,
                                      consensus::Phase::ack, nullptr, 0);
  const auto back = round_trip(m);
  const auto& cm = static_cast<const consensus::ConsensusMessage&>(*back);
  EXPECT_EQ(cm.value(), nullptr);
  EXPECT_EQ(cm.phase(), consensus::Phase::ack);
}

TEST_F(CodecFixture, ConsensusWithOpaqueValuePreservesSize) {
  class IntValue final : public consensus::ValueBase {
   public:
    [[nodiscard]] std::size_t wire_size() const override { return 4; }
  };
  const consensus::ConsensusMessage m(consensus::InstanceId(2), 1,
                                      consensus::Phase::estimate,
                                      std::make_shared<IntValue>(), 0);
  const auto back = round_trip(m);
  const auto& cm = static_cast<const consensus::ConsensusMessage&>(*back);
  ASSERT_NE(cm.value(), nullptr);
  EXPECT_EQ(cm.value()->value_kind(), 0u);
  EXPECT_EQ(cm.value()->wire_size(), 4u);
}

TEST_F(CodecFixture, HeartbeatRoundTrips) {
  const fd::HeartbeatMessage m;
  const auto back = round_trip(m);
  EXPECT_EQ(back->type(), MessageType::heartbeat);
  EXPECT_EQ(m.wire_size(), 1u);
}

/// One update per status, with incarnations probing the varint widths.
fd::SwimUpdates swim_updates_corpus() {
  return {{ProcessId(1), fd::SwimUpdate::Status::alive, 0},
          {ProcessId(200), fd::SwimUpdate::Status::suspect, 1u << 20},
          {ProcessId(3), fd::SwimUpdate::Status::confirm, 7}};
}

TEST_F(CodecFixture, SwimPingRoundTrips) {
  const fd::SwimPingMessage m(0xABCDEF0102ULL, swim_updates_corpus());
  const auto back = round_trip(m);
  const auto& ping = static_cast<const fd::SwimPingMessage&>(*back);
  EXPECT_EQ(ping.nonce(), 0xABCDEF0102ULL);
  EXPECT_EQ(ping.updates(), swim_updates_corpus());

  // The empty piggyback section is the common case on the wire.
  const fd::SwimPingMessage bare(1, {});
  const auto bare_back = round_trip(bare);
  EXPECT_TRUE(
      static_cast<const fd::SwimPingMessage&>(*bare_back).updates().empty());
}

TEST_F(CodecFixture, SwimPingReqRoundTrips) {
  const fd::SwimPingReqMessage m(42, ProcessId(900), swim_updates_corpus());
  const auto back = round_trip(m);
  const auto& req = static_cast<const fd::SwimPingReqMessage&>(*back);
  EXPECT_EQ(req.nonce(), 42u);
  EXPECT_EQ(req.target(), ProcessId(900));
  EXPECT_EQ(req.updates(), swim_updates_corpus());
}

TEST_F(CodecFixture, SwimAckRoundTrips) {
  const fd::SwimAckMessage m(42, ProcessId(5), 1u << 30,
                             swim_updates_corpus());
  const auto back = round_trip(m);
  const auto& ack = static_cast<const fd::SwimAckMessage&>(*back);
  EXPECT_EQ(ack.nonce(), 42u);
  EXPECT_EQ(ack.subject(), ProcessId(5));
  EXPECT_EQ(ack.incarnation(), 1u << 30);
  EXPECT_EQ(ack.updates(), swim_updates_corpus());
}

TEST_F(CodecFixture, SwimUpdateHardening) {
  const auto ping_with_updates = [](auto&& write_updates) {
    util::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(MessageType::swim_ping));
    w.u64(9);  // nonce
    write_updates(w);
    return w.take();
  };
  // A status byte past confirm is malformed.
  EXPECT_THROW(
      (void)Codec::decode(ping_with_updates([](util::ByteWriter& w) {
        w.u64(1);
        w.u32(1);  // member
        w.u8(3);   // no such status
        w.u64(0);
      })),
      util::ContractViolation);
  // An update count beyond the buffer is rejected before allocation.
  EXPECT_THROW(
      (void)Codec::decode(ping_with_updates([](util::ByteWriter& w) {
        w.u64(1ULL << 59);
      })),
      util::ContractViolation);
}

TEST_F(CodecFixture, StabilityDigestRoundTrips) {
  core::StabilityDigestMessage::Rows rows;
  rows.push_back(
      {ProcessId(0), 41,
       {{{ProcessId(0), 17}, {ProcessId(3), 0}},
        {core::PurgeDebt{42, 44}, core::PurgeDebt{45, 1u << 21}}}});
  // A relayed row may usefully carry a frontier before its anchor is known.
  rows.push_back({ProcessId(9), std::nullopt, {{{ProcessId(1), 5}}, {}}});
  const core::StabilityDigestMessage m(ViewId(3), rows);
  const auto back = round_trip(m);
  const auto& digest = static_cast<const core::StabilityDigestMessage&>(*back);
  EXPECT_EQ(digest.view(), ViewId(3));
  EXPECT_EQ(digest.rows(), rows);
}

using FrameWriter = std::function<void(util::ByteWriter&)>;

/// A DATA frame up to its piggyback-presence byte: sender 1, seq 1,
/// view 1, no annotation, an empty opaque payload.
void write_data_header(util::ByteWriter& w) {
  w.u8(static_cast<std::uint8_t>(MessageType::data));
  w.u32(1);
  w.u64(1);
  w.u64(1);
  w.u8(0);   // AnnotationKind::none
  w.u32(0);  // opaque payload kind
  w.u64(0);  // zero payload bytes
}

util::Bytes frame_of(const FrameWriter& head, const FrameWriter& body) {
  util::ByteWriter w;
  head(w);
  body(w);
  return w.take();
}

TEST_F(CodecFixture, ReportSectionHardeningHoldsInEveryCarrier) {
  // One decoder reads the report section, so every malformation must be
  // rejected behind every carrier's header (§6: malformed input always
  // throws ContractViolation, never corrupts).
  const std::vector<std::pair<std::string, FrameWriter>> carriers = {
      {"stability round",
       [](util::ByteWriter& w) {
         w.u8(static_cast<std::uint8_t>(MessageType::stability));
         w.u64(1);  // view
         w.u64(0);  // anchor
       }},
      {"data piggyback",
       [](util::ByteWriter& w) {
         write_data_header(w);
         w.u8(1);   // piggyback present
         w.u64(0);  // anchor
       }},
      {"digest row",
       [](util::ByteWriter& w) {
         w.u8(static_cast<std::uint8_t>(MessageType::stability_digest));
         w.u64(1);  // view
         w.u64(1);  // one row
         w.u32(0);  // origin
         w.u8(0);   // no anchor
       }},
  };
  const std::vector<std::pair<std::string, FrameWriter>> malformed = {
      {"truncated section", [](util::ByteWriter&) {}},
      {"non-ascending debt seqs",
       [](util::ByteWriter& w) {
         w.u64(0);  // no seen entries
         w.u64(2);  // two debts with the same seq
         w.u64(5);
         w.u64(1);
         w.u64(5);
         w.u64(1);
       }},
      {"zero cover gap (a message purged by itself)",
       [](util::ByteWriter& w) {
         w.u64(0);
         w.u64(1);
         w.u64(5);
         w.u64(0);
       }},
      {"seen count beyond the buffer",
       [](util::ByteWriter& w) { w.u64(1ULL << 59); }},
      {"debt count beyond the buffer",
       [](util::ByteWriter& w) {
         w.u64(0);
         w.u64(1ULL << 59);
       }},
      {"cover gap overflowing uint64",
       [](util::ByteWriter& w) {
         w.u64(0);
         w.u64(1);
         w.u64(0xFFFFFFFFFFFFFFFFULL);  // seq = 2^64 - 1
         w.u64(2);                      // cover wraps
       }},
  };
  for (const auto& [carrier, head] : carriers) {
    EXPECT_NO_THROW((void)Codec::decode(frame_of(head, [](util::ByteWriter& w) {
      w.u64(0);  // no seen entries
      w.u64(0);  // no debts
    }))) << carrier;
    for (const auto& [what, body] : malformed) {
      EXPECT_THROW((void)Codec::decode(frame_of(head, body)),
                   util::ContractViolation)
          << carrier << ": " << what;
    }
  }
}

TEST_F(CodecFixture, CarrierHeadersAreChecked) {
  const auto bad = [](const FrameWriter& head, const FrameWriter& body) {
    EXPECT_THROW((void)Codec::decode(frame_of(head, body)),
                 util::ContractViolation);
  };
  // Presence bytes must be 0 or 1.
  bad(write_data_header, [](util::ByteWriter& w) { w.u8(2); });
  const auto digest_head = [](util::ByteWriter& w) {
    w.u8(static_cast<std::uint8_t>(MessageType::stability_digest));
    w.u64(1);  // view
  };
  bad(digest_head, [](util::ByteWriter& w) {
    w.u64(1);  // one row
    w.u32(0);  // origin
    w.u8(2);   // bad anchor-presence flag
  });
  // An absent piggyback followed by trailing bytes is garbage.
  bad(write_data_header, [](util::ByteWriter& w) {
    w.u8(0);
    w.u64(0);
  });
  // A row count beyond the buffer is rejected before allocation.
  bad(digest_head, [](util::ByteWriter& w) { w.u64(1ULL << 60); });
}

// ---------------------------------------------------------------------------
// the measured-bytes contract
// ---------------------------------------------------------------------------

TEST_F(CodecFixture, EncodeRejectsUnencodableTypes) {
  class OtherMessage final : public Message {
   public:
    OtherMessage() : Message(MessageType::other) {}
    [[nodiscard]] std::size_t compute_wire_size() const override { return 4; }
  };
  const OtherMessage m;
  EXPECT_THROW((void)Codec::encode(m), util::ContractViolation);
}

TEST_F(CodecFixture, EncodeRejectsUnregisteredPayloadKinds) {
  class StrayPayload final : public core::Payload {
   public:
    [[nodiscard]] std::size_t wire_size() const override { return 2; }
    [[nodiscard]] std::uint32_t payload_kind() const override { return 999; }
  };
  const auto m = make_data(0, 1, obs::Annotation::none(),
                           std::make_shared<StrayPayload>());
  EXPECT_THROW((void)Codec::encode(*m), util::ContractViolation);
}

// ---------------------------------------------------------------------------
// decode hardening
// ---------------------------------------------------------------------------

/// A representative corpus: one valid encoding per shape.
std::vector<util::Bytes> corpus() {
  std::vector<util::Bytes> out;
  obs::KBitmap bm(16);
  bm.set(2);
  bm.set(16);
  const auto data = std::make_shared<DataMessage>(
      ProcessId(3), 41, ViewId(2), obs::Annotation::kenum(bm),
      std::make_shared<workload::ItemOp>(workload::OpKind::update, 11, 12, 13,
                                         true));
  out.push_back(Codec::encode(*data));
  const auto pb_data = std::make_shared<DataMessage>(
      ProcessId(4), 43, ViewId(2), obs::Annotation::none(),
      std::make_shared<workload::ItemOp>(workload::OpKind::update, 1, 2, 3,
                                         false));
  pb_data->set_piggyback(core::StabilityPiggyback{
      4,
      {{{ProcessId(0), 5}, {ProcessId(1), 7}},
       {core::PurgeDebt{5, 6}, core::PurgeDebt{8, 11}}}});
  out.push_back(Codec::encode(*pb_data));
  out.push_back(Codec::encode(core::InitMessage(ViewId(1), {ProcessId(4)})));
  out.push_back(Codec::encode(core::PredMessage(ViewId(2), {data})));
  out.push_back(Codec::encode(core::StabilityMessage(
      ViewId(2), 4,
      {{{ProcessId(0), 5}, {ProcessId(1), 7}},
       {core::PurgeDebt{5, 6}, core::PurgeDebt{8, 11}}})));
  out.push_back(Codec::encode(consensus::ConsensusMessage(
      consensus::InstanceId(2), 1, consensus::Phase::propose,
      std::make_shared<core::ProposalValue>(
          core::View(ViewId(3), {ProcessId(0), ProcessId(1)}),
          std::vector<DataMessagePtr>{data}),
      1)));
  out.push_back(Codec::encode(fd::HeartbeatMessage()));
  out.push_back(Codec::encode(fd::SwimPingMessage(9, swim_updates_corpus())));
  out.push_back(Codec::encode(
      fd::SwimPingReqMessage(10, ProcessId(2), swim_updates_corpus())));
  out.push_back(Codec::encode(
      fd::SwimAckMessage(9, ProcessId(3), 4, swim_updates_corpus())));
  out.push_back(Codec::encode(core::StabilityDigestMessage(
      ViewId(2),
      {{ProcessId(0), 41, {{{ProcessId(0), 17}}, {core::PurgeDebt{42, 44}}}},
       {ProcessId(1), std::nullopt, {{{ProcessId(1), 5}}, {}}}})));
  return out;
}

std::string to_hex(const util::Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0F]);
  }
  return out;
}

TEST_F(CodecFixture, CorpusMatchesPinnedWireBytes) {
  // Every corpus frame, byte for byte.  wire_size() is the encoder's own
  // count, so no size check can notice a format change; this golden does.
  // A mismatch here is a wire-format change and must be deliberate.
  const std::vector<std::string> golden = {
      // data, k-enumeration annotation, ItemOp, no piggyback
      "0103290203100280010b810b0d0c0000000000000000",
      // data with a stability piggyback
      "01042b0200010b0101030200000000000000010402000501070205010803",
      // init
      "02010104",
      // pred nesting the first data frame
      "0302010103290203100280010b810b0d0c0000000000000000",
      // stability round
      "04020402000501070205010803",
      // consensus proposal carrying a ProposalValue
      "050201010101011b03020001010103290203100280010b810b0d0c0000000000000000",
      // heartbeat
      "06",
      // swim ping
      "070903010000c80101808040030207",
      // swim ping-req
      "080a0203010000c80101808040030207",
      // swim ack
      "0909030403010000c80101808040030207",
      // stability digest, anchored and anchor-less rows
      "0a0202000129010011012a02010001010500",
  };
  const auto frames = corpus();
  ASSERT_EQ(frames.size(), golden.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(to_hex(frames[i]), golden[i]) << "corpus frame " << i;
  }
}

TEST_F(CodecFixture, EveryStrictPrefixThrows) {
  for (const auto& frame : corpus()) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const util::Bytes prefix(frame.begin(),
                               frame.begin() + static_cast<long>(cut));
      EXPECT_THROW((void)Codec::decode(prefix), util::ContractViolation)
          << "prefix of length " << cut << " of a " << frame.size()
          << "-byte frame";
    }
  }
}

TEST_F(CodecFixture, GarbageSuffixThrows) {
  for (const auto& frame : corpus()) {
    util::Bytes extended = frame;
    extended.push_back(0x00);
    EXPECT_THROW((void)Codec::decode(extended), util::ContractViolation);
  }
}

TEST_F(CodecFixture, BadTypeTagThrows) {
  // 11 is the first tag past stability_digest, the highest valid type.
  for (const std::uint8_t tag : {std::uint8_t{0}, std::uint8_t{11},
                                 std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
    util::Bytes frame = corpus().front();
    frame[0] = tag;
    EXPECT_THROW((void)Codec::decode(frame), util::ContractViolation);
  }
}

TEST_F(CodecFixture, UnknownPayloadKindThrows) {
  // data message, sender 1, seq 1, view 1, annotation none, kind 999.
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::data));
  w.u32(1);
  w.u64(1);
  w.u64(1);
  w.u8(0);  // AnnotationKind::none
  w.u32(999);
  w.u64(0);
  EXPECT_THROW((void)Codec::decode(w.data()), util::ContractViolation);
}

TEST_F(CodecFixture, PayloadLengthOverrunThrows) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::data));
  w.u32(1);
  w.u64(1);
  w.u64(1);
  w.u8(0);   // AnnotationKind::none
  w.u32(0);  // opaque
  w.u64(100);  // claims 100 payload bytes; none follow
  EXPECT_THROW((void)Codec::decode(w.data()), util::ContractViolation);
}

TEST_F(CodecFixture, HugeCountsAreRejectedNotAllocated) {
  // A stability message claiming ~2^60 entries must be rejected by the
  // bounds check, not by attempting the allocation.
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::stability));
  w.u64(1);
  w.u64(0);  // anchor
  w.u64(1ULL << 60);
  EXPECT_THROW((void)Codec::decode(w.data()), util::ContractViolation);

  // Same for a k-enumeration bitmap with an absurd horizon.
  util::ByteWriter w2;
  w2.u8(static_cast<std::uint8_t>(MessageType::data));
  w2.u32(1);
  w2.u64(1);
  w2.u64(1);
  w2.u8(3);            // AnnotationKind::k_enum
  w2.u64(1ULL << 50);  // horizon
  EXPECT_THROW((void)Codec::decode(w2.data()), util::ContractViolation);
}

TEST_F(CodecFixture, ByteMutationFuzzNeverCrashes) {
  // Deterministic mutation fuzz: any single- or multi-byte corruption of a
  // valid frame either decodes to *something* or throws ContractViolation.
  // LogicViolation or UB would mean a decoder bug (the ASan/UBSan CI job
  // runs this same loop under sanitizers).
  svs::sim::Rng rng(0x5eed1235ULL);
  const auto next_random = [&rng] { return rng.next_u64(); };
  const auto frames = corpus();
  int decoded_ok = 0;
  int rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    util::Bytes frame = frames[next_random() % frames.size()];
    const int flips = 1 + static_cast<int>(next_random() % 4);
    for (int f = 0; f < flips; ++f) {
      frame[next_random() % frame.size()] ^=
          static_cast<std::uint8_t>(1U << (next_random() % 8));
    }
    try {
      const MessagePtr m = Codec::decode(frame);
      ASSERT_NE(m, nullptr);
      ++decoded_ok;
    } catch (const util::ContractViolation&) {
      ++rejected;
    }
  }
  // Both outcomes must actually occur, or the fuzz is vacuous.
  EXPECT_GT(decoded_ok, 0);
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------------
// datagram-header hardening (the UDP lane's framing, net/dgram.hpp)
// ---------------------------------------------------------------------------

/// One valid datagram per kind, with every optional feature exercised:
/// delta-coded sack ranges, window probe, roster list.
std::vector<util::Bytes> dgram_corpus() {
  AckBlock rich;
  rich.cum = 9;
  rich.sacks = {{11, 13}, {17, 17}, {20, 24}};
  rich.window = 32;

  AckBlock probe;
  probe.cum = 3;
  probe.window = 0;
  probe.window_probe = true;

  const auto inner = std::make_shared<DataMessage>(
      ProcessId(1), 5, ViewId(1), obs::Annotation::item(2),
      std::make_shared<workload::ItemOp>(workload::OpKind::update, 2, 3, 4,
                                         false));
  std::vector<util::Bytes> out;
  out.push_back(
      Datagram::encode_data(1, 2, 0, 42, rich, Codec::encode(*inner)));
  out.push_back(Datagram::encode_ack(2, 1, 1, probe));
  out.push_back(Datagram::encode_join(7, 40'123));
  out.push_back(Datagram::encode_roster({{0, 9'000}, {1, 9'001}, {2, 9'002}}));
  // A batched data datagram (three frames under one link seq), so the
  // prefix/suffix/mutation sweeps below also hammer the batch framing.
  std::vector<FramePtr> batch;
  for (std::uint64_t seq = 6; seq <= 8; ++seq) {
    batch.push_back(Codec::shared_frame(DataMessage(
        ProcessId(1), seq, ViewId(1), obs::Annotation::none(), nullptr)));
  }
  out.push_back(Datagram::encode_data(
      1, 2, 0, 43, rich, std::span<const FramePtr>(batch.data(), batch.size())));
  return out;
}

TEST_F(CodecFixture, DatagramCorpusRoundTrips) {
  const auto frames = dgram_corpus();
  {
    const Datagram d = Datagram::decode(frames[0]);
    EXPECT_EQ(d.kind, Datagram::Kind::data);
    EXPECT_EQ(d.from, 1u);
    EXPECT_EQ(d.to, 2u);
    EXPECT_EQ(d.lane, 0);
    EXPECT_EQ(d.seq, 42u);
    EXPECT_EQ(d.ack.cum, 9u);
    ASSERT_EQ(d.ack.sacks.size(), 3u);
    EXPECT_EQ(d.ack.sacks[2].first, 20u);
    EXPECT_EQ(d.ack.sacks[2].last, 24u);
    EXPECT_EQ(d.ack.window, 32u);
    EXPECT_FALSE(d.ack.window_probe);
    // The payload is a complete codec frame: it must decode in turn.
    ASSERT_EQ(d.payloads.size(), 1u);
    const MessagePtr m = Codec::decode(d.payloads[0]);
    ASSERT_EQ(m->type(), MessageType::data);
    EXPECT_EQ(static_cast<const DataMessage&>(*m).seq(), 5u);
  }
  {
    // The batched datagram: frame order is preserved, every frame decodes.
    const Datagram d = Datagram::decode(frames[4]);
    EXPECT_EQ(d.kind, Datagram::Kind::data);
    EXPECT_EQ(d.seq, 43u);
    ASSERT_EQ(d.payloads.size(), 3u);
    for (std::size_t i = 0; i < d.payloads.size(); ++i) {
      const MessagePtr m = Codec::decode(d.payloads[i]);
      ASSERT_EQ(m->type(), MessageType::data);
      EXPECT_EQ(static_cast<const DataMessage&>(*m).seq(), 6u + i);
    }
  }
  {
    const Datagram d = Datagram::decode(frames[1]);
    EXPECT_EQ(d.kind, Datagram::Kind::ack);
    EXPECT_TRUE(d.ack.window_probe);
    EXPECT_EQ(d.ack.window, 0u);
    EXPECT_EQ(d.ack.cum, 3u);
  }
  {
    const Datagram d = Datagram::decode(frames[2]);
    EXPECT_EQ(d.kind, Datagram::Kind::join);
    EXPECT_EQ(d.join_id, 7u);
    EXPECT_EQ(d.join_port, 40'123);
  }
  {
    const Datagram d = Datagram::decode(frames[3]);
    EXPECT_EQ(d.kind, Datagram::Kind::roster);
    ASSERT_EQ(d.roster.size(), 3u);
    EXPECT_EQ(d.roster[2].first, 2u);
    EXPECT_EQ(d.roster[2].second, 9'002);
  }
}

TEST_F(CodecFixture, DatagramBatchBoundsThrow) {
  // Hand-built data datagrams probing the batch framing limits: the frame
  // count must be 1..kMaxBatchFrames, every length must land inside the
  // datagram, and the frames must fill it exactly.  The ack flags byte
  // admits the window-probe bit alone.
  const auto data_dgram = [](auto&& write_body, std::uint8_t flags = 0) {
    util::ByteWriter w;
    w.u8(Datagram::kMagic);
    w.u8(1);   // Kind::data
    w.u32(1);  // from
    w.u32(2);  // to
    w.u8(0);   // lane
    w.u64(7);  // link seq
    w.u64(0);  // ack.cum
    w.u64(0);  // no sack ranges
    w.u32(8);  // window
    w.u8(flags);
    write_body(w);
    return w.take();
  };
  // A batch of two one-byte frames is well-formed at this layer.
  EXPECT_NO_THROW((void)Datagram::decode(data_dgram([](util::ByteWriter& w) {
    w.u64(2);
    w.u64(1);
    w.u8(0xAA);
    w.u64(1);
    w.u8(0xBB);
  })));
  const auto one_frame = [](util::ByteWriter& w) {
    w.u64(1);
    w.u64(1);
    w.u8(0xAA);
  };
  EXPECT_TRUE(Datagram::decode(data_dgram(one_frame, 0x01)).ack.window_probe);
  for (const std::uint8_t flags : {0x02, 0x04, 0x80}) {
    EXPECT_THROW((void)Datagram::decode(data_dgram(one_frame, flags)),
                 util::ContractViolation)
        << "flags " << int{flags};
  }
  // Zero frames: a data datagram must carry at least one.
  EXPECT_THROW((void)Datagram::decode(data_dgram([](util::ByteWriter& w) {
                 w.u64(0);
               })),
               util::ContractViolation);
  // Count above kMaxBatchFrames is rejected before any allocation.
  EXPECT_THROW((void)Datagram::decode(data_dgram([](util::ByteWriter& w) {
                 w.u64(Datagram::kMaxBatchFrames + 1);
               })),
               util::ContractViolation);
  // A frame length reaching past the end of the datagram.
  EXPECT_THROW((void)Datagram::decode(data_dgram([](util::ByteWriter& w) {
                 w.u64(1);
                 w.u64(9);
                 w.u8(0xAA);  // only one byte actually present
               })),
               util::ContractViolation);
  // Zero-length frames cannot occur (codec frames are never empty).
  EXPECT_THROW((void)Datagram::decode(data_dgram([](util::ByteWriter& w) {
                 w.u64(1);
                 w.u64(0);
               })),
               util::ContractViolation);
  // Under-fill: bytes left over after the declared frames.
  EXPECT_THROW((void)Datagram::decode(data_dgram([](util::ByteWriter& w) {
                 w.u64(1);
                 w.u64(1);
                 w.u8(0xAA);
                 w.u8(0xFF);  // trailing byte no frame claims
               })),
               util::ContractViolation);

  // Encode-side split bounds: empty, oversize, and null-frame batches are
  // programming errors, caught as contract violations.
  AckBlock ack;
  ack.window = 8;
  const auto frame = std::make_shared<const util::Bytes>(util::Bytes{0x01});
  EXPECT_THROW((void)Datagram::encode_data(1, 2, 0, 7, ack,
                                           std::span<const FramePtr>{}),
               util::ContractViolation);
  const std::vector<FramePtr> oversize(Datagram::kMaxBatchFrames + 1, frame);
  EXPECT_THROW(
      (void)Datagram::encode_data(
          1, 2, 0, 7, ack,
          std::span<const FramePtr>(oversize.data(), oversize.size())),
      util::ContractViolation);
  const std::vector<FramePtr> with_null{frame, nullptr};
  EXPECT_THROW(
      (void)Datagram::encode_data(
          1, 2, 0, 7, ack,
          std::span<const FramePtr>(with_null.data(), with_null.size())),
      util::ContractViolation);
}

TEST_F(CodecFixture, DatagramEveryStrictPrefixThrows) {
  for (const auto& frame : dgram_corpus()) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const util::Bytes prefix(frame.begin(),
                               frame.begin() + static_cast<long>(cut));
      EXPECT_THROW((void)Datagram::decode(prefix), util::ContractViolation)
          << "prefix of length " << cut << " of a " << frame.size()
          << "-byte datagram";
    }
  }
}

TEST_F(CodecFixture, DatagramGarbageSuffixAndBadHeaderThrow) {
  for (const auto& frame : dgram_corpus()) {
    util::Bytes extended = frame;
    extended.push_back(0x00);
    EXPECT_THROW((void)Datagram::decode(extended), util::ContractViolation);

    util::Bytes bad_magic = frame;
    bad_magic[0] = 0xD7;
    EXPECT_THROW((void)Datagram::decode(bad_magic), util::ContractViolation);

    util::Bytes bad_kind = frame;
    bad_kind[1] = 0x09;
    EXPECT_THROW((void)Datagram::decode(bad_kind), util::ContractViolation);
  }
  EXPECT_THROW((void)Datagram::decode(util::Bytes{}), util::ContractViolation);
}

TEST_F(CodecFixture, DatagramByteMutationFuzzNeverCrashes) {
  // Same discipline as the codec fuzz: arbitrary byte corruption of a lane
  // datagram either decodes or throws ContractViolation — never undefined
  // behaviour, never a LogicViolation.  This is the surface a hostile
  // localhost process can actually reach.
  svs::sim::Rng rng(0xD6D6'F011ULL);
  const auto frames = dgram_corpus();
  int decoded_ok = 0;
  int rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    util::Bytes frame = frames[rng.next_u64() % frames.size()];
    const int flips = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int f = 0; f < flips; ++f) {
      frame[rng.next_u64() % frame.size()] ^=
          static_cast<std::uint8_t>(1U << (rng.next_u64() % 8));
    }
    try {
      const Datagram d = Datagram::decode(frame);
      (void)d;
      ++decoded_ok;
    } catch (const util::ContractViolation&) {
      ++rejected;
    }
  }
  EXPECT_GT(decoded_ok, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace svs::net
