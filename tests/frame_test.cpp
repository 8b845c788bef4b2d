// Encode-once frame sharing (DESIGN.md §8).
//
// `Codec::shared_frame` must be byte-identical to `Codec::encode` for every
// message type and annotation/payload shape — a cached frame that drifts
// from the reference encoder would poison every receiver at once.  The
// randomized sweep hammers that equality over seeded-random DataMessages;
// the UDP backend tests pin the perf contract itself: one encode per
// multicast, every further destination reuses the cached frame.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "consensus/message.hpp"
#include "core/message.hpp"
#include "fd/heartbeat.hpp"
#include "net/codec.hpp"
#include "net/udp_transport.hpp"
#include "obs/kbitmap.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "workload/item_op.hpp"

namespace svs::net {
namespace {

using core::DataMessage;
using core::DataMessagePtr;
using core::ViewId;

class NullPayload final : public core::Payload {
 public:
  explicit NullPayload(std::size_t n) : n_(n) {}
  [[nodiscard]] std::size_t wire_size() const override { return n_; }

 private:
  std::size_t n_;
};

/// The one property everything rests on.
void expect_frame_equals_encode(const Message& m) {
  const util::Bytes reference = Codec::encode(m);
  const FramePtr frame = Codec::shared_frame(m);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(*frame, reference) << "shared frame drifted from Codec::encode";
  EXPECT_EQ(frame->size(), m.wire_size());
}

std::vector<obs::Annotation> annotation_corpus() {
  obs::KBitmap bm(32);
  bm.set(1);
  bm.set(7);
  bm.set(32);
  return {obs::Annotation::none(), obs::Annotation::item(777),
          obs::Annotation::enumerate({3, 9, 200, 4096}),
          obs::Annotation::kenum(bm)};
}

TEST(SharedFrame, MatchesEncodeForEveryMessageType) {
  // data, across every annotation representation and payload shape
  for (const auto& annotation : annotation_corpus()) {
    expect_frame_equals_encode(DataMessage(
        ProcessId(5), 12345, ViewId(3), annotation,
        std::make_shared<workload::ItemOp>(workload::OpKind::update, 42,
                                           0xDEADBEEFCAFEULL, 17, true)));
    expect_frame_equals_encode(DataMessage(ProcessId(1), 7, ViewId(0),
                                           annotation,
                                           std::make_shared<NullPayload>(13)));
    expect_frame_equals_encode(
        DataMessage(ProcessId(9), 1, ViewId(2), annotation, nullptr));
  }

  // init
  expect_frame_equals_encode(
      core::InitMessage(ViewId(6), {ProcessId(2), ProcessId(900)}));

  // pred with nested messages
  std::vector<DataMessagePtr> accepted;
  std::uint64_t seq = 100;
  for (const auto& annotation : annotation_corpus()) {
    ++seq;
    accepted.push_back(std::make_shared<DataMessage>(
        ProcessId(4), seq, ViewId(3), annotation,
        std::make_shared<workload::ItemOp>(workload::OpKind::create, seq,
                                           seq * 3, 1, false)));
  }
  expect_frame_equals_encode(core::PredMessage(ViewId(3), accepted));

  // stability with seen map and purge debts
  expect_frame_equals_encode(core::StabilityMessage(
      ViewId(2), 41,
      {{{ProcessId(0), 17}, {ProcessId(3), 0}, {ProcessId(9), 1u << 20}},
       {core::PurgeDebt{42, 44}, core::PurgeDebt{45, 1u << 21}}}));

  // consensus (opaque value and null value)
  expect_frame_equals_encode(consensus::ConsensusMessage(
      consensus::InstanceId(3), 2, consensus::Phase::propose,
      std::make_shared<consensus::OpaqueValue>(9), 1));
  expect_frame_equals_encode(consensus::ConsensusMessage(
      consensus::InstanceId(1), 0, consensus::Phase::nack, nullptr, 0));

  // heartbeat
  expect_frame_equals_encode(fd::HeartbeatMessage());
}

TEST(SharedFrame, RandomizedDataMessagesMatchEncode) {
  sim::Rng rng(0xF4A3E5EEDULL);
  for (int i = 0; i < 300; ++i) {
    obs::Annotation annotation = obs::Annotation::none();
    switch (rng.next_u64() % 4) {
      case 0: break;
      case 1:
        annotation = obs::Annotation::item(rng.next_u64() % 100000);
        break;
      case 2: {
        std::vector<std::uint64_t> ids;
        const std::size_t n = 1 + rng.next_u64() % 8;
        for (std::size_t j = 0; j < n; ++j) {
          ids.push_back(rng.next_u64() % 65536);
        }
        annotation = obs::Annotation::enumerate(ids);
        break;
      }
      default: {
        obs::KBitmap bm(64);
        const std::size_t n = rng.next_u64() % 10;
        for (std::size_t j = 0; j < n; ++j) {
          bm.set(1 + rng.next_u64() % 64);
        }
        annotation = obs::Annotation::kenum(bm);
        break;
      }
    }
    core::PayloadPtr payload;
    switch (rng.next_u64() % 3) {
      case 0: break;
      case 1:
        payload = std::make_shared<NullPayload>(rng.next_u64() % 256);
        break;
      default:
        payload = std::make_shared<workload::ItemOp>(
            static_cast<workload::OpKind>(rng.next_u64() % 3),
            rng.next_u64() % 4096, rng.next_u64(), rng.next_u64() % 64,
            rng.next_u64() % 2 == 0);
        break;
    }
    const DataMessage m(ProcessId(static_cast<std::uint32_t>(
                            rng.next_u64() % 64)),
                        rng.next_u64() % (1ULL << 40),
                        ViewId(rng.next_u64() % 1024), annotation,
                        std::move(payload));
    expect_frame_equals_encode(m);
  }
}

TEST(SharedFrame, IsEncodedOnceAndCachedOnTheMessage) {
  const DataMessage m(ProcessId(1), 2, ViewId(0), obs::Annotation::item(5),
                      std::make_shared<NullPayload>(8));
  EXPECT_FALSE(m.frame_cached());
  const FramePtr first = Codec::shared_frame(m);
  EXPECT_TRUE(m.frame_cached());
  const FramePtr second = Codec::shared_frame(m);
  EXPECT_EQ(first.get(), second.get())
      << "repeated calls must return the same buffer, not re-encode";
}

// ---------------------------------------------------------------------------
// UDP backend: one encode per multicast, reuses for every further destination
// ---------------------------------------------------------------------------

class Recorder final : public Endpoint {
 public:
  bool on_message(ProcessId, const MessagePtr& message, Lane) override {
    received.push_back(message);
    return true;
  }
  std::vector<MessagePtr> received;
};

/// Drains the all-local shadow wire, then returns the lane counters.
UdpLaneStats settle(UdpTransport& wire) {
  const std::int64_t drain = UdpTransport::mono_us() + 10'000'000;
  while (!wire.links_idle() && UdpTransport::mono_us() < drain) {
    wire.service(1'000);
  }
  EXPECT_TRUE(wire.links_idle()) << "shadow wire failed to drain";
  return wire.lane_stats();
}

TEST(SharedFrame, UdpMulticastEncodesOncePerMessage) {
  sim::Simulator sim;
  UdpTransport wire(sim, {});
  Recorder a, b, c, d;
  wire.attach(ProcessId(0), a);
  wire.attach(ProcessId(1), b);
  wire.attach(ProcessId(2), c);
  wire.attach(ProcessId(3), d);
  const std::vector<ProcessId> all{ProcessId(0), ProcessId(1), ProcessId(2),
                                   ProcessId(3)};
  constexpr int kMessages = 25;
  for (int i = 1; i <= kMessages; ++i) {
    const auto m = std::make_shared<core::DataMessage>(
        ProcessId(0), static_cast<std::uint64_t>(i), ViewId(0),
        obs::Annotation::none(), std::make_shared<NullPayload>(16));
    wire.multicast(ProcessId(0), all, m, Lane::data);
  }
  sim.run();

  // 3 destinations per multicast (self-delivery is local): one encode, two
  // frame reuses each, and every crossing's frame reached the kernel.
  EXPECT_EQ(b.received.size(), static_cast<std::size_t>(kMessages));
  const UdpLaneStats lane = settle(wire);
  EXPECT_EQ(lane.frame_encodes, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(lane.frame_reuses, static_cast<std::uint64_t>(2 * kMessages));
  EXPECT_EQ(lane.frames_delivered, lane.frame_encodes + lane.frame_reuses);
}

TEST(SharedFrame, UdpUnicastStillEncodesPerFreshMessage) {
  sim::Simulator sim;
  UdpTransport wire(sim, {});
  Recorder a, b;
  wire.attach(ProcessId(0), a);
  wire.attach(ProcessId(1), b);
  for (int i = 1; i <= 10; ++i) {
    wire.send(ProcessId(0), ProcessId(1),
              std::make_shared<core::DataMessage>(
                  ProcessId(0), static_cast<std::uint64_t>(i), ViewId(0),
                  obs::Annotation::none(), nullptr),
              Lane::data);
  }
  sim.run();
  EXPECT_EQ(b.received.size(), 10u);
  const UdpLaneStats lane = settle(wire);
  EXPECT_EQ(lane.frame_encodes, 10u);
  EXPECT_EQ(lane.frame_reuses, 0u);
}

}  // namespace
}  // namespace svs::net
