#include "net/dgram.hpp"

#include "util/contracts.hpp"

namespace svs::net {
namespace {

constexpr std::uint8_t kFlagWindowProbe = 0x01;
constexpr std::uint8_t kKnownFlags = kFlagWindowProbe;

void write_ack(util::ByteWriter& w, const AckBlock& ack) {
  w.u64(ack.cum);
  SVS_REQUIRE(ack.sacks.size() <= Datagram::kMaxSackRanges,
              "too many sack ranges for one datagram");
  w.u64(ack.sacks.size());
  // Delta-coded: each range starts at previous_end + gap + 1, so canonical
  // (ascending, non-adjacent) sequences are the only encodable ones.
  std::uint64_t prev_end = ack.cum;
  for (const auto& r : ack.sacks) {
    SVS_REQUIRE(r.first > prev_end + 1 && r.last >= r.first,
                "sack ranges must be ascending and non-adjacent to cum");
    w.u64(r.first - prev_end - 1);  // gap, >= 1
    w.u64(r.last - r.first + 1);    // len, >= 1
    prev_end = r.last;
  }
  w.u32(ack.window);
  w.u8(ack.window_probe ? kFlagWindowProbe : 0);
}

AckBlock read_ack(util::ByteReader& r) {
  AckBlock ack;
  ack.cum = r.u64();
  const std::uint64_t count = r.u64();
  SVS_REQUIRE(count <= Datagram::kMaxSackRanges,
              "datagram sack range count out of bounds");
  ack.sacks.reserve(static_cast<std::size_t>(count));
  std::uint64_t prev_end = ack.cum;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t gap = r.u64();
    const std::uint64_t len = r.u64();
    SVS_REQUIRE(gap >= 1 && len >= 1, "sack range gap and length must be >= 1");
    AckBlock::Range range;
    range.first = prev_end + gap + 1;
    SVS_REQUIRE(range.first > prev_end, "sack range overflow");
    range.last = range.first + len - 1;
    SVS_REQUIRE(range.last >= range.first, "sack range overflow");
    prev_end = range.last;
    ack.sacks.push_back(range);
  }
  ack.window = r.u32();
  const std::uint8_t flags = r.u8();
  SVS_REQUIRE((flags & ~kKnownFlags) == 0, "unknown datagram flag bits");
  ack.window_probe = (flags & kFlagWindowProbe) != 0;
  return ack;
}

void write_header(util::ByteWriter& w, Datagram::Kind kind) {
  w.u8(Datagram::kMagic);
  w.u8(static_cast<std::uint8_t>(kind));
}

}  // namespace

namespace {

void write_data_head(util::ByteWriter& w, std::uint32_t from, std::uint32_t to,
                     std::uint8_t lane, std::uint64_t seq,
                     const AckBlock& ack) {
  SVS_REQUIRE(seq >= 1, "link sequence numbers start at 1");
  SVS_REQUIRE(lane <= 1, "lane byte out of range");
  write_header(w, Datagram::Kind::data);
  w.u32(from);
  w.u32(to);
  w.u8(lane);
  w.u64(seq);
  write_ack(w, ack);
}

}  // namespace

util::Bytes Datagram::encode_data(std::uint32_t from, std::uint32_t to,
                                  std::uint8_t lane, std::uint64_t seq,
                                  const AckBlock& ack,
                                  const util::Bytes& frame) {
  SVS_REQUIRE(!frame.empty(), "codec frames are never empty");
  util::ByteWriter w;
  write_data_head(w, from, to, lane, seq, ack);
  w.u64(1);
  w.u64(frame.size());
  w.bytes(frame.data(), frame.size());
  return w.take();
}

util::Bytes Datagram::encode_data(std::uint32_t from, std::uint32_t to,
                                  std::uint8_t lane, std::uint64_t seq,
                                  const AckBlock& ack,
                                  std::span<const FramePtr> frames) {
  SVS_REQUIRE(frames.size() >= 1 && frames.size() <= kMaxBatchFrames,
              "batch size out of bounds");
  util::ByteWriter w;
  write_data_head(w, from, to, lane, seq, ack);
  w.u64(frames.size());
  for (const FramePtr& frame : frames) {
    SVS_REQUIRE(frame != nullptr && !frame->empty(),
                "codec frames are never empty");
    w.u64(frame->size());
    w.bytes(frame->data(), frame->size());
  }
  return w.take();
}

util::Bytes Datagram::encode_ack(std::uint32_t from, std::uint32_t to,
                                 std::uint8_t lane, const AckBlock& ack) {
  SVS_REQUIRE(lane <= 1, "lane byte out of range");
  util::ByteWriter w;
  write_header(w, Kind::ack);
  w.u32(from);
  w.u32(to);
  w.u8(lane);
  write_ack(w, ack);
  return w.take();
}

util::Bytes Datagram::encode_join(std::uint32_t id, std::uint16_t port) {
  util::ByteWriter w;
  write_header(w, Kind::join);
  w.u32(id);
  w.u32(port);
  return w.take();
}

util::Bytes Datagram::encode_roster(
    const std::vector<std::pair<std::uint32_t, std::uint16_t>>& members) {
  SVS_REQUIRE(members.size() <= kMaxRoster, "roster too large for a datagram");
  util::ByteWriter w;
  write_header(w, Kind::roster);
  w.u64(members.size());
  for (const auto& [id, port] : members) {
    w.u32(id);
    w.u32(port);
  }
  return w.take();
}

Datagram Datagram::decode(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  SVS_REQUIRE(r.u8() == kMagic, "bad datagram magic");
  const std::uint8_t kind_byte = r.u8();
  SVS_REQUIRE(kind_byte >= 1 && kind_byte <= 4, "unknown datagram kind");
  Datagram d;
  d.kind = static_cast<Kind>(kind_byte);
  switch (d.kind) {
    case Kind::data: {
      d.from = r.u32();
      d.to = r.u32();
      d.lane = r.u8();
      SVS_REQUIRE(d.lane <= 1, "datagram lane byte out of range");
      d.seq = r.u64();
      SVS_REQUIRE(d.seq >= 1, "data datagram with zero link seq");
      d.ack = read_ack(r);
      const std::uint64_t count = r.u64();
      SVS_REQUIRE(count >= 1 && count <= kMaxBatchFrames,
                  "data datagram batch count out of bounds");
      d.payloads.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t len = r.u64();
        SVS_REQUIRE(len >= 1 && len <= r.remaining(),
                    "data datagram frame length mismatch");
        const auto start = bytes.begin() +
                           static_cast<std::ptrdiff_t>(r.position());
        d.payloads.emplace_back(start,
                                start + static_cast<std::ptrdiff_t>(len));
        r.skip(static_cast<std::size_t>(len));
      }
      // The frames must fill the datagram exactly — the trailing-bytes
      // check below enforces it.
      break;
    }
    case Kind::ack: {
      d.from = r.u32();
      d.to = r.u32();
      d.lane = r.u8();
      SVS_REQUIRE(d.lane <= 1, "datagram lane byte out of range");
      d.ack = read_ack(r);
      break;
    }
    case Kind::join: {
      d.join_id = r.u32();
      const std::uint32_t port = r.u32();
      SVS_REQUIRE(port >= 1 && port <= 65535, "join port out of range");
      d.join_port = static_cast<std::uint16_t>(port);
      break;
    }
    case Kind::roster: {
      const std::uint64_t count = r.u64();
      SVS_REQUIRE(count <= kMaxRoster, "roster count out of bounds");
      d.roster.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint32_t id = r.u32();
        const std::uint32_t port = r.u32();
        SVS_REQUIRE(port >= 1 && port <= 65535, "roster port out of range");
        d.roster.emplace_back(id, static_cast<std::uint16_t>(port));
      }
      break;
    }
  }
  SVS_REQUIRE(r.exhausted(), "trailing bytes after datagram");
  return d;
}

}  // namespace svs::net
