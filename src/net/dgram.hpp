// Datagram framing for the UDP transport's reliable-delivery lane
// (DESIGN.md §9).
//
// One UDP datagram carries exactly one Datagram.  The format sits *below*
// net::Codec: a data datagram's payload is an opaque codec frame (the
// refcounted Codec::shared_frame buffer), wrapped in the link-lane
// header that makes the datagram channel reliable — a per-(link, lane)
// sequence number plus a piggybacked acknowledgement block.
//
//   byte 0   magic 0xD6
//   byte 1   kind            data=1  ack=2  join=3  roster=4
//   data:    from, to (varint raw ProcessIds), lane u8, seq (varint, >= 1),
//            AckBlock, frame_count (varint, 1..kMaxBatchFrames), then per
//            frame len (varint, >= 1) + frame bytes; the frames must fill
//            the datagram exactly
//   ack:     from, to, lane u8, AckBlock
//   join:    id (varint), port (varint, <= 65535)
//   roster:  count (varint, <= kMaxRoster), then per member id + port
//
// A data datagram carries a *batch* of codec frames under ONE link
// sequence number: the per-destination batcher (udp_transport.hpp)
// coalesces small frames bound for the same (peer, lane) into one datagram
// under the MTU, and the reliable lane stages, retransmits and acks the
// batch as a unit — so header and syscall cost amortize across the batch
// while the link-order delivery contract is untouched (frames inside a
// batch are in send order; batches are in link-seq order).
//
// The AckBlock always describes the link flowing in the OPPOSITE direction
// of the datagram that carries it (the receiver's view of sender->receiver
// traffic): cumulative frontier, up to kMaxSackRanges delta-coded selective
// ranges strictly above it, the advertised receive window, and the
// zero-window probe flag.
//
//   cum (varint), sack_count (varint), per range gap + len (varints, both
//   >= 1; range starts at previous_end + gap + 1), window (varint),
//   flags u8 (bit 0: window probe; every other bit must be clear)
//
// Decoding is hardened for untrusted bytes exactly like net::Codec
// (tests/codec_test.cpp fuzzes it): bad magic, unknown kinds or flag bits,
// zero seqs, out-of-bound ports and counts, non-canonical sack ranges,
// payload length mismatches and trailing garbage all throw
// util::ContractViolation — a hostile datagram can be dropped, never
// corrupt link state.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/types.hpp"
#include "util/bytes.hpp"

namespace svs::net {

/// Acknowledgement state piggybacked on (or sent as) a datagram.
struct AckBlock {
  struct Range {
    std::uint64_t first = 0;
    std::uint64_t last = 0;  // inclusive
  };

  /// Every seq <= cum has been received.
  std::uint64_t cum = 0;
  /// Received runs strictly above cum + 1, ascending and non-adjacent.
  std::vector<Range> sacks;
  /// Receive window the peer may keep in flight (0 = stalled; the sender
  /// probes until it reopens).
  std::uint32_t window = 0;
  /// Zero-window probe: "reply with your current ack state".
  bool window_probe = false;
};

/// One decoded UDP datagram.  Kind-specific fields are zero/empty for the
/// other kinds.
struct Datagram {
  enum class Kind : std::uint8_t {
    data = 1,    // reliable-lane frame + piggybacked ack
    ack = 2,     // pure acknowledgement / window update / probe
    join = 3,    // pre-protocol: "process `id` listens on `port`"
    roster = 4,  // pre-protocol: the introducer's full membership list
  };

  static constexpr std::uint8_t kMagic = 0xD6;
  static constexpr std::size_t kMaxSackRanges = 64;
  static constexpr std::size_t kMaxRoster = 1024;
  /// Max codec frames one data datagram may batch.
  static constexpr std::size_t kMaxBatchFrames = 64;

  Kind kind = Kind::data;
  std::uint32_t from = 0;  // raw ProcessId values (data / ack)
  std::uint32_t to = 0;
  std::uint8_t lane = 0;  // net::Lane as a byte (data / ack)
  std::uint64_t seq = 0;  // link sequence number (data; >= 1)
  AckBlock ack;           // data / ack
  std::vector<util::Bytes> payloads;  // data: >= 1 net::Codec frames
  std::uint32_t join_id = 0;    // join
  std::uint16_t join_port = 0;  // join
  std::vector<std::pair<std::uint32_t, std::uint16_t>> roster;  // roster

  /// Single-frame convenience (a batch of one).
  [[nodiscard]] static util::Bytes encode_data(std::uint32_t from,
                                               std::uint32_t to,
                                               std::uint8_t lane,
                                               std::uint64_t seq,
                                               const AckBlock& ack,
                                               const util::Bytes& frame);
  /// Batch form: all frames ride under the one link seq.
  [[nodiscard]] static util::Bytes encode_data(
      std::uint32_t from, std::uint32_t to, std::uint8_t lane,
      std::uint64_t seq, const AckBlock& ack,
      std::span<const FramePtr> frames);
  [[nodiscard]] static util::Bytes encode_ack(std::uint32_t from,
                                              std::uint32_t to,
                                              std::uint8_t lane,
                                              const AckBlock& ack);
  [[nodiscard]] static util::Bytes encode_join(std::uint32_t id,
                                               std::uint16_t port);
  [[nodiscard]] static util::Bytes encode_roster(
      const std::vector<std::pair<std::uint32_t, std::uint16_t>>& members);

  /// Decodes one datagram; requires full consumption of `bytes`.  Throws
  /// util::ContractViolation on any malformation.  The span overload is
  /// the hot path: the UDP receive side decodes straight out of its ring
  /// buffers without copying into a Bytes first.
  [[nodiscard]] static Datagram decode(std::span<const std::uint8_t> bytes);
  [[nodiscard]] static Datagram decode(const util::Bytes& bytes) {
    return decode(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  }
};

}  // namespace svs::net
