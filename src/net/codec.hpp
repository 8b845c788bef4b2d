// Wire codec: the single authority on how messages become bytes
// (DESIGN.md §6).
//
// Every MessageType the protocol sends has exactly one encoding: a one-byte
// type tag followed by a type-specific body of LEB128 varints, annotation
// encodings (obs/annotation.hpp) and length-framed blobs.  This file is the
// only description of the format: `Message::wire_size()` runs `encode` into
// a counting util::ByteWriter, so every byte counter in NetworkStats is the
// encoder's own count, on the simulator (which never encodes) as much as on
// the UDP backend.  The stability report — covered frontiers plus purge
// debts — is one section shared by the gossip round, the DATA piggyback and
// every digest row, with one encoder and one validating decoder.
//
// Extensibility mirrors the two open points of the format:
//
//   * application payloads (core::Payload) are framed as
//     [payload_kind varint][length varint][body] and dispatched through
//     PayloadCodecRegistry — kind 0 is the size-preserving opaque fallback,
//     positive kinds (workload::ItemOp, ...) round-trip exactly;
//   * consensus values (consensus::ValueBase) are framed the same way
//     through ValueCodecRegistry (core::ProposalValue is the built-in).
//
// Decoding is hardened for untrusted bytes: truncated varints, bad tags,
// unknown kinds, length overruns and garbage suffixes all throw
// util::ContractViolation — never UB (tests/codec_test.cpp fuzzes this).
// Decode only reads the codec registries, so it is thread-safe after
// registration; register codecs before traffic flows.
#pragma once

#include <cstdint>

#include "consensus/value.hpp"
#include "core/message.hpp"
#include "net/message.hpp"
#include "util/bytes.hpp"

namespace svs::net {

/// payload_kind-keyed encode/decode registry for application payloads.
/// Plain function pointers: codecs are stateless by design.
class PayloadCodecRegistry {
 public:
  /// Must write exactly payload.wire_size() bytes (asserted by the codec).
  using Encode = void (*)(const core::Payload& payload, util::ByteWriter& w);
  /// Must consume exactly the framed length and return non-null; anything
  /// unparseable must throw util::ContractViolation.
  using Decode = core::PayloadPtr (*)(util::ByteReader& r);

  /// Registers (or replaces) the codec for `kind` (> 0; 0 is the opaque
  /// fallback).  Call before traffic flows.
  static void register_codec(std::uint32_t kind, Encode encode, Decode decode);

  [[nodiscard]] static bool registered(std::uint32_t kind);
};

/// value_kind-keyed registry for consensus values, same contract.
class ValueCodecRegistry {
 public:
  using Encode = void (*)(const consensus::ValueBase& value,
                          util::ByteWriter& w);
  using Decode = consensus::ValuePtr (*)(util::ByteReader& r);

  static void register_codec(std::uint32_t kind, Encode encode, Decode decode);

  [[nodiscard]] static bool registered(std::uint32_t kind);
};

class Codec {
 public:
  /// Appends the full encoding (tag + body) of `m` to `w`; into a counting
  /// writer this is how m.wire_size() is computed.  Throws
  /// ContractViolation for MessageType::other (test-only messages have no
  /// wire format) and, when actually encoding, for payload/value kinds
  /// without a registered codec.
  static void encode(const Message& m, util::ByteWriter& w);

  /// Convenience: `m` as a fresh byte buffer.
  [[nodiscard]] static util::Bytes encode(const Message& m);

  /// Encode-once: the message's wire frame as a refcounted immutable
  /// buffer, encoded on first call and cached on the message — every
  /// destination, retry and injected duplicate of a multicast ships the
  /// same frame (DESIGN.md §8).  Byte-identical to encode(m) (the
  /// randomized equivalence test pins this).  Same thread-confinement
  /// contract as wire_size(): only the thread owning the message may call.
  [[nodiscard]] static FramePtr shared_frame(const Message& m);

  /// Decodes one message starting at the reader's position (used for
  /// nested messages; does not require the reader to end up exhausted).
  [[nodiscard]] static MessagePtr decode(util::ByteReader& r);

  /// Decodes a whole frame; a garbage suffix (bytes left over after the
  /// message) throws ContractViolation.
  [[nodiscard]] static MessagePtr decode(const util::Bytes& frame);
};

}  // namespace svs::net
