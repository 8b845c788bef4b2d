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
// every relayed row, with one encoder and one validating decoder.
//
// Payloads and consensus values are length-framed blobs,
// [kind varint][length varint][body], of a closed set of kinds:
//
//   * kind 0 is opaque filler — `wire_size()` zero bytes that decode to a
//     size-preserving stand-in (core::OpaquePayload, consensus::OpaqueValue);
//   * workload::ItemOp is the one interpretable payload kind and
//     core::ProposalValue the one interpretable value kind; both round-trip
//     field by field.
//
// Any other kind throws util::ContractViolation, on encode and on decode.
//
// Decoding is hardened for untrusted bytes: truncated varints, bad tags,
// unknown kinds, length overruns and garbage suffixes all throw
// util::ContractViolation — never UB (tests/codec_test.cpp fuzzes this).
// The codec holds no state, so any thread may encode or decode.
#pragma once

#include <cstdint>

#include "core/message.hpp"
#include "net/message.hpp"
#include "util/bytes.hpp"

namespace svs::net {

class Codec {
 public:
  /// Appends the full encoding (tag + body) of `m` to `w`; into a counting
  /// writer this is how m.wire_size() is computed.  Throws
  /// ContractViolation for MessageType::other (test-only messages have no
  /// wire format) and, when actually encoding, for payload/value kinds
  /// other than opaque (0) and the built-in ones.
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
