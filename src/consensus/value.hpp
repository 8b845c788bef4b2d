// Consensus values.
//
// §3.1: "A consensus protocol is assumed to be available and modeled as a
// procedure which takes as an input parameter a proposed value and returns
// a decided value."  The protocol never inspects values, so they are passed
// as immutable refcounted blobs; callers downcast to their concrete type
// (the view-change protocol proposes a (next-view, pred-view) pair, tests
// propose small integers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace svs::consensus {

/// Base for anything a protocol wants to agree on.
class ValueBase {
 public:
  ValueBase() = default;
  ValueBase(const ValueBase&) = delete;
  ValueBase& operator=(const ValueBase&) = delete;
  virtual ~ValueBase() = default;

  /// Exact encoded size of the value body; the value codec
  /// (net/codec.hpp) asserts the equality at every encode.  Kind-0 values
  /// are encoded as `wire_size()` filler bytes.
  [[nodiscard]] virtual std::size_t wire_size() const = 0;

  /// Wire-decode tag, mirroring core::Payload::payload_kind.  0 is the
  /// opaque fallback (size-preserving, not interpretable after a round
  /// trip); core::ProposalValue is the one other kind the codec knows.
  [[nodiscard]] virtual std::uint32_t value_kind() const { return 0; }
};

using ValuePtr = std::shared_ptr<const ValueBase>;

/// Size-preserving stand-in produced when a kind-0 value is decoded from
/// the wire (cf. core::OpaquePayload).
class OpaqueValue final : public ValueBase {
 public:
  explicit OpaqueValue(std::size_t encoded_size) : size_(encoded_size) {}
  [[nodiscard]] std::size_t wire_size() const override { return size_; }

 private:
  std::size_t size_;
};

}  // namespace svs::consensus
