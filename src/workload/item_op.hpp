// Application payload: one operation on one game item (§5.2).
//
// The replicated server state is "a relatively small collection of data
// items"; each round updates a few of them.  Create/destroy must be
// delivered reliably; updates convey newer values and become obsolete.
// The last operation of a round carries the commit flag terminating the
// round's batch (§4.1: "the role of the commit message can be performed by
// the last message in each update").
#pragma once

#include <cstdint>

#include "core/message.hpp"
#include "util/bytes.hpp"

namespace svs::workload {

enum class OpKind : std::uint8_t { create, update, destroy };

using ItemId = std::uint64_t;

class ItemOp final : public core::Payload {
 public:
  /// Payload::payload_kind value claimed by ItemOp.
  static constexpr std::uint32_t kPayloadKind = 1;

  ItemOp(OpKind op, ItemId item, std::uint64_t value, std::uint64_t round,
         bool commit)
      : op_(op), item_(item), value_(value), round_(round), commit_(commit) {}

  [[nodiscard]] OpKind op() const { return op_; }
  [[nodiscard]] ItemId item() const { return item_; }
  /// New item state (stands in for position/velocity/attributes).
  [[nodiscard]] std::uint64_t value() const { return value_; }
  [[nodiscard]] std::uint64_t round() const { return round_; }
  /// True if this operation terminates its round's batch.
  [[nodiscard]] bool commit() const { return commit_; }

  [[nodiscard]] std::size_t wire_size() const override {
    // Exactly what the codec writes: op/commit byte + item and
    // round varints + 8 bytes of fixed-width state (the compact fixed-point
    // item value a game server would ship).
    return 1 + util::varint_size(item_) + util::varint_size(round_) + 8;
  }

  [[nodiscard]] std::uint32_t payload_kind() const override {
    return kPayloadKind;
  }

 private:
  OpKind op_;
  ItemId item_;
  std::uint64_t value_;
  std::uint64_t round_;
  bool commit_;
};

}  // namespace svs::workload
