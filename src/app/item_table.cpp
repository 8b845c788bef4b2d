#include "app/item_table.hpp"

#include "sim/random.hpp"
#include "util/contracts.hpp"

namespace svs::app {
namespace {

/// One item's share of the digest: a full-avalanche mix of (id, value), so
/// the terms of different states do not cancel out in the sum.
std::uint64_t item_term(workload::ItemId id, std::uint64_t value) {
  std::uint64_t state = id;
  state = sim::splitmix64(state) ^ value;
  return sim::splitmix64(state);
}

}  // namespace

void ItemTable::apply(const core::Delivery& delivery) {
  if (const auto* data = std::get_if<core::DataDelivery>(&delivery)) {
    const auto& payload = data->message->payload();
    SVS_REQUIRE(payload != nullptr &&
                    payload->payload_kind() == workload::ItemOp::kPayloadKind,
                "ItemTable expects ItemOp payloads");
    const auto op =
        std::static_pointer_cast<const workload::ItemOp>(payload);
    pending_.push_back(op);
    if (op->commit()) {
      for (const auto& p : pending_) apply_op(*p);
      ops_applied_ += pending_.size();
      pending_.clear();
      ++batches_applied_;
    }
    return;
  }
  if (const auto* view = std::get_if<core::ViewDelivery>(&delivery)) {
    // State as of the installation of the new view.  Pending (uncommitted)
    // operations are not part of the state; they were delivered, so the
    // rest of the batch is agreed to follow in the new view's flush —
    // however the protocol flushes *before* the view notification, so by
    // construction any pending tail here is a batch cut by a crashed
    // sender, which every surviving member cut identically.
    digests_at_install_[view->view.id().value()] = digest();
    return;
  }
  // Exclusion: nothing to update; the replica simply stops participating.
}

void ItemTable::apply_op(const workload::ItemOp& op) {
  switch (op.op()) {
    case workload::OpKind::create:
      SVS_REQUIRE(!items_.contains(op.item()), "create of an existing item");
      items_.emplace(op.item(), Item{op.value(), op.round()});
      digest_ += item_term(op.item(), op.value());
      break;
    case workload::OpKind::update: {
      // Upsert: persistent world items exist implicitly from the start
      // (only transients are created explicitly).  Transient updates always
      // find their item: creates are never obsolete and FIFO order places
      // them first.
      const auto [it, inserted] = items_.try_emplace(op.item());
      if (!inserted) digest_ -= item_term(op.item(), it->second.value);
      it->second = Item{op.value(), op.round()};
      digest_ += item_term(op.item(), op.value());
      break;
    }
    case workload::OpKind::destroy:
      // Tolerates an absent item: every earlier write of it may have been
      // purged as obsolete (covered by this very batch's commit), in which
      // case a slow replica destroys something it never materialised.
      if (const auto it = items_.find(op.item()); it != items_.end()) {
        digest_ -= item_term(op.item(), it->second.value);
        items_.erase(it);
      }
      break;
  }
}

std::optional<ItemTable::Item> ItemTable::get(workload::ItemId id) const {
  const auto it = items_.find(id);
  if (it == items_.end()) return std::nullopt;
  return it->second;
}

}  // namespace svs::app
