// Replicated server state: the "relatively small collection of data items"
// of §1, applied batch-atomically per §4.1.
//
// Operations accumulate in a pending buffer; when a commit-flagged
// operation arrives (FIFO order guarantees its whole batch precedes it) the
// buffer is applied atomically.  Purging interacts with batches safely:
//
//   * surviving operations of a batch whose commit was purged are merged
//     into the next applied batch — the super-set rule (§4.1) guarantees
//     that batch re-updates every affected item, and FIFO order means the
//     newer values win, so the post-apply state is correct;
//   * intermediate states on a slow replica may skip detail (that is the
//     point of SVS), but at every view installation all members that
//     install both views converge — digest() is compared for exactly that.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/message.hpp"
#include "workload/item_op.hpp"

namespace svs::app {

class ItemTable {
 public:
  struct Item {
    std::uint64_t value = 0;
    std::uint64_t updated_round = 0;
  };

  /// Feeds one delivery (data or view) into the table.
  void apply(const core::Delivery& delivery);

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] std::optional<Item> get(workload::ItemId id) const;

  /// Order-independent digest of the full state, for convergence checks:
  /// the wrapping sum over items of a full-avalanche mix of (id, value),
  /// kept up to date by every applied operation, so reading it is O(1).
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  /// Digest recorded right before each view was installed, keyed by the
  /// *new* view id — the paper's consistency claim is that these agree
  /// across members (§4: "all group members have the same state when a new
  /// view is installed").
  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>&
  digests_at_install() const {
    return digests_at_install_;
  }

  [[nodiscard]] std::uint64_t batches_applied() const {
    return batches_applied_;
  }
  [[nodiscard]] std::uint64_t ops_applied() const { return ops_applied_; }
  [[nodiscard]] std::size_t pending_ops() const { return pending_.size(); }

 private:
  void apply_op(const workload::ItemOp& op);

  std::map<workload::ItemId, Item> items_;
  std::uint64_t digest_ = 0;  // sum of item_term over items_
  std::vector<std::shared_ptr<const workload::ItemOp>> pending_;
  std::map<std::uint64_t, std::uint64_t> digests_at_install_;
  std::uint64_t batches_applied_ = 0;
  std::uint64_t ops_applied_ = 0;
};

}  // namespace svs::app
