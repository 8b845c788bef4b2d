#include "core/stability_ledger.hpp"

#include <algorithm>
#include <iterator>

#include "util/bytes.hpp"
#include "util/contracts.hpp"

namespace svs::core {

// ---------------------------------------------------------------------------
// reception record
// ---------------------------------------------------------------------------

void StabilityLedger::record_reception(Channel& channel, std::uint64_t seq) {
  if (!channel.any_received) {
    channel.any_received = true;
    channel.base = channel.floor = channel.high = seq;
    return;
  }
  channel.high = std::max(channel.high, seq);
  if (seq == channel.floor + 1) {
    // Contiguous extension; absorb any sparse entries it now connects.
    ++channel.floor;
    auto next = channel.sparse.begin();
    while (next != channel.sparse.end() && *next == channel.floor + 1) {
      ++channel.floor;
      next = channel.sparse.erase(next);
    }
  } else if (seq > channel.floor + 1) {
    channel.sparse.insert(seq);  // received across a gap (or ahead)
  } else if (seq + 1 == channel.base) {
    // A flush-in just below the base (the view's first arrivals were purged
    // out of the channel): extend downwards.
    --channel.base;
  } else if (seq < channel.base) {
    channel.sparse.insert(seq);  // below-base reception with a further gap
  }
  // seq within [base, floor] or already sparse: duplicate note, no-op.
}

void StabilityLedger::note_seen(net::ProcessId sender, std::uint64_t seq) {
  Channel& channel = channels_[sender];
  record_reception(channel, seq);
  advance_frontier(sender, channel);
}

bool StabilityLedger::received(net::ProcessId sender,
                               std::uint64_t seq) const {
  const auto it = channels_.find(sender);
  return it != channels_.end() && it->second.has(seq);
}

std::optional<std::uint64_t> StabilityLedger::high_water(
    net::ProcessId sender) const {
  const auto it = channels_.find(sender);
  if (it == channels_.end() || !it->second.any_received) return std::nullopt;
  return it->second.high;
}

// ---------------------------------------------------------------------------
// purge-debt ledger
// ---------------------------------------------------------------------------

bool StabilityLedger::set_anchor(net::ProcessId sender, std::uint64_t anchor) {
  Channel& channel = channels_[sender];
  if (channel.anchor.has_value()) {
    SVS_ASSERT(*channel.anchor == anchor,
               "a channel's per-view anchor never moves");
    return false;
  }
  channel.anchor = anchor;
  channel.explained = anchor;
  ++reportable_;
  // The entry becomes reportable now even if the frontier never moves past
  // the anchor; advance_frontier then only adjusts the frontier's varint.
  changed_.insert(sender);
  entry_wire_bytes_ += frontier_entry_wire_size(sender, channel.explained);
  dirty_ = true;
  advance_frontier(sender, channel);
  return true;
}

bool StabilityLedger::record_own_debt(std::uint64_t seq,
                                      std::uint64_t cover_seq) {
  SVS_REQUIRE(cover_seq > seq,
              "a purge debt's cover is the fresh multicast, strictly newer");
  const auto [it, inserted] = own_debts_.try_emplace(seq, cover_seq);
  if (!inserted) {
    SVS_ASSERT(it->second == cover_seq,
               "a seq is purged at most once, by exactly one cover");
    return false;
  }
  own_debts_unshipped_.insert(seq);
  own_debt_wire_bytes_ += purge_debt_wire_size(PurgeDebt{seq, cover_seq});
  dirty_ = true;
  return true;
}

bool StabilityLedger::merge_debts(net::ProcessId sender,
                                  const StabilityReport::Debts& debts) {
  if (debts.empty()) return false;
  Channel& channel = channels_[sender];
  bool news = false;
  for (const auto& debt : debts) {
    if (debt.seq <= channel.explained && channel.anchor.has_value()) {
      continue;  // already explained (and its ledger entry pruned)
    }
    const auto [it, inserted] =
        channel.debts.try_emplace(debt.seq, debt.cover_seq);
    if (inserted) {
      ++merged_debt_count_;
      news = true;
    } else {
      SVS_ASSERT(it->second == debt.cover_seq,
                 "conflicting covers announced for one purged seq");
    }
  }
  advance_frontier(sender, channel);
  return news;
}

bool StabilityLedger::obligation_met(net::ProcessId sender,
                                     std::uint64_t seq) const {
  const auto it = channels_.find(sender);
  if (it == channels_.end()) return false;
  const Channel& channel = it->second;
  if (channel.has(seq)) return true;
  if (channel.anchor.has_value() && seq <= channel.explained) return true;
  return channel.chain_cover_received(seq);
}

std::optional<std::uint64_t> StabilityLedger::frontier(
    net::ProcessId sender) const {
  const auto it = channels_.find(sender);
  if (it == channels_.end() || !it->second.anchor.has_value()) {
    return std::nullopt;
  }
  return it->second.explained;
}

void StabilityLedger::advance_frontier(net::ProcessId sender,
                                       Channel& channel) {
  if (!channel.anchor.has_value()) return;
  const std::uint64_t before = channel.explained;
  for (;;) {
    const std::uint64_t next = channel.explained + 1;
    if (channel.any_received && next >= channel.base &&
        next <= channel.floor) {
      // Inside the contiguous received run: the whole run explains itself
      // in one hop — this is the entire loop for gap-free channels (the
      // flood hot path).
      channel.explained = channel.floor;
      continue;
    }
    if (channel.has(next)) {
      ++channel.explained;
      continue;
    }
    // A gap is explained only when its debt chain reaches a message this
    // node actually received — "purged with live cover".
    if (channel.chain_cover_received(next)) {
      ++channel.explained;
      continue;
    }
    break;
  }
  if (channel.explained == before) return;
  // Merged debts at or below the frontier can never matter here again
  // (obligation_met answers from the frontier first).
  if (!channel.debts.empty()) {
    const auto stale = channel.debts.upper_bound(channel.explained);
    merged_debt_count_ -= static_cast<std::size_t>(
        std::distance(channel.debts.begin(), stale));
    channel.debts.erase(channel.debts.begin(), stale);
  }
  changed_.insert(sender);
  entry_wire_bytes_ +=
      util::varint_size(channel.explained) - util::varint_size(before);
  dirty_ = true;
}

// ---------------------------------------------------------------------------
// gossip
// ---------------------------------------------------------------------------

StabilityReport::Seen StabilityLedger::snapshot() const {
  StabilityReport::Seen out;
  out.reserve(reportable_);
  for (const auto& [sender, channel] : channels_) {
    if (channel.anchor.has_value()) {
      out.emplace_back(sender, channel.explained);
    }
  }
  return out;
}

StabilityReport StabilityLedger::take_snapshot() {
  StabilityReport report;
  report.seen = snapshot();
  report.debts.reserve(own_debts_.size());
  for (const auto& [seq, cover] : own_debts_) {
    report.debts.push_back(PurgeDebt{seq, cover});
  }
  changed_.clear();
  own_debts_unshipped_.clear();
  dirty_ = false;
  return report;
}

StabilityReport StabilityLedger::take_delta() {
  StabilityReport report;
  report.seen.reserve(changed_.size());
  for (const auto sender : changed_) {
    report.seen.emplace_back(sender, channels_.at(sender).explained);
  }
  report.debts.reserve(own_debts_unshipped_.size());
  for (const auto seq : own_debts_unshipped_) {
    report.debts.push_back(PurgeDebt{seq, own_debts_.at(seq)});
  }
  changed_.clear();
  own_debts_unshipped_.clear();
  dirty_ = false;
  return report;
}

bool StabilityLedger::merge_report(net::ProcessId from,
                                   const StabilityReport::Seen& seen) {
  auto& vector = peer_seen_[from];
  bool news = false;
  for (const auto& [sender, seq] : seen) {
    auto& high = vector[sender];
    if (seq > high) {
      high = seq;
      news = true;
    }
  }
  return news;
}

std::uint64_t StabilityLedger::floor_of(net::ProcessId sender,
                                        const View& view,
                                        net::ProcessId self) const {
  const auto own = channels_.find(sender);
  std::uint64_t floor =
      own == channels_.end() || !own->second.anchor.has_value()
          ? 0
          : own->second.explained;
  for (const auto p : view.members()) {
    if (p == self) continue;
    const auto vec = peer_seen_.find(p);
    if (vec == peer_seen_.end()) return 0;
    const auto it = vec->second.find(sender);
    const std::uint64_t reported = it == vec->second.end() ? 0 : it->second;
    floor = std::min(floor, reported);
  }
  return floor;
}

std::size_t StabilityLedger::collect_debts(const View& view,
                                           net::ProcessId self) {
  // O(1) fast-out: with no debts anywhere — every run without sender-side
  // purging pressure, including the flood hot path — this costs nothing.
  if (own_debts_.empty() && merged_debt_count_ == 0) return 0;
  std::size_t collected = 0;
  // Own debts: once every member's reported frontier for this node's
  // channel passed q, no one can still need q explained (frontiers are
  // monotone), so the debt — and its gossip bytes — retire.
  if (!own_debts_.empty()) {
    const std::uint64_t floor = floor_of(self, view, self);
    auto it = own_debts_.begin();
    while (it != own_debts_.end() && it->first <= floor) {
      own_debt_wire_bytes_ -=
          purge_debt_wire_size(PurgeDebt{it->first, it->second});
      own_debts_unshipped_.erase(it->first);
      it = own_debts_.erase(it);
      ++collected;
    }
  }
  // Merged debts prune as the local frontier passes them (advance_frontier
  // already does this on every move; this sweep only matters for channels
  // whose frontier last moved before their debts arrived).
  if (merged_debt_count_ != 0) {
    for (auto& [sender, channel] : channels_) {
      if (!channel.anchor.has_value() || channel.debts.empty()) continue;
      const auto stale = channel.debts.upper_bound(channel.explained);
      merged_debt_count_ -= static_cast<std::size_t>(
          std::distance(channel.debts.begin(), stale));
      channel.debts.erase(channel.debts.begin(), stale);
    }
  }
  return collected;
}

void StabilityLedger::reset() {
  channels_.clear();
  merged_debt_count_ = 0;
  peer_seen_.clear();
  changed_.clear();
  reportable_ = 0;
  own_debts_.clear();
  own_debts_unshipped_.clear();
  own_debt_wire_bytes_ = 0;
  entry_wire_bytes_ = 0;
  dirty_ = false;
}

}  // namespace svs::core
