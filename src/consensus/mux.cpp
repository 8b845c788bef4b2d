#include "consensus/mux.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace svs::consensus {

/// Marks a Mux call on the stack; the outermost one destroys the instances
/// closed meanwhile, once nothing of theirs can still be running.
class Mux::CallScope {
 public:
  explicit CallScope(Mux& mux) : mux_(mux) { ++mux_.depth_; }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;
  ~CallScope() {
    if (--mux_.depth_ == 0) mux_.closed_.clear();
  }

 private:
  Mux& mux_;
};

void Mux::open(InstanceId id, std::vector<net::ProcessId> participants,
               Instance::DecideCallback on_decide) {
  SVS_REQUIRE(id >= closed_below_, "instance already closed");
  SVS_REQUIRE(!instances_.contains(id), "instance already open");
  if (!subscribed_) {
    // One subscription for every instance this Mux will hold.  Taken at
    // the first open rather than at construction so the forwarded
    // transitions reach instances after the listeners the owner registered
    // while it was being wired (the node's t7 guard, the membership
    // policy).
    subscribed_ = true;
    fd_.subscribe([this] { on_suspicion_change(); });
  }
  const CallScope scope(*this);
  auto instance = std::make_unique<Instance>(
      net_, fd_, self_, std::move(participants), id, std::move(on_decide));
  Instance& ref = *instance;
  instances_.emplace(id, std::move(instance));

  const auto parked = buffered_.find(id);
  if (parked == buffered_.end()) return;
  const std::deque<Buffered> replay = std::move(parked->second);
  buffered_.erase(parked);
  // Replay in arrival order; the instance is not yet proposed-to, so these
  // populate its tallies — unless a buffered decision decides it and the
  // decide callback closes it.
  for (const auto& b : replay) {
    if (id < closed_below_) break;
    ref.on_message(b.from, *b.message);
  }
}

void Mux::propose(InstanceId id, ValuePtr value) {
  const CallScope scope(*this);
  Instance* instance = find(id);
  SVS_REQUIRE(instance != nullptr, "proposal to an instance that is not open");
  instance->propose(std::move(value));
}

bool Mux::on_message(net::ProcessId from, const net::MessagePtr& message) {
  if (message->type() != net::MessageType::consensus) return false;
  const auto consensus_message =
      std::static_pointer_cast<const ConsensusMessage>(message);

  const InstanceId id = consensus_message->instance();
  if (id < closed_below_) return true;  // decided and closed here
  const auto it = instances_.find(id);
  if (it != instances_.end()) {
    const CallScope scope(*this);
    it->second->on_message(from, *consensus_message);
  } else {
    buffered_[id].push_back(Buffered{from, consensus_message});
  }
  return true;
}

void Mux::close_below(InstanceId id) {
  if (id <= closed_below_) return;
  closed_below_ = id;
  const auto end = instances_.lower_bound(id);
  for (auto it = instances_.begin(); it != end; ++it) {
    SVS_ASSERT(it->second->decided(), "closing an undecided instance");
    closed_.push_back(std::move(it->second));
  }
  instances_.erase(instances_.begin(), end);
  buffered_.erase(buffered_.begin(), buffered_.lower_bound(id));
  if (depth_ == 0) closed_.clear();
}

Instance* Mux::find(InstanceId id) {
  const auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : it->second.get();
}

void Mux::on_suspicion_change() {
  const CallScope scope(*this);
  // The instances open when the transition happened, as a detector
  // listener of their own would have seen it: one that decides may close
  // itself and open the next before this loop moves on.
  std::vector<InstanceId> open;
  open.reserve(instances_.size());
  for (const auto& [id, instance] : instances_) open.push_back(id);
  for (const InstanceId id : open) {
    if (Instance* instance = find(id)) instance->on_suspicion_change();
  }
}

}  // namespace svs::consensus
