// Wire messages of the Chandra-Toueg consensus protocol.
#pragma once

#include <cstdint>

#include "consensus/value.hpp"
#include "net/message.hpp"
#include "util/strong_id.hpp"

namespace svs::consensus {

struct InstanceIdTag {
  static constexpr const char* prefix() { return "c"; }
};

/// One consensus instance per decision (the view-change protocol uses the
/// current view's id as the instance id).
using InstanceId = util::StrongId<InstanceIdTag, std::uint64_t>;

using Round = std::uint32_t;

enum class Phase : std::uint8_t {
  estimate,  // participant -> coordinator: current estimate + timestamp
  propose,   // coordinator -> all: adopted proposal for this round
  ack,       // participant -> coordinator: proposal adopted
  nack,      // participant -> coordinator: coordinator was suspected
  decide,    // reliable broadcast of the decision
};

class ConsensusMessage final : public net::Message {
 public:
  ConsensusMessage(InstanceId instance, Round round, Phase phase,
                   ValuePtr value, Round timestamp)
      : net::Message(net::MessageType::consensus),
        instance_(instance),
        round_(round),
        phase_(phase),
        value_(std::move(value)),
        timestamp_(timestamp) {}

  [[nodiscard]] InstanceId instance() const { return instance_; }
  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] const ValuePtr& value() const { return value_; }
  [[nodiscard]] Round timestamp() const { return timestamp_; }

 private:
  InstanceId instance_;
  Round round_;
  Phase phase_;
  ValuePtr value_;
  Round timestamp_;
};

}  // namespace svs::consensus
