// Failure detector abstraction (§3.1: "an asynchronous message passing
// system model augmented with a failure detector").
//
// Consumers (the view-change protocol's t7 guard, the membership policy,
// consensus) only need the suspect predicate plus change notifications.
#pragma once

#include <functional>
#include <vector>

#include "net/types.hpp"

namespace svs::fd {

/// Unreliable failure detector interface.
///
/// Implementations are local to one process: each process owns its own
/// detector instance, as in the Chandra–Toueg model.
class FailureDetector {
 public:
  using Listener = std::function<void()>;

  FailureDetector() = default;
  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;
  virtual ~FailureDetector() = default;

  /// Does this process currently suspect `p` to have crashed?
  [[nodiscard]] virtual bool suspects(net::ProcessId p) const = 0;

  /// Invoked after every change of the suspect set.  Listeners re-evaluate
  /// their guards (e.g. Figure 1's t7 waits on "all unsuspected members
  /// answered").
  void subscribe(Listener listener);

  /// Listeners subscribed so far (a subscription is never removed, so
  /// subscribers must subscribe once, not once per use).
  [[nodiscard]] std::size_t listener_count() const {
    return listeners_.size();
  }

 protected:
  /// Derived classes call this after mutating their suspect set.
  void notify_changed();

 private:
  std::vector<Listener> listeners_;
};

}  // namespace svs::fd
