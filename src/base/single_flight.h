// Single-flight: concurrent identical computations collapse into one.
//
// The first caller of Begin(key) becomes the key's *leader* and computes;
// every caller that arrives with an equal key while the leader is still
// computing blocks and receives the leader's published value instead of
// computing it again. The table holds only flights in progress: once the
// leader publishes, the key is free and the next Begin computes afresh
// (keeping finished results is the caller's business — a cache, a memo).
//
// A leader that leaves without publishing (an exception unwinding through
// it, an early return) abandons the flight when its Call handle is
// destroyed: the waiters wake, the first of them back in the table takes
// over as the new leader, and the rest wait on it. No waiter ever blocks
// on a computation nobody is running.
//
// The API is a handle (Begin, then Publish) rather than a callback, so a
// caller holding annotated locks — a session's shared data lock —
// computes in its own scope, where the thread-safety analysis still sees
// those locks; a lambda body is analyzed as holding nothing.
//
// Waiters block on a base::CondVar, each flight on its own, under the
// table's one mutex; the table is GUARDED_BY that mutex.

#ifndef VADALOG_BASE_SINGLE_FLIGHT_H_
#define VADALOG_BASE_SINGLE_FLIGHT_H_

#include <cstddef>
#include <map>
#include <memory>
#include <utility>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace vadalog {
namespace base {

/// `Key` must be ordered by operator<; `Value` must be movable.
template <typename Key, typename Value>
class SingleFlight {
  /// One computation in progress. Its fields are touched only under the
  /// owning table's mutex_ (a nested type cannot name that capability in
  /// GUARDED_BY); waiters keep it alive after the table drops it.
  struct Flight {
    std::shared_ptr<const Value> value;  // null when abandoned
    bool done = false;                   // published or abandoned
    size_t waiters = 0;                  // callers that joined to wait
    CondVar cv;
  };
  using Table = std::map<Key, std::shared_ptr<Flight>>;

 public:
  /// The handle Begin returns: a leader (must compute, then Publish) or
  /// a waiter (value() already holds the leader's result).
  class Call {
   public:
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

    /// A leader that never published abandons its flight here.
    ~Call() {
      if (owner_ != nullptr) owner_->Finish(slot_, nullptr);
    }

    bool leader() const { return owner_ != nullptr; }

    /// A waiter's result, or a leader's after Publish (null before).
    const std::shared_ptr<const Value>& value() const { return value_; }

    /// Leader only, at most once: hands `value` to every waiter, frees
    /// the key, and returns the shared copy.
    const std::shared_ptr<const Value>& Publish(Value value) {
      value_ = std::make_shared<const Value>(std::move(value));
      std::exchange(owner_, nullptr)->Finish(slot_, value_);
      return value_;
    }

    /// Publish for a leader that keeps its own result: builds the shared
    /// value with `make()` only when a waiter has joined, and otherwise
    /// just frees the key (value() then stays null). A throwing `make`
    /// leaves the flight to the destructor, which abandons it.
    template <typename Make>
    void PublishIfWaited(Make make) {
      if (owner_->FreeUnlessWaited(slot_)) {
        owner_ = nullptr;
      } else {
        Publish(make());
      }
    }

   private:
    friend class SingleFlight;
    Call(SingleFlight* owner, typename Table::iterator slot)
        : owner_(owner), slot_(slot) {}
    explicit Call(std::shared_ptr<const Value> value)
        : value_(std::move(value)) {}

    SingleFlight* owner_ = nullptr;  // non-null while leading
    /// The leader's table entry; only the leader's Finish erases it, so
    /// it stays valid while owner_ is set.
    typename Table::iterator slot_{};
    std::shared_ptr<const Value> value_;
  };

  SingleFlight() = default;
  SingleFlight(const SingleFlight&) = delete;
  SingleFlight& operator=(const SingleFlight&) = delete;

  /// Leads `key`'s flight if none is in progress; otherwise blocks until
  /// its leader publishes (returning a waiter holding the value) or
  /// abandons (retrying, possibly as the new leader).
  Call Begin(const Key& key) EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    while (true) {
      auto slot = in_flight_.find(key);
      if (slot == in_flight_.end()) {
        slot = in_flight_.emplace(key, std::make_shared<Flight>()).first;
        return Call(this, slot);
      }
      std::shared_ptr<Flight> flight = slot->second;
      ++flight->waiters;
      while (!flight->done) flight->cv.Wait(mutex_);
      if (flight->value != nullptr) return Call(flight->value);
    }
  }

  /// Callers blocked on `key`'s flight in progress (0 when none is).
  size_t waiters(const Key& key) const EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    auto slot = in_flight_.find(key);
    return slot == in_flight_.end() ? 0 : slot->second->waiters;
  }

 private:
  /// Grants the tests/thread_safety cases access to the table.
  friend struct SingleFlightPeer;

  void Finish(typename Table::iterator slot,
              std::shared_ptr<const Value> value) EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    Flight& flight = *slot->second;
    flight.value = std::move(value);
    flight.done = true;
    flight.cv.NotifyAll();
    in_flight_.erase(slot);
  }

  /// Erases an unwaited flight (nobody else holds it) and returns true;
  /// with waiters the flight stays for the leader to publish.
  bool FreeUnlessWaited(typename Table::iterator slot) EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    if (slot->second->waiters != 0) return false;
    in_flight_.erase(slot);
    return true;
  }

  mutable Mutex mutex_;
  Table in_flight_ GUARDED_BY(mutex_);
};

}  // namespace base
}  // namespace vadalog

#endif  // VADALOG_BASE_SINGLE_FLIGHT_H_
