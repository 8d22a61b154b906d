// MUST COMPILE cleanly under clang -Wthread-safety -Wthread-safety-beta
// -Werror: the positive control for the compile-fail harness. It uses
// the same base/mutex.h vocabulary as the violation TUs — GUARDED_BY,
// REQUIRES_SHARED, ACQUIRED_BEFORE, a role capability, SingleFlight's
// in-flight table — with every access correctly locked. If this TU
// fails, the harness's failures are meaningless (the flags or the
// wrappers are broken, not the violations detected).

#include "base/mutex.h"
#include "base/single_flight.h"
#include "base/thread_annotations.h"

namespace vadalog {
namespace base {

struct SingleFlightPeer {
  static size_t InFlight(const SingleFlight<int, int>& flights) {
    MutexLock lock(&flights.mutex_);
    return flights.in_flight_.size();
  }
};

}  // namespace base
}  // namespace vadalog

namespace {

class WellLocked {
 public:
  void Bump() {
    vadalog::base::MutexLock lock(&counter_mutex_);
    ++counter_;
  }

  int ReadRow() const REQUIRES_SHARED(data_mutex_) { return row_; }

  int SnapshotOrdered() {
    vadalog::base::ReaderLock data(&data_mutex_);
    int row = ReadRow();
    vadalog::base::WriterLock cache(&cache_mutex_);
    cached_ = row;
    return row;
  }

  void LoopOnlyTouch() {
    vadalog::base::ThreadRoleGuard role(&loop_role_);
    ++loop_state_;
  }

 private:
  vadalog::base::Mutex counter_mutex_;
  int counter_ GUARDED_BY(counter_mutex_) = 0;

  mutable vadalog::base::SharedMutex data_mutex_
      ACQUIRED_BEFORE(cache_mutex_);
  vadalog::base::SharedMutex cache_mutex_;
  int row_ GUARDED_BY(data_mutex_) = 0;
  int cached_ GUARDED_BY(cache_mutex_) = 0;

  vadalog::base::ThreadRole loop_role_;
  int loop_state_ GUARDED_BY(loop_role_) = 0;
};

}  // namespace

int TouchControlWellLocked() {
  vadalog::base::SingleFlight<int, int> flights;
  if (vadalog::base::SingleFlightPeer::InFlight(flights) != 0) return -1;
  WellLocked locked;
  locked.Bump();
  locked.LoopOnlyTouch();
  return locked.SnapshotOrdered();
}
