// MUST NOT COMPILE under clang -Wthread-safety -Werror (ctest registers
// this TU with WILL_FAIL): reading base::SingleFlight's in-flight table
// without holding the table's mutex. The table is what lets one search
// answer a burst of identical queries; if it lost its GUARDED_BY, a
// waiter could race the leader's erase and this file would compile.
// The control TU reads the same table with the mutex held.

#include "base/mutex.h"
#include "base/single_flight.h"
#include "base/thread_annotations.h"

namespace vadalog {
namespace base {

struct SingleFlightPeer {
  static size_t InFlight(const SingleFlight<int, int>& flights) {
    return flights.in_flight_.size();  // violation: mutex_ not held
  }
};

}  // namespace base
}  // namespace vadalog

size_t TouchUnguardedInFlight() {
  vadalog::base::SingleFlight<int, int> flights;
  return vadalog::base::SingleFlightPeer::InFlight(flights);
}
