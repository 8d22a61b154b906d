// Tests for the persistent worker pool: fire-and-forget submission and
// the drain-on-shutdown contract.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "server/worker_pool.h"

namespace vadalog {
namespace {

TEST(WorkerPoolTest, SubmitRunsTasks) {
  WorkerPool pool(4);
  std::atomic<int> counter{0};
  std::mutex mutex;
  std::condition_variable cv;
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (counter.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mutex);
        cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return counter.load() == kTasks; });
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(WorkerPoolTest, ShutdownRunsQueuedTasks) {
  WorkerPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.Submit([&] { counter.fetch_add(1); });
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 50);
  EXPECT_EQ(pool.num_threads(), 0u);
}

}  // namespace
}  // namespace vadalog
