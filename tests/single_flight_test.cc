// Tests for base::SingleFlight: concurrent callers with one key share a
// single computation, distinct keys never do, a finished flight frees its
// key, and a leader that leaves without publishing (an exception) hands
// the computation to a waiter instead of stranding it. Every test holds
// the leader until the waiters it expects have joined (waiters() is the
// latch), so the outcomes are deterministic, not timing-dependent.

#include "base/single_flight.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace vadalog {
namespace {

using Flights = base::SingleFlight<std::string, int>;

/// Blocks until `n` callers wait on `key`'s flight.
void AwaitWaiters(const Flights& flights, const std::string& key, size_t n) {
  while (flights.waiters(key) < n) std::this_thread::yield();
}

TEST(SingleFlightTest, ConcurrentCallersComputeOnce) {
  constexpr int kCallers = 8;
  Flights flights;
  std::atomic<int> computed{0};
  std::atomic<int> sum{0};
  std::latch start(kCallers);
  std::vector<std::thread> threads;
  for (int i = 0; i < kCallers; ++i) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      Flights::Call call = flights.Begin("q");
      if (call.leader()) {
        ++computed;
        // Every other caller has joined before the value exists.
        AwaitWaiters(flights, "q", kCallers - 1);
        call.Publish(42);
      }
      sum += *call.value();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computed.load(), 1);
  EXPECT_EQ(sum.load(), 42 * kCallers);
  EXPECT_EQ(flights.waiters("q"), 0u);
}

TEST(SingleFlightTest, WaitersShareTheLeadersValue) {
  Flights flights;
  Flights::Call leader = flights.Begin("q");
  ASSERT_TRUE(leader.leader());
  std::shared_ptr<const int> seen;
  std::thread waiter([&] {
    Flights::Call call = flights.Begin("q");
    EXPECT_FALSE(call.leader());
    seen = call.value();
  });
  AwaitWaiters(flights, "q", 1);
  const std::shared_ptr<const int>& published = leader.Publish(7);
  waiter.join();
  EXPECT_EQ(seen, published);  // one object, not a copy per waiter
  EXPECT_FALSE(leader.leader());
}

TEST(SingleFlightTest, PublishIfWaitedBuildsTheValueOnlyForWaiters) {
  Flights flights;
  int made = 0;
  {
    Flights::Call alone = flights.Begin("q");
    alone.PublishIfWaited([&] { return ++made; });
    EXPECT_EQ(made, 0);  // nobody joined: nothing built
    EXPECT_EQ(alone.value(), nullptr);
    EXPECT_FALSE(alone.leader());
  }
  Flights::Call leader = flights.Begin("q");  // the key was freed
  ASSERT_TRUE(leader.leader());
  int seen = 0;
  std::thread waiter([&] { seen = *flights.Begin("q").value(); });
  AwaitWaiters(flights, "q", 1);
  leader.PublishIfWaited([&] { return ++made; });
  waiter.join();
  EXPECT_EQ(made, 1);
  EXPECT_EQ(seen, 1);
}

TEST(SingleFlightTest, DistinctKeysDoNotCoalesce) {
  Flights flights;
  Flights::Call first = flights.Begin("budget=100");
  ASSERT_TRUE(first.leader());
  // A second key leads its own flight at once — it would block forever
  // here if it joined the unpublished first one.
  std::thread other([&] {
    Flights::Call second = flights.Begin("budget=200");
    EXPECT_TRUE(second.leader());
    second.Publish(2);
  });
  other.join();
  EXPECT_EQ(flights.waiters("budget=100"), 0u);
  first.Publish(1);
  EXPECT_EQ(*first.value(), 1);
}

TEST(SingleFlightTest, CallAfterCompletionComputesAgain) {
  Flights flights;
  {
    Flights::Call call = flights.Begin("q");
    ASSERT_TRUE(call.leader());
    call.Publish(1);
  }
  Flights::Call again = flights.Begin("q");
  EXPECT_TRUE(again.leader());
  EXPECT_EQ(again.value(), nullptr);
  again.Publish(2);
  EXPECT_EQ(*again.value(), 2);
}

TEST(SingleFlightTest, UnpublishedLeaderFreesTheKey) {
  Flights flights;
  { Flights::Call call = flights.Begin("q"); }  // early return, no value
  Flights::Call next = flights.Begin("q");
  EXPECT_TRUE(next.leader());
}

TEST(SingleFlightTest, ThrowingLeaderHandsOverWithoutHanging) {
  constexpr int kWaiters = 6;
  Flights flights;
  std::atomic<int> takeovers{0};
  std::atomic<int> sum{0};
  std::atomic<bool> threw{false};
  std::latch leading(1);
  std::thread leader([&] {
    try {
      Flights::Call call = flights.Begin("q");
      leading.count_down();
      AwaitWaiters(flights, "q", kWaiters);
      throw std::runtime_error("search failed");
    } catch (const std::runtime_error&) {
      threw = true;
    }
  });
  leading.wait();  // the flight exists, so every waiter below joins it
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      // The abandoned flight wakes every waiter; each either takes over
      // as the new leader or receives a taker's value.
      Flights::Call call = flights.Begin("q");
      if (call.leader()) {
        ++takeovers;
        call.Publish(5);
      }
      sum += *call.value();
    });
  }
  leader.join();
  for (std::thread& t : waiters) t.join();
  EXPECT_TRUE(threw.load());
  EXPECT_GE(takeovers.load(), 1);
  EXPECT_EQ(sum.load(), 5 * kWaiters);
  EXPECT_EQ(flights.waiters("q"), 0u);
}

}  // namespace
}  // namespace vadalog
