// BoundedQueue: ticket assignment, backpressure (shed vs. wait), the
// group-commit gather (linger/max_items), close semantics, and a
// multi-producer stress run checking that every ticket is delivered
// exactly once and in order.

#include "util/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace trass {
namespace {

TEST(BoundedQueueTest, TicketsAreSequentialFromOne) {
  BoundedQueue<int> q(8);
  for (uint64_t i = 1; i <= 5; ++i) {
    uint64_t ticket = 0;
    ASSERT_TRUE(q.Push(static_cast<int>(i), 0, &ticket).ok());
    EXPECT_EQ(ticket, i);
  }
  EXPECT_EQ(q.accepted(), 5u);
  EXPECT_EQ(q.depth(), 5u);
  EXPECT_EQ(q.high_water(), 5u);
}

TEST(BoundedQueueTest, FullQueueShedsImmediatelyWithZeroWait) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.Push(1, 0).ok());
  ASSERT_TRUE(q.Push(2, 0).ok());
  const Status s = q.Push(3, 0);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_EQ(q.accepted(), 2u);  // sheds consume no tickets
}

TEST(BoundedQueueTest, WaitingPushSucceedsWhenConsumerDrains) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1, 0).ok());
  std::thread consumer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<int> out;
    q.PopBatch(&out, 1, 0.0);
  });
  uint64_t ticket = 0;
  const Status s = q.Push(2, /*max_wait_ms=*/5000, &ticket);
  consumer.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(ticket, 2u);
}

TEST(BoundedQueueTest, WaitingPushShedsWhenNobodyDrains) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1, 0).ok());
  const Status s = q.Push(2, /*max_wait_ms=*/10);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
}

TEST(BoundedQueueTest, PopBatchHonorsMaxItems) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.Push(i, 0).ok());
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 4, 0.0), 4u);
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);  // FIFO
  EXPECT_EQ(q.depth(), 6u);
}

TEST(BoundedQueueTest, PopBatchLingersForConcurrentProducers) {
  BoundedQueue<int> q(16);
  ASSERT_TRUE(q.Push(1, 0).ok());
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.Push(2, 0);
  });
  std::vector<int> out;
  // A generous linger lets the second item coalesce into the batch.
  const size_t n = q.PopBatch(&out, 2, 2000.0);
  producer.join();
  EXPECT_EQ(n, 2u);
}

TEST(BoundedQueueTest, CloseRejectsPushesButDrainsBacklog) {
  BoundedQueue<int> q(8);
  ASSERT_TRUE(q.Push(1, 0).ok());
  ASSERT_TRUE(q.Push(2, 0).ok());
  q.Close();
  EXPECT_TRUE(q.Push(3, 0).IsCancelled());
  EXPECT_TRUE(q.Push(4, 1000).IsCancelled());  // no wait after close
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 10, 50.0), 2u);
  EXPECT_EQ(q.PopBatch(&out, 10, 50.0), 0u);  // closed and drained
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(8);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_EQ(q.PopBatch(&out, 1, 0.0), 0u);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(BoundedQueueTest, MultiProducerTicketsAreUniqueAndNothingIsLost) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> q(32);
  std::vector<std::vector<uint64_t>> tickets(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        uint64_t ticket = 0;
        Status s;
        do {
          s = q.Push(p, 50, &ticket);
        } while (s.IsBusy());
        EXPECT_TRUE(s.ok()) << s.ToString();
        tickets[p].push_back(ticket);
      }
    });
  }
  size_t popped = 0;
  std::thread consumer([&] {
    std::vector<int> batch;
    while (true) {
      batch.clear();
      if (q.PopBatch(&batch, 64, 0.5) == 0) break;
      popped += batch.size();
    }
  });
  for (auto& t : producers) t.join();
  q.Close();
  consumer.join();
  EXPECT_EQ(popped, static_cast<size_t>(kProducers) * kPerProducer);
  EXPECT_EQ(q.accepted(), popped);
  EXPECT_LE(q.high_water(), q.capacity());
  // Tickets: per-producer strictly increasing, globally a permutation of
  // 1..N (no duplicates, no gaps).
  std::vector<bool> seen(popped + 1, false);
  for (const auto& per : tickets) {
    for (size_t i = 0; i < per.size(); ++i) {
      if (i > 0) {
        EXPECT_GT(per[i], per[i - 1]);
      }
      ASSERT_GE(per[i], 1u);
      ASSERT_LE(per[i], popped);
      ASSERT_FALSE(seen[per[i]]);
      seen[per[i]] = true;
    }
  }
}

}  // namespace
}  // namespace trass
