// ThreadPool tests: coverage of the range split, determinism of results,
// exception propagation, and degenerate sizes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"

namespace convmeter {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleElement) {
  ThreadPool pool(4);
  int sum = 0;
  pool.parallel_for(1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i) + 5;
  });
  EXPECT_EQ(sum, 5);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(64, 0);
  pool.parallel_for(64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ThreadPoolTest, MoreThreadsThanWork) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t b, std::size_t) {
                                   if (b == 0) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> total{0};
    pool.parallel_for(257, [&](std::size_t b, std::size_t e) {
      total.fetch_add(e - b);
    });
    EXPECT_EQ(total.load(), 257u);
  }
}

TEST(ThreadPoolTest, UsableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [](std::size_t, std::size_t) {
      throw std::runtime_error("first");
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<std::size_t> total{0};
  pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 10u);
}

TEST(ThreadPoolTest, CallerThrowWaitsForSlowWorker) {
  // The caller's own chunk throws while a worker is still inside its chunk.
  // parallel_for must join the worker before rethrowing: otherwise the
  // worker runs a destroyed body and its late completion corrupts the next
  // call's bookkeeping.
  ThreadPool pool(2);
  std::latch worker_inside(1);
  std::atomic<bool> worker_finished{false};
  try {
    pool.parallel_for(2, [&](std::size_t b, std::size_t) {
      if (b == 0) {  // the caller's chunk
        worker_inside.wait();
        throw std::runtime_error("caller");
      }
      worker_inside.count_down();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      worker_finished.store(true);
    });
    ADD_FAILURE() << "the caller's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller");
  }
  EXPECT_TRUE(worker_finished.load());
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> total{0};
    pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
      total.fetch_add(e - b);
    });
    EXPECT_EQ(total.load(), 10u);
  }
}

TEST(ThreadPoolTest, DefaultUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, GrainRunsSmallRangeInlineInOneChunk) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  std::thread::id body_thread;
  pool.parallel_for(
      100,
      [&](std::size_t b, std::size_t e) {
        calls.fetch_add(1);
        body_thread = std::this_thread::get_id();
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 100u);
      },
      /*grain=*/100);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(body_thread, caller);
}

TEST(ThreadPoolTest, GrainStillCoversEveryIndexWhenSplit) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(
      1000,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      /*grain=*/64);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkSizeRespectsGrainAndCoversCount) {
  // Chunks are never smaller than the grain...
  EXPECT_GE(ThreadPool::chunk_size(1000, 4, 300), 300u);
  // ...and threads * chunk always covers the full range.
  for (std::size_t count : {1u, 7u, 256u, 1000u}) {
    for (std::size_t threads : {1u, 2u, 4u, 7u}) {
      for (std::size_t grain : {1u, 16u, 999u}) {
        const std::size_t chunk = ThreadPool::chunk_size(count, threads, grain);
        EXPECT_GE(chunk * threads, count)
            << count << "/" << threads << "/" << grain;
      }
    }
  }
}

}  // namespace
}  // namespace convmeter
