// Fixed-size thread pool with a parallel_for primitive.
//
// The real executor parallelizes its GEMM and convolution loops across
// worker threads (OpenMP-style static scheduling, implemented with
// std::thread so the library has no extra dependencies).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace convmeter {

/// A pool of worker threads executing range chunks.
class ThreadPool {
 public:
  /// `num_threads` == 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Runs body(begin, end) over [0, count) split into near-equal chunks,
  /// one per thread (static schedule). The calling thread executes the
  /// first chunk; the call returns when every chunk is done, also when a
  /// chunk throws. The first exception recorded from any chunk is then
  /// rethrown on the caller.
  ///
  /// `grain` is the minimum chunk size: ranges that fit in one grain-sized
  /// chunk run inline on the calling thread without waking any worker, so
  /// tiny kernels (small activations, 1x1 feature maps) skip the wakeup
  /// and join cost entirely.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t grain = 1);

  /// The chunk size parallel_for(count, ..., grain) uses on a pool with
  /// `threads` executors. Chunk boundaries are deterministic, so callers
  /// that keep per-chunk state (e.g. per-slot partial accumulators) can
  /// derive the slot index as begin / chunk_size(...).
  static std::size_t chunk_size(std::size_t count, std::size_t threads,
                                std::size_t grain);

 private:
  struct Task {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::vector<Task> tasks_;         // one slot per worker
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace convmeter
