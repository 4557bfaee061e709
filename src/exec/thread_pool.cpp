#include "exec/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace convmeter {

ThreadPool::ThreadPool(std::size_t num_threads) {
  std::size_t n = num_threads;
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // n - 1 workers; the calling thread is the n-th executor.
  tasks_.resize(n - 1);
  workers_.reserve(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  std::uint64_t seen = 0;
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = tasks_[index];
    }
    if (task.body != nullptr && task.begin < task.end) {
      try {
        (*task.body)(task.begin, task.end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_.notify_all();
    }
  }
}

std::size_t ThreadPool::chunk_size(std::size_t count, std::size_t threads,
                                   std::size_t grain) {
  return std::max<std::size_t>(std::max<std::size_t>(grain, 1),
                               (count + threads - 1) / threads);
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (count == 0) return;
  const std::size_t threads = num_threads();
  const std::size_t chunk = chunk_size(count, threads, grain);
  if (threads == 1 || chunk >= count) {
    body(0, count);
    return;
  }

  std::size_t my_end;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    first_error_ = nullptr;
    pending_ = workers_.size();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const std::size_t begin = std::min(count, (i + 1) * chunk);
      const std::size_t end = std::min(count, (i + 2) * chunk);
      tasks_[i] = Task{&body, begin, end};
    }
    ++generation_;
    my_end = std::min(count, chunk);
  }
  wake_.notify_all();

  // The caller's chunk may throw, but the workers still hold `body`, and
  // each of them decrements pending_ exactly once: returning before they
  // are done would let them call a destroyed body and land a late
  // decrement in the next call. So record the error and always join.
  try {
    body(0, my_end);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return pending_ == 0; });
  if (first_error_) {
    std::rethrow_exception(std::exchange(first_error_, nullptr));
  }
}

}  // namespace convmeter
