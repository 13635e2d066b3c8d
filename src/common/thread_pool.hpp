// Thread pool for the batch experiment runner: one queue, ordered by a
// priority each task carries (highest first, equal priorities in
// submission order). A task may submit further tasks, as the batch
// runner's training graph does; wait_all() waits for those too.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/log.hpp"
#include "src/common/parse.hpp"

namespace dozz {

/// Largest thread budget (--threads, DOZZ_THREADS), and the most workers a
/// ThreadPool starts.
inline constexpr unsigned kMaxThreads = 256;

/// Worker-thread count used when a caller does not specify one: the
/// DOZZ_THREADS environment variable when set and nonzero, otherwise the
/// hardware concurrency (at most kMaxThreads). Throws ConfigError when
/// DOZZ_THREADS is not an integer from 0 to kMaxThreads.
inline unsigned default_thread_count() {
  if (const char* env = std::getenv("DOZZ_THREADS")) {
    const auto parsed = parse_unsigned(env, "DOZZ_THREADS", kMaxThreads);
    if (parsed >= 1) return static_cast<unsigned>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min(hw, kMaxThreads);
}

class ThreadPool {
 public:
  /// Starts `threads` workers (0 starts one). Throws ConfigError above
  /// kMaxThreads, before any thread starts.
  explicit ThreadPool(unsigned threads) {
    if (threads > kMaxThreads)
      throw ConfigError("thread pool: " + std::to_string(threads) +
                        " workers requested, at most " +
                        std::to_string(kMaxThreads));
    try {
      for (unsigned w = 0; w < std::max(threads, 1u); ++w)
        workers_.emplace_back([this] { worker_loop(); });
    } catch (...) {
      shut_down();  // a thread failed to start: join the ones that did
      throw;
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() { shut_down(); }

  /// Enqueues a task: a higher `priority` runs sooner, equal priorities in
  /// submission order. May be called from inside a task.
  void submit(std::function<void()> task, int priority = 0) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_.push_back({priority, next_seq_++, std::move(task)});
      std::push_heap(queue_.begin(), queue_.end(), runs_later);
      ++pending_;
    }
    work_ready_.notify_one();
  }

  /// Blocks until every submitted task, including those submitted by tasks,
  /// has finished. Rethrows the first exception any task raised (remaining
  /// tasks still run to completion; later task exceptions are counted in
  /// suppressed_exceptions() and logged rather than silently dropped).
  void wait_all() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
    if (first_error_) {
      const std::exception_ptr error = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

  /// Task exceptions swallowed because an earlier task's exception was (or
  /// will be) the one rethrown by wait_all(). Cumulative over the pool's
  /// lifetime; each suppressed exception is also logged at info level.
  std::uint64_t suppressed_exceptions() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return suppressed_;
  }

 private:
  struct Entry {
    int priority;
    std::uint64_t seq;
    std::function<void()> task;
  };

  /// Heap order: the entry to run next compares greatest.
  static bool runs_later(const Entry& a, const Entry& b) {
    return a.priority != b.priority ? a.priority < b.priority : a.seq > b.seq;
  }

  /// Lets the workers drain the queue, then joins them.
  void shut_down() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_ready_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, and nothing left to run
        std::pop_heap(queue_.begin(), queue_.end(), runs_later);
        task = std::move(queue_.back().task);
        queue_.pop_back();
      }
      try {
        task();
      } catch (const std::exception& e) {
        record_error(std::current_exception(), e.what());
      } catch (...) {
        record_error(std::current_exception(), "<non-std exception>");
      }
      std::unique_lock<std::mutex> lock(mutex_);
      if (--pending_ == 0) all_done_.notify_all();
    }
  }

  /// Records a task exception: the first one is stashed for wait_all() to
  /// rethrow; every later one is counted and logged so a multi-failure
  /// batch is diagnosable from the log even though only one propagates.
  void record_error(std::exception_ptr error, const char* what) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!first_error_) {
      first_error_ = error;
    } else {
      ++suppressed_;
      DOZZ_LOG_INFO("thread pool: suppressed task exception #"
                    << suppressed_ << ": " << what);
    }
  }

  mutable std::mutex mutex_;
  std::vector<Entry> queue_;  ///< A heap under runs_later.
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
  std::uint64_t suppressed_ = 0;
  std::vector<std::thread> workers_;  ///< Last: workers use the members above.
};

}  // namespace dozz
