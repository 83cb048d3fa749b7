// Work-queue thread pool and a deterministic parallel_for built on it.
//
// parallel_for decomposes [0, total) into fixed-size chunks whose boundaries
// depend only on (total, chunk_size) — never on the thread count — so a
// caller that accumulates per-chunk partial results and merges them in chunk
// order (or writes each index's result to its own slot) gets
// bitwise-identical output for any number of threads. This is the contract
// the parallel Monte-Carlo engine (ssta/monte_carlo.cpp), the batch flow API
// (core::Flow::run_monte_carlo_batch), and StatisticalGreedy's candidate
// scoring (opt/sizer_statistical.cpp) are built on; the rules are written up
// in docs/ARCHITECTURE.md, "Concurrency & determinism contracts".
//
// Exceptions thrown by a chunk body are captured and rethrown on the calling
// thread after all workers have drained (first one wins).
//
// first_accepted is the ordered counterpart for greedy accept loops (the
// sizer's exact confirmations, area recovery's screen): it looks ahead a
// bounded distance, scoring trials on pool helpers, while the caller decides
// them strictly in order, so the answer and every exception match the serial
// walk for any thread count.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace statsizer::util {

/// Fixed-size pool of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// @p thread_count 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe: any thread, including pool workers, may
  /// submit concurrently. Tasks are responsible for their own error handling:
  /// an exception escaping a task is swallowed by the worker (parallel_for
  /// layers its own capture-and-rethrow on top of this).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle. Thread-safe,
  /// but must not be called from a pool worker (it would wait for itself).
  void wait_idle();

  /// Thread-safe (immutable after construction).
  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// hardware_concurrency clamped to >= 1.
  [[nodiscard]] static std::size_t default_thread_count();

  /// Lazily-created process-wide pool (default_thread_count workers) that
  /// parallel_for dispatches onto — repeated parallel regions reuse threads
  /// instead of paying spawn/join per call. Thread-safe (C++ static-local
  /// initialization).
  [[nodiscard]] static ThreadPool& shared();

  /// True when the calling thread is a worker of any ThreadPool. Used by
  /// parallel_for to run nested regions inline (a worker waiting on queued
  /// helper tasks could otherwise deadlock the pool). Thread-safe.
  [[nodiscard]] static bool in_worker();

  /// While alive, in_worker() reports true on the constructing thread, so
  /// parallel regions it starts run inline. first_accepted holds one on its
  /// caller: its helpers may sleep until the caller's walk advances, and a
  /// nested region queued behind them would wait for a worker that never
  /// frees up.
  class InlineScope {
   public:
    InlineScope();
    ~InlineScope();
    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

   private:
    bool previous_;
  };

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

namespace detail {

/// Chunk geometry shared by the serial and parallel paths: boundaries are a
/// pure function of (total, chunk_size).
[[nodiscard]] inline std::size_t chunk_count(std::size_t total, std::size_t chunk_size) {
  return chunk_size == 0 ? 0 : (total + chunk_size - 1) / chunk_size;
}

/// Runs help() on @p helpers shared-pool tasks and caller() on the calling
/// thread, and returns only once every helper has finished, so both may
/// capture caller-stack state by reference. caller() must not throw, and by
/// the time it returns it must have made help() return (exhausted or closed
/// the work they share).
template <typename Help, typename Caller>
void fork_join(std::size_t helpers, const Help& help, Caller&& caller) {
  std::mutex mutex;
  std::condition_variable helpers_done;
  std::size_t helpers_finished = 0;
  ThreadPool& pool = ThreadPool::shared();
  for (std::size_t i = 0; i < helpers; ++i) {
    pool.submit([&] {
      help();
      const std::lock_guard<std::mutex> lock(mutex);
      ++helpers_finished;
      helpers_done.notify_all();
    });
  }
  caller();
  std::unique_lock<std::mutex> lock(mutex);
  helpers_done.wait(lock, [&] { return helpers_finished == helpers; });
}

}  // namespace detail

/// Runs body(begin, end, chunk_index) over [0, total) split into fixed
/// chunk_size pieces. chunk_index runs 0..chunk_count-1 in geometric order;
/// with threads <= 1, a single chunk, or when called from inside another
/// parallel region, everything executes inline on the calling thread.
/// Otherwise the caller plus up to threads - 1 helper tasks on the shared
/// pool pull chunks from an atomic cursor (actual concurrency is also capped
/// by the shared pool's size). threads == 0 means
/// ThreadPool::default_thread_count(). Returns only after every helper has
/// finished, so the body may capture caller-stack state by reference.
///
/// Thread-safety contract for the body: it may run on the caller's thread or
/// any pool worker, concurrently with other chunks. Shared inputs must be
/// read-only for the duration of the call; mutable state must be per-chunk
/// (created inside the body) or written to slots no other chunk touches.
/// Determinism follows from the fixed chunk geometry: results assembled in
/// chunk order (or per-slot) are identical for any `threads` value.
template <typename Body>
void parallel_for(std::size_t total, std::size_t chunk_size, std::size_t threads,
                  Body&& body) {
  if (total == 0) return;
  if (chunk_size == 0) chunk_size = 1;
  if (threads == 0) threads = ThreadPool::default_thread_count();
  const std::size_t chunks = detail::chunk_count(total, chunk_size);

  if (threads <= 1 || chunks <= 1 || ThreadPool::in_worker()) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * chunk_size;
      const std::size_t end = std::min(total, begin + chunk_size);
      body(begin, end, c);
    }
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;

  const auto drain = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      const std::size_t begin = c * chunk_size;
      const std::size_t end = std::min(total, begin + chunk_size);
      try {
        body(begin, end, c);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  detail::fork_join(std::min(threads, chunks) - 1, drain, drain);  // caller drains too
  if (error) std::rethrow_exception(error);
}

/// The first index in [0, count) that @p decide accepts, or count if none
/// is: the serial walk `score(0), decide(0), score(1), decide(1), ...`,
/// stopped at the first `decide(i) == true`, with the scoring run ahead.
///
/// score(i) runs at most once per index, on the caller or on one of up to
/// threads - 1 helper tasks on the shared pool. Indices are claimed in
/// increasing order from an atomic cursor, never more than 2 * threads past
/// the walk position (the index decide() looks at next), so a scan that
/// accepts index r has scored nothing beyond r + 2 * threads. The caller
/// decides and, whenever its next index is not scored yet, scores the next
/// claimable one itself. decide(i) runs on the caller, in index order, after
/// score(i) has finished. With threads <= 1, count <= 1, or a call from a
/// pool worker, the scan is exactly the lazy serial walk. threads == 0 means
/// ThreadPool::default_thread_count().
///
/// Exceptions: the one the serial walk would hit first is rethrown — score's
/// or decide's for the lowest index the walk reaches — and only after every
/// helper has joined. A score exception for an index the walk never reaches
/// (an earlier index was accepted) is discarded.
///
/// Thread-safety contract for score: the same as a parallel_for body (shared
/// inputs read-only for the whole scan, results written per index). decide
/// runs on the caller only and may touch caller state freely; anything
/// score(j) read for j > i must not change until the scan returns. The caller
/// counts as a pool worker for the duration (ThreadPool::InlineScope), so
/// parallel regions started inside score or decide run inline.
template <typename Score, typename Decide>
std::size_t first_accepted(std::size_t count, std::size_t threads, Score&& score,
                           Decide&& decide) {
  if (threads == 0) threads = ThreadPool::default_thread_count();
  if (threads <= 1 || count <= 1 || ThreadPool::in_worker()) {
    for (std::size_t i = 0; i < count; ++i) {
      score(i);
      if (decide(i)) return i;
    }
    return count;
  }

  // Index i is claimable once i <= walk + lookahead, and the caller has
  // consumed slot i % (lookahead + 1) — index i - lookahead - 1 < walk — by
  // then, so a ring of lookahead + 1 slots never holds two live indices.
  const std::size_t lookahead = 2 * threads;
  struct Slot {
    std::atomic<std::size_t> finished{0};  ///< 1 + the last index scored here
    std::exception_ptr error;              ///< that index's score() exception
  };
  const std::size_t ring_size = lookahead + 1;
  const std::unique_ptr<Slot[]> ring(new Slot[ring_size]);
  std::atomic<std::size_t> cursor{0};  // next unclaimed index
  std::atomic<std::size_t> walk{0};    // next index to decide

  // Claims the next index against walk position @p w (a stale w only makes
  // the bound tighter: the walk never moves back).
  const auto claim = [&](std::size_t w, std::size_t& i) {
    i = cursor.load(std::memory_order_relaxed);
    while (i < count && i <= w + lookahead) {
      if (cursor.compare_exchange_weak(i, i + 1, std::memory_order_relaxed)) return true;
    }
    return false;
  };
  const auto run = [&](std::size_t i) {
    Slot& slot = ring[i % ring_size];
    try {
      score(i);
    } catch (...) {
      slot.error = std::current_exception();
    }
    slot.finished.store(i + 1, std::memory_order_release);
    slot.finished.notify_one();
  };
  const auto help = [&] {
    for (;;) {
      const std::size_t w = walk.load(std::memory_order_acquire);
      std::size_t i = 0;
      if (claim(w, i)) {
        run(i);
        continue;
      }
      if (cursor.load(std::memory_order_relaxed) >= count) return;  // drained or stopped
      walk.wait(w, std::memory_order_acquire);  // lookahead full: sleep until the walk moves
    }
  };

  std::size_t accepted = count;
  std::exception_ptr error;
  detail::fork_join(std::min(threads, count) - 1, help, [&] {
    const ThreadPool::InlineScope inline_scope;
    for (std::size_t w = 0; w < count; ++w) {
      Slot& slot = ring[w % ring_size];
      for (;;) {
        const std::size_t finished = slot.finished.load(std::memory_order_acquire);
        if (finished == w + 1) break;
        std::size_t i = 0;
        if (claim(w, i)) {
          run(i);  // the next item is in flight elsewhere: score ahead meanwhile
          continue;
        }
        slot.finished.wait(finished, std::memory_order_acquire);
      }
      if (slot.error) {
        error = std::exchange(slot.error, nullptr);
        break;
      }
      try {
        if (decide(w)) {
          accepted = w;
          break;
        }
      } catch (...) {
        error = std::current_exception();
        break;
      }
      walk.store(w + 1, std::memory_order_release);
      walk.notify_all();
    }
    // Stop claims (a helper that sees this walk sees the cursor at count
    // too) and wake the sleeping helpers so the join can finish.
    cursor.store(count, std::memory_order_relaxed);
    walk.store(count, std::memory_order_release);
    walk.notify_all();
  });
  if (error) std::rethrow_exception(error);
  return accepted;
}

}  // namespace statsizer::util
