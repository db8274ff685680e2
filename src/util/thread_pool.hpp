// Fixed-size thread pool for running many independent simulations (trials,
// sweep points) concurrently, plus the bounded fork/join primitive the
// sharded engine core uses inside one simulation.
//
// Simulations are deterministic and share nothing, so a plain mutex-guarded
// task queue is ample: task granularity is whole simulation runs (tens of
// milliseconds to seconds), making queue contention irrelevant.  run_batch
// is the exception — it dispatches micro-tasks (per-peer tick planning) —
// so it self-schedules over an atomic cursor and the *caller participates*,
// which keeps it deadlock-free even when every pool worker is itself busy
// inside a simulation that called run_batch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace gs::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueues a callable; the returned future yields its result (or rethrows
  /// its exception).
  template <typename F>
  [[nodiscard]] auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.emplace([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs body(i) for i in [0, n) across the pool and blocks until all
  /// complete.  Exceptions from any iteration are rethrown (first one wins).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Fork/join batch: runs body(i) for i in [0, n) on at most `lanes`
  /// executors and blocks until every index completed.  The calling thread
  /// is one of the lanes — it claims indices itself while waiting — so the
  /// batch finishes even if no pool worker ever becomes free (the pool may
  /// be saturated by outer parallel_for simulations that each call
  /// run_batch).  `lanes <= 1` degenerates to an inline loop.  Index
  /// assignment to lanes is racy by design; callers must make iterations
  /// independent (the sharded engine writes disjoint per-index slots).
  /// Exceptions from any iteration are rethrown in the caller (first wins).
  void run_batch(std::size_t n, std::size_t lanes, const std::function<void(std::size_t)>& body);

  /// Lane-identified variant of run_batch: body(i, lane) where `lane` is a
  /// dense id in [0, lanes) stable for the executing thread across the whole
  /// batch (the caller claims lane 0; each helper claims the next free id on
  /// entry).  Callers use it to index per-lane scratch — e.g. one bump arena
  /// per lane — without thread-local state.  Same progress/exception
  /// semantics as run_batch.
  void run_batch_lanes(std::size_t n, std::size_t lanes,
                       const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  /// Helper closures enqueued by run_batch that have not started yet.
  /// Bounds queue growth when the pool is saturated: a busy pool would
  /// otherwise accumulate one dead helper per batch, forever.
  std::atomic<std::size_t> queued_helpers_{0};
  bool stopping_ = false;
};

/// Process-wide pool shared by benches; constructed on first use.
ThreadPool& global_pool();

/// global_pool().run_batch(n, lanes, body), except that with lanes <= 1 or
/// n <= 1 the loop runs inline on the caller: the pool is never touched
/// (nor constructed) and `body` is never wrapped in a std::function, so a
/// sequential caller pays neither threads nor an allocation.
template <typename Body>
void run_batch(std::size_t n, std::size_t lanes, Body&& body) {
  if (lanes <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  global_pool().run_batch(n, lanes, body);
}

/// The run_batch_lanes counterpart of run_batch above (inline: lane 0).
template <typename Body>
void run_batch_lanes(std::size_t n, std::size_t lanes, Body&& body) {
  if (lanes <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, std::size_t{0});
    return;
  }
  global_pool().run_batch_lanes(n, lanes, body);
}

/// Splits [0, n) into `lanes` contiguous chunks and runs body(begin, end)
/// for each on global_pool().run_batch, the calling thread included.  With
/// lanes <= 1 it is one inline call body(0, n) that never touches the
/// pool.  Chunks must be independent, like run_batch iterations.
void run_chunks(std::size_t n, std::size_t lanes,
                const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace gs::util
