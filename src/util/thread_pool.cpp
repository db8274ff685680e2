#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>

namespace gs::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // An atomic cursor instead of one task per index: iterations can be very
  // uneven (an 8000-node sim vs a 100-node sim), so workers self-schedule.
  auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
  auto first_error = std::make_shared<std::atomic<bool>>(false);
  auto error = std::make_shared<std::exception_ptr>();
  auto error_mutex = std::make_shared<std::mutex>();

  const std::size_t lanes = std::min(n, thread_count());
  std::vector<std::future<void>> futures;
  futures.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    futures.push_back(submit([=, &body] {
      for (;;) {
        const std::size_t i = cursor->fetch_add(1);
        if (i >= n) return;
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(*error_mutex);
          if (!first_error->exchange(true)) *error = std::current_exception();
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  if (first_error->load() && *error) std::rethrow_exception(*error);
}

void ThreadPool::run_batch(std::size_t n, std::size_t lanes,
                           const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (lanes <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Shared batch state outlives the call: helper tasks may still be queued
  // when the caller returns, but they claim nothing once the cursor is
  // exhausted, so they never touch `body` (caller-owned) after completion.
  struct BatchState {
    explicit BatchState(std::size_t count) : done(static_cast<std::ptrdiff_t>(count)) {}
    std::atomic<std::size_t> cursor{0};
    std::latch done;
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
  };
  auto state = std::make_shared<BatchState>(n);
  // One claim loop shared by the caller and every helper task.  It holds a
  // raw pointer to the caller-owned body, which is safe: the pointer is
  // only dereferenced after winning a claim (i < n), and the caller cannot
  // return — so body cannot die — before all n claims completed.
  const std::function<void(std::size_t)>* body_ptr = &body;
  const auto claim_loop = [n, state, body_ptr] {
    for (;;) {
      const std::size_t i = state->cursor.fetch_add(1);
      if (i >= n) return;
      try {
        (*body_ptr)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->error_mutex);
        if (!state->failed.exchange(true)) state->error = std::current_exception();
      }
      state->done.count_down();
    }
  };
  // A saturated pool (outer parallel_for simulations each calling
  // run_batch) would never pop these helpers: the caller lane does all the
  // work and the dead closures pile up in tasks_.  Cap the outstanding
  // helpers instead of enqueueing blindly; the cap is approximate (racy
  // load) and results never depend on how many helpers actually run.
  const std::size_t helper_cap = 2 * thread_count();
  const std::size_t backlog = queued_helpers_.load();
  std::size_t helpers = std::min(lanes, n) - 1;
  helpers = std::min(helpers, helper_cap > backlog ? helper_cap - backlog : 0);
  if (helpers > 0) {
    queued_helpers_.fetch_add(helpers);
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      tasks_.emplace([this, claim_loop] {
        queued_helpers_.fetch_sub(1);
        claim_loop();
      });
    }
  }
  if (helpers > 0) cv_.notify_all();
  claim_loop();          // the caller is a lane: no deadlock on a busy pool
  state->done.wait();    // indices claimed by helpers may still be running
  if (state->failed.load() && state->error) std::rethrow_exception(state->error);
}

void ThreadPool::run_batch_lanes(std::size_t n, std::size_t lanes,
                                 const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (lanes <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }
  struct BatchState {
    explicit BatchState(std::size_t count) : done(static_cast<std::ptrdiff_t>(count)) {}
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> next_lane{1};  ///< the caller owns lane 0
    std::latch done;
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
  };
  auto state = std::make_shared<BatchState>(n);
  const std::function<void(std::size_t, std::size_t)>* body_ptr = &body;
  // Helpers claim a dense lane id on entry; at most `lanes` executors exist
  // (caller + helpers, see the cap below), so ids stay within [0, lanes).
  const auto claim_loop = [n, state, body_ptr](std::size_t lane) {
    for (;;) {
      const std::size_t i = state->cursor.fetch_add(1);
      if (i >= n) return;
      try {
        (*body_ptr)(i, lane);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->error_mutex);
        if (!state->failed.exchange(true)) state->error = std::current_exception();
      }
      state->done.count_down();
    }
  };
  const std::size_t helper_cap = 2 * thread_count();
  const std::size_t backlog = queued_helpers_.load();
  std::size_t helpers = std::min(lanes, n) - 1;
  helpers = std::min(helpers, helper_cap > backlog ? helper_cap - backlog : 0);
  // Unlike run_batch, the lane-id space bounds the executor count, so the
  // helper count may never exceed lanes - 1 even if the cap would allow it.
  helpers = std::min(helpers, lanes - 1);
  if (helpers > 0) {
    queued_helpers_.fetch_add(helpers);
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      tasks_.emplace([this, state, claim_loop] {
        queued_helpers_.fetch_sub(1);
        claim_loop(state->next_lane.fetch_add(1));
      });
    }
  }
  if (helpers > 0) cv_.notify_all();
  claim_loop(0);         // the caller is lane 0: no deadlock on a busy pool
  state->done.wait();    // indices claimed by helpers may still be running
  if (state->failed.load() && state->error) std::rethrow_exception(state->error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

void run_chunks(std::size_t n, std::size_t lanes,
                const std::function<void(std::size_t, std::size_t)>& body) {
  if (lanes <= 1) {
    body(0, n);
    return;
  }
  global_pool().run_batch(lanes, lanes, [n, lanes, &body](std::size_t c) {
    body(n * c / lanes, n * (c + 1) / lanes);
  });
}

}  // namespace gs::util
