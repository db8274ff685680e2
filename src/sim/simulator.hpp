// Discrete-event simulation driver: a clock plus the pending-event set
// (one timing wheel; see sim/event_queue.hpp).
//
// Time is allowed to be negative — experiments use the paper's convention
// where t=0 is the source-switch instant and warm-up runs at t<0.
//
// Every event — closures (ticks, generation, churn, switches) and pooled
// plain-struct events (segment deliveries) — lives in the one queue and pops
// in (time, sequence) order.  The engine's parallelism never splits that
// order: batched pops (enable_batch_pop) hand a sink a consecutive run of
// it, and the sink fans the run out over its lanes.
#pragma once

#include <functional>

#include "sim/event_queue.hpp"

namespace gs::sim {

class Simulator {
 public:
  /// Starts the clock at `start` (may be negative for warm-up phases).  The
  /// pending set's timing wheel is quantized at `quantum` seconds (the
  /// engine passes its tick cadence tau); any quantum pops the same order.
  explicit Simulator(Time start = 0.0, double quantum = 1.0) : queue_(quantum), now_(start) {}

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Telemetry of the queue's timing wheel.
  [[nodiscard]] const EventQueue::WheelTelemetry& wheel_telemetry() const noexcept {
    return queue_.wheel_telemetry();
  }
  /// Heap bytes of the pending set (see EventQueue::memory_bytes); the
  /// batched-pop scratch counts toward the slab.
  [[nodiscard]] EventQueue::MemoryBytes memory_bytes() const noexcept {
    EventQueue::MemoryBytes out = queue_.memory_bytes();
    out.slab += batch_scratch_.capacity() * sizeof(PooledBatchItem);
    return out;
  }

  /// Batched pops: when enabled, a maximal run of consecutive pooled
  /// events whose sink opted in (EventSink::batchable) is dispatched as
  /// ONE on_batch call instead of per-event on_event calls.  The run is
  /// exactly a prefix of the canonical pop order, so execution semantics
  /// are unchanged; only dispatch granularity grows (the engine's delivery
  /// wave and super-batched tick sweeps ride on this).  During a
  /// batch the clock is parked at the *last* item's time; batchable sinks
  /// use each item's own `at` for per-item time semantics.
  void enable_batch_pop(bool on) { batch_pop_ = on; }

  /// Schedules at an absolute time; must not be in the past.
  EventId at(Time when, std::function<void()> action);
  /// Schedules `delay >= 0` seconds from now.
  EventId after(Time delay, std::function<void()> action);
  /// Pooled plain-struct variants: at `when` / after `delay`, calls
  /// `sink.on_event(a, b)`.  Never allocates (payload is stored inline in
  /// the queue entry); same ordering/cancellation semantics as the closure
  /// overloads.
  EventId at(Time when, EventSink& sink, std::uint64_t a, std::uint64_t b);
  EventId after(Time delay, EventSink& sink, std::uint64_t a, std::uint64_t b);
  /// Cancels a pending event; false if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue drains or the clock passes `until`
  /// (events at exactly `until` run).  Returns the number of events run.
  std::size_t run_until(Time until);

  /// Runs until the queue drains or stop() is called.
  std::size_t run_all();

  /// Makes the current run_* call return after the in-flight event.
  void stop() noexcept { stop_requested_ = true; }

  [[nodiscard]] bool pending() const noexcept { return !queue_.empty(); }

 private:
  /// Shared drive loop of run_until/run_all (`until` = +inf for run_all).
  std::size_t drive(Time until);

  EventQueue queue_;
  Time now_;
  bool stop_requested_ = false;
  bool batch_pop_ = false;
  /// pop_batch scratch (capacity reused across batches).
  std::vector<PooledBatchItem> batch_scratch_;
};

}  // namespace gs::sim
