#include "sim/event_queue.hpp"

#include "util/check.hpp"

namespace gs::sim {

EventQueue::MemoryBytes EventQueue::memory_bytes() const noexcept {
  MemoryBytes out;
  out.stores = wheel_.memory_bytes();
  // One node per cancelled id (the id plus a next pointer and the cached
  // hash) and one pointer per bucket.
  out.slab = actions_.capacity() * sizeof(std::function<void()>) +
             free_actions_.capacity() * sizeof(std::uint64_t) +
             cancelled_.size() * (sizeof(EventId) + 2 * sizeof(void*)) +
             cancelled_.bucket_count() * sizeof(void*);
  return out;
}

std::uint64_t EventQueue::park_action(std::function<void()> action) {
  if (free_actions_.empty()) {
    actions_.push_back(std::move(action));
    return actions_.size() - 1;
  }
  const std::uint64_t slot = free_actions_.back();
  free_actions_.pop_back();
  actions_[slot] = std::move(action);
  return slot;
}

std::function<void()> EventQueue::take_action(std::uint64_t slot) {
  std::function<void()> action = std::move(actions_[slot]);
  actions_[slot] = nullptr;  // release the captures even if the move copied
  free_actions_.push_back(slot);
  return action;
}

EventId EventQueue::push_entry(Entry entry) {
  entry.id = next_id_++;
  const EventId id = entry.id;
  wheel_.push(entry);
  ++live_;
  return id;
}

EventId EventQueue::schedule(Time at, std::function<void()> action) {
  Entry entry;
  entry.at = at;
  entry.a = park_action(std::move(action));
  return push_entry(entry);
}

EventId EventQueue::schedule(Time at, EventSink& sink, std::uint64_t a, std::uint64_t b) {
  Entry entry;
  entry.at = at;
  entry.sink = &sink;
  entry.a = a;
  entry.b = b;
  return push_entry(entry);
}

bool EventQueue::cancel(EventId id) {
  if (id == 0 || id >= next_id_) return false;
  // Lazy deletion: mark and skip at pop time.  A second cancel of the same
  // id must fail, as must cancelling an event that already ran; both are
  // detected by the insert result and the live counter bookkeeping.
  const bool inserted = cancelled_.insert(id).second;
  if (!inserted) return false;
  // The id might belong to an event that already fired; verify it is still
  // resident.  Linear scan is fine: cancels are rare (churn only).
  if (!wheel_.any([id](const Entry& e) { return e.id == id; })) {
    cancelled_.erase(id);
    return false;
  }
  GS_CHECK_GT(live_, 0u);
  --live_;
  return true;
}

bool EventQueue::empty() const noexcept { return live_ == 0; }

std::size_t EventQueue::size() const noexcept { return live_; }

const EventQueue::Entry& EventQueue::head() {
  GS_CHECK(!empty());
  // Only cancelled ids are still resident beyond the live count, so an
  // empty cancellation set means the wheel's head is live.
  while (!cancelled_.empty()) {
    const auto it = cancelled_.find(wheel_.top().id);
    if (it == cancelled_.end()) break;
    cancelled_.erase(it);
    const Entry dropped = wheel_.pop();
    if (dropped.sink == nullptr) static_cast<void>(take_action(dropped.a));
  }
  return wheel_.top();
}

Time EventQueue::next_time() const {
  // head() is non-const (it drops cancelled heads), but observable state
  // is unchanged — logical constness via const_cast.
  return const_cast<EventQueue*>(this)->head().at;
}

Time EventQueue::pop_and_run() {
  static_cast<void>(head());
  const Entry entry = wheel_.pop();
  --live_;
  if (entry.sink != nullptr) {
    entry.sink->on_event(entry.a, entry.b);
  } else {
    take_action(entry.a)();
  }
  return entry.at;
}

bool EventQueue::top_is_batchable() {
  const Entry& top = head();
  return top.sink != nullptr && top.sink->batchable();
}

std::size_t EventQueue::pop_batch(Time limit, std::vector<PooledBatchItem>& out,
                                  EventSink** sink_out) {
  out.clear();
  EventSink* const sink = head().sink;
  GS_CHECK(sink != nullptr);
  const bool across_times = sink->batch_across_times();
  const Time first_at = wheel_.top().at;
  for (;;) {
    const Entry entry = wheel_.pop();
    out.push_back({entry.at, entry.a, entry.b});
    --live_;
    if (out.size() >= kMaxBatch || empty()) break;
    // Extend only while the head continues the run: same sink, within the
    // horizon, and (unless the sink allows it) the same timestamp.
    // Stopping at the first mismatch keeps the batch a prefix of the
    // canonical pop order.
    const Entry& next = head();
    if (next.sink != sink || next.at > limit) break;
    if (!across_times && next.at != first_at) break;
  }
  *sink_out = sink;
  return out.size();
}

void EventQueue::clear() noexcept {
  wheel_.clear();
  actions_.clear();
  free_actions_.clear();
  cancelled_.clear();
  live_ = 0;
}

}  // namespace gs::sim
