#include "stream/stream_buffer.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace gs::stream {

StreamBuffer::StreamBuffer(std::size_t capacity) : capacity_(capacity) {
  GS_CHECK_GE(capacity, 1u);
}

void StreamBuffer::grow_presence(SegmentId id) {
  const auto needed = static_cast<std::size_t>(id) + 1;
  if (presence_.size() < needed) {
    // Grow geometrically so repeated inserts stay amortized O(1).
    presence_.resize(std::max(needed, presence_.size() * 2 + 64));
  }
}

void StreamBuffer::widen_window(Flat& f, SegmentId span) {
  std::size_t slots = f.sequence.size();
  while (slots <= static_cast<std::size_t>(span)) slots *= 2;
  std::vector<std::uint32_t> wider(slots);
  for (std::size_t i = 0; i < f.count; ++i) {
    std::size_t slot = f.head + i;
    if (slot >= f.ring.size()) slot -= f.ring.size();
    const SegmentId held = f.ring[slot];
    wider[static_cast<std::size_t>(held) & (slots - 1)] = f.sequence[slot_of(f, held)];
  }
  f.sequence = std::move(wider);
}

SegmentId StreamBuffer::insert(SegmentId id) {
  GS_CHECK_GE(id, 0);
  if (contains(id)) return kNoSegment;
  grow_presence(id);

  if (flat_ == nullptr) flat_ = std::make_unique<Flat>();
  Flat& f = *flat_;
  SegmentId victim = kNoSegment;
  if (f.count == capacity_) {
    // Evict-before-insert keeps the ring at `capacity` slots; the victim is
    // the oldest held id, exactly as insert-then-evict would pick.
    victim = f.ring[f.head];
    f.head = f.head + 1 == f.ring.size() ? 0 : f.head + 1;
    --f.count;
    presence_.reset(static_cast<std::size_t>(victim));
    ++evictions_;
    if (victim == min_id_) {
      // The next held id is the next set presence bit: in-order arrival
      // puts it right after the victim, so the scan is a word or two.  (An
      // emptied ring finds none; the insert below resets the minimum.)
      min_id_ = static_cast<SegmentId>(
          presence_.find_first(static_cast<std::size_t>(victim) + 1));
    }
    if (victim == max_id_) {
      // Rare: the max can only be evicted under heavy id reordering.
      max_id_ = kNoSegment;
      for (std::size_t i = 0; i < f.count; ++i) {
        std::size_t slot = f.head + i;
        if (slot >= f.ring.size()) slot -= f.ring.size();
        max_id_ = std::max(max_id_, f.ring[slot]);
      }
    }
  } else if (f.count == f.ring.size()) {
    // Grow geometrically towards `capacity`, relinearising so the oldest
    // element lands at slot 0.  Once count reaches capacity the ring is
    // exactly `capacity` slots and only the eviction branch runs.
    std::vector<SegmentId> bigger(
        std::min(capacity_, std::max<std::size_t>(16, f.ring.size() * 2)), kNoSegment);
    for (std::size_t i = 0; i < f.count; ++i) {
      std::size_t slot = f.head + i;
      if (slot >= f.ring.size()) slot -= f.ring.size();
      bigger[i] = f.ring[slot];
    }
    f.ring = std::move(bigger);
    f.head = 0;
  }
  min_id_ = f.count == 0 ? id : std::min(min_id_, id);
  max_id_ = std::max(max_id_, id);
  if (static_cast<std::size_t>(max_id_ - min_id_) >= f.sequence.size()) {
    widen_window(f, max_id_ - min_id_);
  }
  std::size_t tail = f.head + f.count;
  if (tail >= f.ring.size()) tail -= f.ring.size();
  f.ring[tail] = id;
  ++f.count;
  f.sequence[slot_of(f, id)] = static_cast<std::uint32_t>(next_sequence_++);
  presence_.set(static_cast<std::size_t>(id));
  return victim;
}

bool StreamBuffer::contains(SegmentId id) const noexcept {
  if (id < 0 || static_cast<std::size_t>(id) >= presence_.size()) return false;
  return presence_.test(static_cast<std::size_t>(id));
}

std::size_t StreamBuffer::position_from_tail(SegmentId id) const noexcept {
  // Every successful insert bumps next_sequence_ by one and appends one
  // element at the tail, so the distance from the tail is the number of
  // later insertions plus one.  Evictions remove from the head and do not
  // change any survivor's distance from the tail.
  // A held id owns its window slot outright (the window exceeds the held
  // span), and only held ids are ever read.  uint32 wraparound subtraction:
  // the distance is < capacity <= 2^32.
  if (!contains(id)) return 0;
  return static_cast<std::uint32_t>(next_sequence_) - flat_->sequence[slot_of(*flat_, id)];
}

SegmentId StreamBuffer::oldest() const noexcept {
  return (flat_ == nullptr || flat_->count == 0) ? kNoSegment : flat_->ring[flat_->head];
}

SegmentId StreamBuffer::newest() const noexcept {
  if (flat_ == nullptr || flat_->count == 0) return kNoSegment;
  std::size_t tail = flat_->head + flat_->count - 1;
  if (tail >= flat_->ring.size()) tail -= flat_->ring.size();
  return flat_->ring[tail];
}

gossip::BufferMap StreamBuffer::build_map(std::size_t window_bits) const {
  if (max_id_ == kNoSegment) return gossip::BufferMap(0, window_bits);
  // Word-at-a-time copy out of the presence bitset: build_map runs once per
  // peer per advert under delta accounting, so the per-slot contains() loop
  // it replaced was a real per-tick cost.
  return gossip::BufferMap::from_presence(window_base(window_bits), window_bits, presence_);
}

void StreamBuffer::build_map_into(std::size_t window_bits, gossip::BufferMap& out) const {
  out.assign_from_presence(window_base(window_bits), window_bits, presence_);
}

std::size_t StreamBuffer::memory_bytes() const noexcept {
  std::size_t total = presence_.memory_bytes();
  if (flat_ != nullptr) {
    total += flat_->ring.capacity() * sizeof(SegmentId) +
             flat_->sequence.capacity() * sizeof(std::uint32_t);
  }
  return total;
}

}  // namespace gs::stream
