// Per-peer segment buffer with FIFO replacement.
//
// The paper fixes the replacement strategy to FIFO and defines a segment's
// position p_ij in a supplier's buffer as its distance from the buffer's
// *tail* (most recent insertion): a just-inserted segment has position 1,
// the eviction candidate has position size() <= B.  rarity (eq. 8) uses
// p_ij / B as the per-supplier replacement probability.
//
// Storage is a ring of at most `capacity` ids in insertion order plus a
// sequence window: a power-of-two array of insertion sequence numbers
// indexed by `id & (size - 1)`.  The window is kept larger than the span of
// held ids (max_id - min_id), so no two held ids share a slot and a
// position lookup is one presence test plus one load — no hashing, no
// probing, and eviction writes nothing.  Streaming arrival is nearly in id
// order, so the span stays close to `capacity` and the window rarely grows.
// Two contiguous allocations per peer, created lazily on first insert, so
// an empty buffer owns no heap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "gossip/buffer_map.hpp"
#include "util/bitset.hpp"

namespace gs::stream {

using gossip::SegmentId;
using gossip::kNoSegment;

class StreamBuffer {
 public:
  explicit StreamBuffer(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return flat_ ? flat_->count : 0; }

  /// Inserts `id`; returns the evicted id (kNoSegment if none).  Duplicate
  /// inserts are no-ops returning kNoSegment.
  SegmentId insert(SegmentId id);

  /// True if `id` is currently held (inserted and not yet evicted).
  [[nodiscard]] bool contains(SegmentId id) const noexcept;

  /// Distance from tail: 1 for the newest segment, size() for the oldest.
  /// Returns 0 if absent.
  [[nodiscard]] std::size_t position_from_tail(SegmentId id) const noexcept;

  /// Oldest (next-to-evict) segment; kNoSegment when empty.
  [[nodiscard]] SegmentId oldest() const noexcept;
  /// Most recently inserted segment; kNoSegment when empty.
  [[nodiscard]] SegmentId newest() const noexcept;

  /// Highest segment id currently held; kNoSegment when empty.  Maintained
  /// incrementally (streaming arrival is nearly in id order, so the max is
  /// almost always the last insert; eviction of the max triggers a rescan).
  [[nodiscard]] SegmentId max_id() const noexcept { return max_id_; }
  /// Lowest segment id currently held; kNoSegment when empty.  Evicting it
  /// advances it to the next set presence bit.
  [[nodiscard]] SegmentId min_id() const noexcept { return min_id_; }

  /// Id-indexed availability, spanning [0, highest id ever inserted].
  /// Bits are cleared on eviction.  Zero-copy view for the gossip layer.
  [[nodiscard]] const util::DynamicBitset& presence() const noexcept { return presence_; }

  /// Builds the wire-format availability map: window of `window_bits`
  /// ending at the newest held id (base = max(0, max_id - window + 1)).
  [[nodiscard]] gossip::BufferMap build_map(std::size_t window_bits) const;

  /// build_map into a caller-owned scratch map (reuses its storage).
  void build_map_into(std::size_t window_bits, gossip::BufferMap& out) const;

  [[nodiscard]] std::uint64_t eviction_count() const noexcept { return evictions_; }

  /// Heap bytes owned by the ring, the sequence window and the presence
  /// bitset.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// Ring of held ids (head = oldest) plus the sequence window.  The ring
  /// grows geometrically up to `capacity` so a near-empty buffer (short
  /// runs, fresh joiners) does not pay for B slots up front.  Window slots
  /// are 32 bits: sequence *distances* (all position_from_tail needs) stay
  /// exact under uint32 wraparound.  A slot whose id is not held holds a
  /// stale value that is never read.
  struct Flat {
    std::vector<SegmentId> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    std::vector<std::uint32_t> sequence = std::vector<std::uint32_t>(64);
  };

  void grow_presence(SegmentId id);
  /// Doubles the window until it exceeds `span` (the new max_id_ -
  /// min_id_), re-placing the ring's held ids.  Runs before the new id is
  /// appended to the ring.
  static void widen_window(Flat& f, SegmentId span);
  [[nodiscard]] static std::size_t slot_of(const Flat& f, SegmentId id) noexcept {
    return static_cast<std::size_t>(id) & (f.sequence.size() - 1);
  }
  [[nodiscard]] SegmentId window_base(std::size_t window_bits) const noexcept {
    if (max_id_ == kNoSegment) return 0;
    return std::max<SegmentId>(0, max_id_ - static_cast<SegmentId>(window_bits) + 1);
  }

  std::size_t capacity_;
  std::unique_ptr<Flat> flat_;
  util::DynamicBitset presence_;
  std::uint64_t next_sequence_ = 1;
  SegmentId min_id_ = kNoSegment;
  SegmentId max_id_ = kNoSegment;
  std::uint64_t evictions_ = 0;
};

}  // namespace gs::stream
