// Per-peer segment buffer with FIFO replacement.
//
// The paper fixes the replacement strategy to FIFO and defines a segment's
// position p_ij in a supplier's buffer as its distance from the buffer's
// *tail* (most recent insertion): a just-inserted segment has position 1,
// the eviction candidate has position size() <= B.  rarity (eq. 8) uses
// p_ij / B as the per-supplier replacement probability.
//
// Storage is a ring of at most `capacity` ids in insertion order plus a
// FlatSegmentMap of insertion sequence numbers — two contiguous
// allocations per peer instead of a deque chunk plus a heap node per held
// segment, which is what makes 10^6 buffers fit.  The state is created
// lazily on first insert, so an empty buffer owns no heap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "gossip/buffer_map.hpp"
#include "util/bitset.hpp"
#include "util/flat_map.hpp"

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

  /// Id-indexed availability, spanning [0, highest id ever inserted].
  /// Bits are cleared on eviction.  Zero-copy view for the gossip layer.
  [[nodiscard]] const util::DynamicBitset& presence() const noexcept { return presence_; }

  /// Builds the wire-format availability map: window of `window_bits`
  /// ending at the newest held id (base = max(0, max_id - window + 1)).
  [[nodiscard]] gossip::BufferMap build_map(std::size_t window_bits) const;

  /// build_map into a caller-owned scratch map (reuses its storage).
  void build_map_into(std::size_t window_bits, gossip::BufferMap& out) const;

  [[nodiscard]] std::uint64_t eviction_count() const noexcept { return evictions_; }

  /// Heap bytes owned by the ring, the sequence map and the presence bitset.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// Ring of held ids (head = oldest) plus the id -> insertion sequence
  /// map, erased on eviction.  The ring grows geometrically up to
  /// `capacity` so a near-empty buffer (short runs, fresh joiners) does not
  /// pay for B slots up front.  The map narrows both sides to 32 bits —
  /// segment ids are bounded by rate x horizon and sequence *distances*
  /// (all position_from_tail needs) stay exact under uint32 wraparound —
  /// so a slot is 8 bytes, not 16.
  struct Flat {
    std::vector<SegmentId> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    util::FlatSegmentMap<std::uint32_t, std::int32_t> sequence;
  };

  void grow_presence(SegmentId id);
  [[nodiscard]] SegmentId window_base(std::size_t window_bits) const noexcept {
    if (max_id_ == kNoSegment) return 0;
    return std::max<SegmentId>(0, max_id_ - static_cast<SegmentId>(window_bits) + 1);
  }

  std::size_t capacity_;
  std::unique_ptr<Flat> flat_;
  util::DynamicBitset presence_;
  std::uint64_t next_sequence_ = 1;
  SegmentId max_id_ = kNoSegment;
  std::uint64_t evictions_ = 0;
};

}  // namespace gs::stream
