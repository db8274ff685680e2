// Hierarchical timing wheel: the event queue's O(1) backing store.
//
// The protocol's event population is clustered in the near future — fixed-
// cadence tick sweeps one period ahead and segment deliveries a few periods
// out — so a bucketed wheel quantized at the tick cadence turns almost every
// schedule into a plain vector append and almost every pop into a bump of a
// cursor through a pre-sorted bucket.  Three levels cover the full horizon:
//
//   near wheel    kNearSlots buckets of one quantum each.  Every resident
//                 entry's bucket index lies in (cursor, cursor + kNearSlots],
//                 which is exactly one bucket per slot — collection takes the
//                 whole slot, no revolution filtering.
//   coarse wheel  kCoarseSlots slots of kNearSlots buckets each (the
//                 overflow wheel).  When the cursor enters a coarse slot its
//                 entries scatter into the near wheel.
//   spill heap    a (time, id) min-heap for anything beyond the coarse
//                 horizon; pulled into the wheels as the horizon advances.
//
// Determinism rule: a bucket is sorted by the global (time, sequence) key
// before it drains, and buckets drain in increasing index order.  Bucket
// indexing is monotone in time, so the resulting pop sequence is exactly the
// order a single (time, sequence) binary heap would produce — bit-identical
// whatever the quantum, which sim_property_test checks against a heap
// oracle.
//
// Late arrivals — an executing event scheduling into the current (already
// collected) or an earlier bucket — go to a small side heap that the
// top()/pop() pair merges with the sorted front bucket by (time, id).  Both
// planes hold only entries at or below the cursor while the wheels hold only
// entries above it, so the merge never crosses the bucket order.
//
// Storage rule: a slot owns heap storage only while it holds entries.  A
// drained bucket's storage (the previous front, or a coarse slot once it
// scattered) goes onto a spare list, and the next append to an empty slot
// takes a spare before allocating.  The spare list never holds more
// capacity than there are resident entries; storage beyond that is freed.
// Retained bytes therefore follow the number of entries resident at once,
// not the sum of every slot's high-water mark; the pop order is untouched
// (storage never moves an entry between buckets).
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

namespace gs::sim {

/// Simulation time in seconds (may be negative: warm-up runs at t < 0).
using Time = double;

/// Identifies a scheduled event for cancellation; assigned globally in
/// scheduling order, which makes (time, id) the total pop order.
using EventId = std::uint64_t;

class EventSink;

/// One pending event: five words, trivially copyable, so the wheel's
/// bucket sorts and the side/spill heaps' sifts move 40 plain bytes.  Two kinds share
/// the struct (and the sequence domain): pooled plain-struct events carry a
/// sink plus two inline payload words and never allocate; closure events
/// (sink == nullptr) carry in `a` the index of their action in the owning
/// EventQueue's closure slab.
struct QueueEntry {
  Time at = 0.0;
  EventId id = 0;
  /// Non-null selects the pooled plain-struct path.
  EventSink* sink = nullptr;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
static_assert(std::is_trivially_copyable_v<QueueEntry> && sizeof(QueueEntry) == 40,
              "queue entries are moved and sorted as plain 40-byte records");

/// "a fires after b" — the heap comparator: a max-heap under this order
/// (std::push_heap/pop_heap) pops the earliest (time, sequence) entry first.
struct QueueEntryLater {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    return a.id > b.id;
  }
};

/// The event queue's store.  Not thread-safe (the queue is driven by one
/// thread).
class TimingWheel {
 public:
  struct Telemetry {
    std::uint64_t scheduled = 0;            ///< entries ever pushed
    std::uint64_t overflow_promotions = 0;  ///< coarse->near + spill->wheel moves
    std::uint64_t spill_peak = 0;           ///< max spill-heap occupancy
  };

  explicit TimingWheel(double quantum = 1.0);

  void push(QueueEntry entry);
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The (time, id)-minimum resident entry; requires !empty().  Non-const:
  /// reaching the next bucket advances the cursor (observable order never
  /// changes, only which level stores what).
  [[nodiscard]] const QueueEntry& top();
  /// Removes and returns top(); requires !empty().
  QueueEntry pop();

  /// True if `fn(entry)` holds for any resident entry (cancellation's
  /// pendingness scan).  O(resident); cancels are rare (churn only).
  template <typename Fn>
  [[nodiscard]] bool any(Fn&& fn) const {
    for (std::size_t i = front_pos_; i < front_.size(); ++i) {
      if (fn(front_[i])) return true;
    }
    for (const QueueEntry& e : side_) {
      if (fn(e)) return true;
    }
    for (const std::vector<QueueEntry>& slot : near_) {
      for (const QueueEntry& e : slot) {
        if (fn(e)) return true;
      }
    }
    for (const std::vector<QueueEntry>& slot : coarse_) {
      for (const QueueEntry& e : slot) {
        if (fn(e)) return true;
      }
    }
    for (const QueueEntry& e : spill_) {
      if (fn(e)) return true;
    }
    return false;
  }

  /// Drops every resident entry; the anchor resets so the next push may sit
  /// anywhere on the time axis.  Telemetry persists (lifetime counters).
  void clear() noexcept;

  [[nodiscard]] const Telemetry& telemetry() const noexcept { return telemetry_; }

  /// Heap bytes retained: slot storage (near, coarse, front), the spare
  /// list, and the side and spill heaps.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  static constexpr int kNearBits = 8;  ///< 256 one-quantum near buckets
  static constexpr std::int64_t kNearSlots = std::int64_t{1} << kNearBits;
  static constexpr std::int64_t kNearMask = kNearSlots - 1;
  static constexpr int kCoarseBits = 6;  ///< 64 overflow slots of kNearSlots each
  static constexpr std::int64_t kCoarseSlots = std::int64_t{1} << kCoarseBits;
  static constexpr std::int64_t kCoarseMask = kCoarseSlots - 1;

  /// floor(at / quantum) as a signed bucket index — monotone in `at` and
  /// well-defined for negative warm-up times, which is all the determinism
  /// argument needs from the quantization.
  [[nodiscard]] std::int64_t bucket_of(Time at) const noexcept;

  /// Routes an entry to side/near/coarse/spill by its bucket index.
  void place(QueueEntry entry, std::int64_t bucket);
  /// Appends to a wheel slot, handing an empty slot a spare's storage
  /// before the append would allocate.
  void append(std::vector<QueueEntry>& slot, const QueueEntry& entry);
  /// Empties `slot` and parks its storage on the spare list, or frees it
  /// when the spares already hold as many entries as are resident.
  void recycle(std::vector<QueueEntry>& slot);
  /// Scatters the coarse slot at coarse_cursor_ into the near wheel.
  void promote_coarse();
  /// Moves spill entries that entered the coarse horizon into the wheels.
  void pull_spill();
  /// Advances the cursor to the next occupied bucket and loads it into
  /// front_ (sorted by (time, id)).  Requires an entry resident in the
  /// wheels or the spill heap.
  void advance();
  /// Sorted-front / side-heap merge used by top() and pop(): true when the
  /// front head exists and fires before the side head.
  [[nodiscard]] bool front_is_next() const noexcept;

  double inv_quantum_;
  /// Cursor anchors lazily at the first push (times may start anywhere,
  /// including negative warm-up).
  bool anchored_ = false;
  /// Buckets <= cursor_ have been collected; wheel residents are strictly
  /// above it.
  std::int64_t cursor_ = 0;
  std::int64_t coarse_cursor_ = 0;  ///< == cursor_ >> kNearBits
  std::vector<std::vector<QueueEntry>> near_;
  std::vector<std::vector<QueueEntry>> coarse_;
  std::vector<QueueEntry> spill_;  ///< (time, id) min-heap beyond the coarse horizon
  std::vector<QueueEntry> side_;   ///< (time, id) min-heap of late arrivals (bucket <= cursor_)
  std::vector<QueueEntry> front_;  ///< current bucket, ascending (time, id)
  /// Drained bucket storage (empty, capacity > 0), reused LIFO by append().
  std::vector<std::vector<QueueEntry>> spares_;
  /// Total capacity of spares_, in entries; kept <= size_ when parking.
  std::size_t spare_entries_ = 0;
  std::size_t front_pos_ = 0;
  std::size_t near_live_ = 0;
  std::size_t coarse_live_ = 0;
  std::size_t size_ = 0;
  Telemetry telemetry_;
};

}  // namespace gs::sim
