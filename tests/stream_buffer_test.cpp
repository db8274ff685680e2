// StreamBuffer FIFO semantics, positions (p_ij), availability maps;
// Playback engine timing, stalls and gates; RateBudget; BandwidthSampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "stream/bandwidth.hpp"
#include "stream/playback.hpp"
#include "stream/stream_buffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace gs::stream {
namespace {

TEST(StreamBuffer, InsertContainsEvict) {
  StreamBuffer buffer(3);
  EXPECT_EQ(buffer.insert(10), kNoSegment);
  EXPECT_EQ(buffer.insert(11), kNoSegment);
  EXPECT_EQ(buffer.insert(12), kNoSegment);
  EXPECT_EQ(buffer.size(), 3u);
  // Fourth insert evicts the FIFO-oldest (10).
  EXPECT_EQ(buffer.insert(13), 10);
  EXPECT_FALSE(buffer.contains(10));
  EXPECT_TRUE(buffer.contains(13));
  EXPECT_EQ(buffer.eviction_count(), 1u);
}

TEST(StreamBuffer, DuplicateInsertIgnored) {
  StreamBuffer buffer(3);
  buffer.insert(5);
  EXPECT_EQ(buffer.insert(5), kNoSegment);
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(StreamBuffer, FifoIsInsertionOrderNotIdOrder) {
  StreamBuffer buffer(2);
  buffer.insert(20);
  buffer.insert(10);  // out of id order
  EXPECT_EQ(buffer.insert(30), 20) << "oldest *inserted* evicted";
  EXPECT_TRUE(buffer.contains(10));
}

TEST(StreamBuffer, PositionFromTail) {
  // Paper Table 2: position is distance from the buffer tail; the paper's
  // rarity (eq. 8) uses position/B as replacement probability, so the
  // newest segment must have the smallest position.
  StreamBuffer buffer(10);
  buffer.insert(1);
  buffer.insert(2);
  buffer.insert(3);
  EXPECT_EQ(buffer.position_from_tail(3), 1u);
  EXPECT_EQ(buffer.position_from_tail(2), 2u);
  EXPECT_EQ(buffer.position_from_tail(1), 3u);
  EXPECT_EQ(buffer.position_from_tail(99), 0u) << "absent segment";
}

TEST(StreamBuffer, PositionSurvivesEviction) {
  StreamBuffer buffer(3);
  buffer.insert(1);
  buffer.insert(2);
  buffer.insert(3);
  buffer.insert(4);  // evicts 1
  EXPECT_EQ(buffer.position_from_tail(1), 0u);
  EXPECT_EQ(buffer.position_from_tail(2), 3u);
  EXPECT_EQ(buffer.position_from_tail(4), 1u);
}

TEST(StreamBuffer, OldestPositionNeverExceedsCapacity) {
  StreamBuffer buffer(50);
  for (SegmentId id = 0; id < 500; ++id) {
    buffer.insert(id);
    const SegmentId oldest = buffer.oldest();
    EXPECT_LE(buffer.position_from_tail(oldest), 50u);
  }
}

TEST(StreamBuffer, MaxIdTracking) {
  StreamBuffer buffer(3);
  EXPECT_EQ(buffer.max_id(), kNoSegment);
  buffer.insert(7);
  buffer.insert(3);
  EXPECT_EQ(buffer.max_id(), 7);
  buffer.insert(9);
  EXPECT_EQ(buffer.max_id(), 9);
  // Evicting the max triggers a rescan.
  StreamBuffer small(2);
  small.insert(10);
  small.insert(4);
  small.insert(5);  // evicts 10, the max
  EXPECT_EQ(small.max_id(), 5);
}

TEST(StreamBuffer, PresenceBitsetTracksContents) {
  StreamBuffer buffer(2);
  buffer.insert(0);
  buffer.insert(1);
  buffer.insert(2);  // evicts 0
  const auto& presence = buffer.presence();
  EXPECT_FALSE(presence.test(0));
  EXPECT_TRUE(presence.test(1));
  EXPECT_TRUE(presence.test(2));
}

TEST(StreamBuffer, BuildMapWindowEndsAtNewest) {
  StreamBuffer buffer(600);
  for (SegmentId id = 0; id < 700; ++id) buffer.insert(id);
  const auto map = buffer.build_map(600);
  EXPECT_EQ(map.base(), 100);
  EXPECT_TRUE(map.available(100));
  EXPECT_TRUE(map.available(699));
  EXPECT_FALSE(map.available(99));
  EXPECT_EQ(map.available_count(), 600u);
}

TEST(StreamBuffer, BuildMapEmptyBuffer) {
  StreamBuffer buffer(10);
  const auto map = buffer.build_map(600);
  EXPECT_EQ(map.available_count(), 0u);
}

/// Node-based reference FIFO: insertion order in a deque, insertion
/// sequence numbers in a map.  Obviously correct, and what the ring +
/// open-addressed map must reproduce observably.
struct ReferenceFifo {
  std::size_t capacity = 0;
  std::deque<SegmentId> order;
  std::map<SegmentId, std::uint64_t> sequence;
  std::uint64_t next_sequence = 1;

  SegmentId insert(SegmentId id) {
    if (sequence.count(id) != 0) return kNoSegment;
    order.push_back(id);
    sequence[id] = next_sequence++;
    if (order.size() <= capacity) return kNoSegment;
    const SegmentId victim = order.front();
    order.pop_front();
    sequence.erase(victim);
    return victim;
  }
  [[nodiscard]] SegmentId max_id() const {
    return order.empty() ? kNoSegment : *std::max_element(order.begin(), order.end());
  }
  [[nodiscard]] SegmentId min_id() const {
    return order.empty() ? kNoSegment : *std::min_element(order.begin(), order.end());
  }
  [[nodiscard]] std::size_t position_from_tail(SegmentId id) const {
    const auto it = sequence.find(id);
    return it == sequence.end() ? 0 : static_cast<std::size_t>(next_sequence - it->second);
  }
};

TEST(StreamBuffer, RingMatchesReferenceFifoOnRandomWorkload) {
  // Same victims, same max, same positions as the node-based FIFO.
  util::Rng rng(321);
  ReferenceFifo reference;
  reference.capacity = 32;
  StreamBuffer ring(32);
  SegmentId next = 0;
  for (int step = 0; step < 5000; ++step) {
    // Mostly fresh ids with occasional duplicates and out-of-order inserts.
    SegmentId id;
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 7) {
      id = next++;
    } else {
      id = rng.uniform_int(0, next > 0 ? next - 1 : 0);
    }
    EXPECT_EQ(reference.insert(id), ring.insert(id)) << "step " << step;
    ASSERT_EQ(reference.order.size(), ring.size());
    EXPECT_EQ(reference.max_id(), ring.max_id());
    EXPECT_EQ(reference.order.front(), ring.oldest());
    EXPECT_EQ(reference.order.back(), ring.newest());
    const SegmentId probe = rng.uniform_int(0, next > 0 ? next - 1 : 0);
    EXPECT_EQ(reference.sequence.count(probe) != 0, ring.contains(probe)) << "step " << step;
    EXPECT_EQ(reference.position_from_tail(probe), ring.position_from_tail(probe));
  }
}

TEST(StreamBuffer, SequenceWindowWidensOverAWideIdSpan) {
  // Ids 0 and 5000 held together force the window far past its 64 starting
  // slots; out-of-order re-inserts in between must all keep their exact
  // FIFO positions, and evicting the minimum must advance it.
  ReferenceFifo reference;
  reference.capacity = 8;
  StreamBuffer buffer(8);
  std::vector<SegmentId> seen;
  const auto insert_and_check = [&](SegmentId id) {
    EXPECT_EQ(reference.insert(id), buffer.insert(id)) << "id " << id;
    seen.push_back(id);
    EXPECT_EQ(reference.min_id(), buffer.min_id()) << "after id " << id;
    EXPECT_EQ(reference.max_id(), buffer.max_id()) << "after id " << id;
    for (const SegmentId probe : seen) {
      EXPECT_EQ(reference.position_from_tail(probe), buffer.position_from_tail(probe))
          << "probe " << probe << " after id " << id;
    }
  };
  insert_and_check(0);
  const std::size_t narrow = buffer.memory_bytes() - buffer.presence().memory_bytes();
  insert_and_check(5000);
  EXPECT_GE(buffer.memory_bytes() - buffer.presence().memory_bytes(),
            narrow + 5000 * sizeof(std::uint32_t))
      << "the window must exceed the held span";
  for (const SegmentId id : {2500, 1, 4999, 0, 3000, 7, 4000, 2, 4998, 6, 1, 5001}) {
    insert_and_check(id);
  }
  // The insert of 2 evicted 0, the minimum: the minimum moved on to 1.
  EXPECT_FALSE(buffer.contains(0));
  for (SegmentId id = 5002; id < 5012; ++id) insert_and_check(id);
  EXPECT_EQ(buffer.min_id(), 5004);
}

TEST(StreamBuffer, CapacityOneBufferKeepsOnlyTheLatestId) {
  StreamBuffer buffer(1);
  EXPECT_EQ(buffer.insert(10), kNoSegment);
  EXPECT_EQ(buffer.position_from_tail(10), 1u);
  EXPECT_EQ(buffer.insert(3), 10);
  EXPECT_EQ(buffer.min_id(), 3);
  EXPECT_EQ(buffer.max_id(), 3);
  EXPECT_EQ(buffer.position_from_tail(10), 0u);
  EXPECT_EQ(buffer.position_from_tail(3), 1u);
  EXPECT_EQ(buffer.insert(9000), 3);
  EXPECT_EQ(buffer.min_id(), 9000);
  EXPECT_EQ(buffer.position_from_tail(9000), 1u);
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(StreamBuffer, SequenceWindowStaysNearCapacityOnAStream) {
  // B = 600 and 10^4 ids arriving mostly in order (about one in ten swapped
  // with an id up to 50 places later): the held span stays under 1024, so
  // the window never needs more than 1024 slots.
  constexpr std::size_t kCapacity = 600;
  std::vector<SegmentId> arrivals(10000);
  for (std::size_t i = 0; i < arrivals.size(); ++i) arrivals[i] = static_cast<SegmentId>(i);
  util::Rng rng(99);
  for (std::size_t i = 0; i + 50 < arrivals.size(); ++i) {
    if (rng.uniform_int(0, 9) == 0) {
      std::swap(arrivals[i], arrivals[i + static_cast<std::size_t>(rng.uniform_int(1, 50))]);
    }
  }
  ReferenceFifo reference;
  reference.capacity = kCapacity;
  StreamBuffer buffer(kCapacity);
  for (const SegmentId id : arrivals) {
    reference.insert(id);
    buffer.insert(id);
  }
  EXPECT_LE(buffer.memory_bytes(), buffer.presence().memory_bytes() +
                                       kCapacity * sizeof(SegmentId) +
                                       1024 * sizeof(std::uint32_t));
  for (SegmentId id = 9000; id < 10000; ++id) {
    EXPECT_EQ(reference.position_from_tail(id), buffer.position_from_tail(id)) << "id " << id;
  }
}

// ---------------------------------------------------------------- playback

TEST(Playback, StartAndAdvance) {
  Playback pb(10.0);
  EXPECT_FALSE(pb.started());
  pb.start(0, 0.0);
  EXPECT_TRUE(pb.started());
  std::vector<std::pair<SegmentId, double>> plays;
  const auto has = [](SegmentId) { return true; };
  const auto on_play = [&](SegmentId id, double t) { plays.emplace_back(id, t); };
  pb.advance(0.35, has, on_play);
  // Due times 0.0, 0.1, 0.2, 0.3 have elapsed.
  ASSERT_EQ(plays.size(), 4u);
  EXPECT_EQ(plays[0].first, 0);
  EXPECT_DOUBLE_EQ(plays[3].second, 0.3);
  EXPECT_EQ(pb.cursor(), 4);
}

TEST(Playback, ExactTimestampsAcrossLazyCalls) {
  // Calling advance late must still assign each segment its theoretical
  // due time (event-free exactness).
  Playback pb(10.0);
  pb.start(0, 0.0);
  std::vector<double> times;
  pb.advance(1.05, [](SegmentId) { return true; },
             [&](SegmentId, double t) { times.push_back(t); });
  ASSERT_EQ(times.size(), 11u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(times[i], 0.1 * static_cast<double>(i), 1e-9);
  }
}

TEST(Playback, StallResumesAtArrival) {
  Playback pb(10.0);
  pb.start(0, 0.0);
  std::vector<std::pair<SegmentId, double>> plays;
  bool have1 = false;
  const auto has = [&](SegmentId id) { return id == 0 || (id == 1 && have1) || id > 1; };
  const auto on_play = [&](SegmentId id, double t) { plays.emplace_back(id, t); };
  pb.advance(0.5, has, on_play);  // plays 0 at 0.0, stalls on 1 (due 0.1)
  ASSERT_EQ(plays.size(), 1u);
  // Segment 1 arrives at t = 0.7: stall of 0.6 s.
  have1 = true;
  pb.notify_arrival(1, 0.7);
  pb.advance(0.7, has, on_play);
  ASSERT_EQ(plays.size(), 2u);
  EXPECT_DOUBLE_EQ(plays[1].second, 0.7) << "resumed at arrival, not retroactively";
  EXPECT_NEAR(pb.stall_time(), 0.6, 1e-9);
  // Subsequent segments continue from the resumed schedule.
  pb.advance(0.85, has, on_play);
  ASSERT_EQ(plays.size(), 3u);
  EXPECT_DOUBLE_EQ(plays[2].second, 0.8);
}

TEST(Playback, StallDetectedLazily) {
  // Even if advance() was never called while the segment was missing, an
  // arrival after the due time counts the stall.
  Playback pb(10.0);
  pb.start(0, 0.0);
  pb.notify_arrival(0, 0.5);  // first segment arrives late
  std::vector<double> times;
  pb.advance(0.5, [](SegmentId) { return true; },
             [&](SegmentId, double t) { times.push_back(t); });
  ASSERT_GE(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_NEAR(pb.stall_time(), 0.5, 1e-9);
}

TEST(Playback, GateBlocksUntilReleased) {
  Playback pb(10.0);
  pb.start(0, 0.0);
  pb.set_gate(5);
  std::vector<SegmentId> played;
  const auto has = [](SegmentId) { return true; };
  const auto on_play = [&](SegmentId id, double) { played.push_back(id); };
  pb.advance(2.0, has, on_play);
  ASSERT_EQ(played.size(), 5u) << "segments 0..4 play; 5 is gated";
  EXPECT_EQ(pb.cursor(), 5);
  pb.release_gate(2.0);
  pb.advance(2.0, has, on_play);
  ASSERT_EQ(played.size(), 6u);
  EXPECT_EQ(played.back(), 5);
}

TEST(Playback, GateReleaseSetsDueToNow) {
  Playback pb(10.0);
  pb.start(0, 0.0);
  pb.set_gate(2);
  const auto has = [](SegmentId) { return true; };
  std::vector<double> times;
  const auto on_play = [&](SegmentId, double t) { times.push_back(t); };
  pb.advance(5.0, has, on_play);  // plays 0,1; gate at 2
  pb.release_gate(5.0);
  pb.advance(5.0, has, on_play);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[2], 5.0) << "gated segment plays at release time";
}

TEST(Playback, PlayedCountAccumulates) {
  Playback pb(10.0);
  pb.start(0, 0.0);
  pb.advance(0.95, [](SegmentId) { return true; }, [](SegmentId, double) {});
  EXPECT_EQ(pb.played_count(), 10u);
}

/// Reference playback with the arrival record in an ordered map (erased as
/// the cursor passes): the straightforward form of Playback's bounded
/// direct-mapped arrival ring, without the window bound or the id-check
/// trick.
struct ReferencePlayback {
  double interval = 0.1;
  SegmentId cursor = 0;
  double next_due = 0.0;
  double stall_time = 0.0;
  std::map<SegmentId, double> arrivals;

  void notify_arrival(SegmentId id, double now) {
    if (id < cursor) return;
    if (id == cursor) {
      if (next_due < now) {
        stall_time += now - next_due;
        next_due = now;
      }
      return;
    }
    arrivals[id] = now;
  }
  template <typename Has>
  std::vector<std::pair<SegmentId, double>> advance(double now, const Has& has) {
    std::vector<std::pair<SegmentId, double>> plays;
    while (next_due <= now && has(cursor)) {
      const auto it = arrivals.find(cursor);
      if (it != arrivals.end()) {
        if (it->second > next_due) {
          stall_time += it->second - next_due;
          next_due = it->second;
        }
        arrivals.erase(it);
        if (next_due > now) break;
      }
      plays.emplace_back(cursor, next_due);
      ++cursor;
      next_due += interval;
      arrivals.erase(arrivals.begin(), arrivals.lower_bound(cursor));
    }
    return plays;
  }
};

TEST(Playback, ArrivalRingMatchesReferenceOnLateArrivals) {
  // Arrival-driven stall accounting through the bounded ring must match
  // the unbounded ordered-map record on identical late-arrival schedules.
  util::Rng rng(654);
  ReferencePlayback reference;
  Playback ring(10.0);
  ring.start(0, 0.0);
  std::vector<bool> have(400, false);
  const auto has = [&](SegmentId id) {
    return id >= 0 && static_cast<std::size_t>(id) < have.size() &&
           have[static_cast<std::size_t>(id)];
  };
  double now = 0.0;
  SegmentId next_arrival = 0;
  std::size_t played = 0;
  for (int step = 0; step < 300; ++step) {
    now += 0.01 * static_cast<double>(rng.uniform_int(1, 20));
    // Deliver a random burst, sometimes leaving gaps that stall playback.
    const auto burst = rng.uniform_int(0, 2);
    for (SegmentId k = 0; k < burst && next_arrival < 400; ++k) {
      have[static_cast<std::size_t>(next_arrival)] = true;
      reference.notify_arrival(next_arrival, now);
      ring.notify_arrival(next_arrival, now);
      ++next_arrival;
    }
    const auto reference_plays = reference.advance(now, has);
    std::vector<std::pair<SegmentId, double>> ring_plays;
    ring.advance(now, has, [&](SegmentId id, double t) { ring_plays.emplace_back(id, t); });
    ASSERT_EQ(reference_plays, ring_plays) << "step " << step;
    played += ring_plays.size();
    EXPECT_EQ(reference.cursor, ring.cursor());
    EXPECT_DOUBLE_EQ(reference.stall_time, ring.stall_time());
  }
  EXPECT_EQ(ring.played_count(), played);
  EXPECT_GT(ring.stall_time(), 0.0) << "workload should have exercised stalls";
}

// ---------------------------------------------------------------- budgets

TEST(RateBudget, ReplenishAndSpend) {
  RateBudget budget(10.0, 1.0);
  EXPECT_EQ(budget.whole(), 0u);
  budget.replenish(1.0);
  EXPECT_EQ(budget.whole(), 10u);
  budget.spend(3.0);
  EXPECT_EQ(budget.whole(), 7u);
}

TEST(RateBudget, CarryCap) {
  RateBudget budget(10.0, 1.0);
  budget.replenish(1.0);
  budget.replenish(1.0);  // no banking beyond one period
  EXPECT_EQ(budget.whole(), 10u);
  RateBudget banked(10.0, 2.0);
  banked.replenish(1.0);
  banked.replenish(1.0);
  EXPECT_EQ(banked.whole(), 20u);
}

TEST(RateBudget, FractionalRateAccumulates) {
  RateBudget budget(0.5, 4.0);
  budget.replenish(1.0);
  EXPECT_EQ(budget.whole(), 0u);
  budget.replenish(1.0);
  EXPECT_EQ(budget.whole(), 1u);
}

TEST(BandwidthSampler, PaperInboundStatistics) {
  // I in [10, 33.3] with mean 15 (300Kbps..1Mbps, average 450Kbps).
  const BandwidthSampler sampler = BandwidthSampler::paper_inbound();
  util::Rng rng(5);
  util::RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    const double x = sampler.sample(rng);
    EXPECT_GE(x, 10.0);
    EXPECT_LE(x, sampler.max());
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 15.0, 0.15);
}

TEST(BandwidthSampler, ArbitraryMeanHit) {
  const BandwidthSampler sampler(2.0, 10.0, 7.0);
  util::Rng rng(6);
  util::RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(sampler.sample(rng));
  EXPECT_NEAR(stats.mean(), 7.0, 0.1);
}

}  // namespace
}  // namespace gs::stream
