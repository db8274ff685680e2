// Periodic task helper: re-arms a callback every `period` seconds.
//
// Used for per-node scheduling ticks (τ = 1 s in the paper) and the churn
// process.  Cancellation is needed when a node leaves the overlay.
//
// BatchTicker is the batched counterpart: groups of members that share a
// tick phase are swept by ONE simulator event per group per period instead
// of one PeriodicTask per member.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace gs::sim {

/// Owns a repeating event.  Destroying or cancel()ing the task stops the
/// repetition; the callback is never invoked afterwards.
class PeriodicTask {
 public:
  /// Schedules `action` at start, start+period, start+2*period, ...
  /// `start` is absolute; must be >= sim.now().
  PeriodicTask(Simulator& sim, Time start, Time period, std::function<void(Time)> action);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Stops future firings.  Safe to call from within the action.
  void cancel();

  [[nodiscard]] bool active() const noexcept { return state_ && state_->active; }

 private:
  struct State {
    bool active = true;
  };

  void arm(Time when);

  Simulator& sim_;
  Time period_;
  std::function<void(Time)> action_;
  std::shared_ptr<State> state_;
  EventId pending_ = 0;
};

/// Batched tick dispatch: each group holds members that tick at the same
/// times (`first + k * period`), and one pooled simulator event per group
/// per period hands the whole member list to the sweep callback.
///
/// A sweep that visits its members in list order sees *exactly* the
/// (time, member) sequence the equivalent per-member PeriodicTasks would
/// produce (sim_property_test checks this):
///   - members of a group are swept in add order (a per-member task armed
///     later would carry a later event sequence number);
///   - groups whose fire times tie run in group-creation order (creation
///     schedules each group's first event, claiming a sequence slot, and
///     re-arms happen in sweep order every period thereafter);
///   - the group's re-arm is scheduled at the end of its sweep, collapsing
///     the per-member run of re-arm sequence numbers into one.  No foreign
///     event can land inside that run (only deliveries are scheduled while
///     a sweep executes, and they target continuous, strictly later
///     times), so the collapse preserves every cross-event ordering.
///
/// Under batched pops (Simulator::enable_batch_pop) the ticker additionally
/// *super-batches*: a run of groups firing at the same timestamp arrives as
/// one on_batch call, and their member lists are concatenated (item
/// order, members in add order) into a SINGLE sweep — one pre/plan/commit
/// pipeline pass covers every tied group instead of one fork/join per
/// group.  This reproduces the per-group
/// outcome exactly: member order is preserved, the sweep callback re-plans
/// any member whose speculation an earlier member invalidated, and the
/// groups' re-arms collapse to the end of the super-batch by the same
/// continuous-delivery-times argument that justifies the per-group re-arm
/// collapse above.  Lockstep configurations (no tick stagger) put
/// N/tick_shard_size groups at every period boundary, so this is where the
/// sweep dispatch cost of the lockstep scale runs goes.
class BatchTicker final : public EventSink {
 public:
  /// Receives the live member list (add order) of the firing group, or of
  /// a super-batched run of groups.  The engine runs the members through
  /// its barrier-phased passes (pre in member order, plan in parallel,
  /// commit wave); the callee must give the result of visiting the members
  /// one by one in list order, and must not mutate the list.
  using BatchSweep = std::function<void(const std::vector<std::uint32_t>& members, Time now)>;

  BatchTicker(Simulator& sim, Time period, BatchSweep sweep);
  ~BatchTicker() override;

  BatchTicker(const BatchTicker&) = delete;
  BatchTicker& operator=(const BatchTicker&) = delete;

  /// Creates a group whose sweeps fire at `first + k * period` (`first` >=
  /// sim.now()) and returns its index.  The first event is scheduled here,
  /// so relative to other events already pending at `first` the group
  /// orders by this call — the sequence slot a PeriodicTask armed at the
  /// same call site would take.
  std::size_t add_group(Time first);

  /// Appends `member` to `group`'s sweep, after all existing members.  The
  /// group must still be live (a group goes dormant once it fires with no
  /// members left).
  void add_member(std::size_t group, std::uint32_t member);

  /// Removes `member` from `group`; remaining members keep their order.
  void remove_member(std::size_t group, std::uint32_t member);

  [[nodiscard]] std::size_t group_count() const noexcept { return groups_.size(); }
  [[nodiscard]] std::size_t member_count(std::size_t group) const;
  /// True until the group fires with no members (then it stops re-arming).
  [[nodiscard]] bool group_live(std::size_t group) const;

  /// Same-timestamp group runs merged into one concatenated sweep
  /// (batched-pop dispatch only).
  [[nodiscard]] std::uint64_t superbatch_count() const noexcept { return superbatches_; }

  /// Batched pops opt-in: same-time runs only (sweeps schedule re-arms and
  /// transfers, so a batch must not span timestamps).
  [[nodiscard]] bool batchable() const noexcept override { return true; }

 private:
  struct Group {
    Time next = 0.0;
    EventId pending = 0;
    std::vector<std::uint32_t> members;
    /// Guard: a sweep callback cannot mutate a member list being iterated.
    bool sweeping = false;
  };

  /// Sweeps group `a` at its fire time, then re-arms it.
  void on_event(std::uint64_t a, std::uint64_t b) override;
  /// Super-batch: sweeps a same-timestamp run of groups as one
  /// concatenated BatchSweep pass, then re-arms each group in run order.
  void on_batch(const PooledBatchItem* items, std::size_t count) override;

  Simulator& sim_;
  Time period_;
  BatchSweep sweep_;
  /// Stable member-list copy handed to sweep_ (reused capacity).
  std::vector<std::uint32_t> batch_scratch_;
  std::vector<Group> groups_;
  std::uint64_t superbatches_ = 0;
};

}  // namespace gs::sim
