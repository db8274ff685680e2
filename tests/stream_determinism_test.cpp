// Determinism regression for the decomposed engine: two independently
// constructed engines with the same seed must reproduce *identical*
// SwitchMetrics — every scalar, every per-node time, every track sample —
// under both algorithms, churn, the per-link capacity model and
// multi-switch timelines.  This is the oracle that the PeerNode /
// TransferPlane / SwitchTimeline decomposition (and every later scaling
// refactor) preserves the simulation bit for bit.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fast_switch.hpp"
#include "core/normal_switch.hpp"
#include "net/topology.hpp"
#include "stream/commit_colouring.hpp"
#include "stream/engine.hpp"

namespace gs::stream {
namespace {

struct RunOutput {
  std::vector<SwitchMetrics> metrics;
  EngineStats stats;
};

struct RunSpec {
  std::uint64_t seed = 7;
  bool fast = true;
  bool churn = false;
  bool per_link = false;
  bool token_bucket = false;
  bool stagger = true;
  bool delta_maps = false;
  /// Fresh-segment push (the one model that keeps the sharded core on
  /// inline delivery pops).
  bool push = false;
  /// Flash-crowd joiners admitted shortly after the first switch (0 = off).
  std::size_t flash_joins = 0;
  /// CDN-assisted fast switch (changes dynamics by design when on; off must
  /// stay bit-identical to a build without the plane).
  bool cdn = false;
  /// Debug cross-check: re-build gated plans and assert emptiness.
  bool gate_recheck = false;
  /// Caught-up steady swarm (no synthetic backlog or lag): the scenario
  /// where most peers quiesce and the plan gate actually fires.
  bool steady = false;
  std::size_t parallel = 0;
  std::size_t tick_shard = 16;
  std::vector<net::NodeId> sources = {0, 1};
  std::vector<double> switch_times = {0.0};
};

RunOutput run_setup(const RunSpec& setup) {
  util::Rng rng(setup.seed);
  net::Graph graph = net::preferential_attachment(50, 2, rng);
  net::repair_min_degree(graph, 5, rng);
  std::vector<double> pings(50);
  for (auto& ping : pings) ping = rng.uniform(20.0, 200.0);

  EngineConfig config;
  config.seed = setup.seed;
  config.horizon = 120.0;
  if (setup.churn) {
    config.churn_leave_fraction = 0.05;
    config.churn_join_fraction = 0.05;
  }
  if (setup.per_link) config.supplier_capacity = SupplierCapacityModel::kPerLink;
  if (setup.token_bucket) config.supplier_capacity = SupplierCapacityModel::kTokenBucket;
  config.stagger_ticks = setup.stagger;
  config.delta_maps = setup.delta_maps;
  config.push_fresh_segments = setup.push;
  config.flash_crowd_joins = setup.flash_joins;
  config.cdn_assist = setup.cdn;
  config.plan_gate_recheck = setup.gate_recheck;
  if (setup.steady) {
    config.sparse_fill = 1.0;
    config.stable_backlog_scale = 0.0;
    config.base_lag_segments = 0.0;
    config.hop_lag_seconds = 0.0;
  }
  config.parallel_shards = setup.parallel;
  config.tick_shard_size = setup.tick_shard;

  std::shared_ptr<SchedulerStrategy> strategy;
  if (setup.fast) {
    strategy = std::make_shared<core::FastSwitchScheduler>();
  } else {
    strategy = std::make_shared<core::NormalSwitchScheduler>();
  }
  auto engine = std::make_unique<Engine>(std::move(graph), net::LatencyModel(std::move(pings)),
                                         config, std::move(strategy));
  engine->set_sources(setup.sources, setup.switch_times);
  RunOutput out;
  out.metrics = engine->run();
  out.stats = engine->stats();
  return out;
}

void expect_identical(const SwitchMetrics& a, const SwitchMetrics& b) {
  EXPECT_EQ(a.switch_index, b.switch_index);
  EXPECT_EQ(a.switch_time, b.switch_time);
  EXPECT_EQ(a.tracked, b.tracked);
  EXPECT_EQ(a.finished_s1, b.finished_s1);
  EXPECT_EQ(a.prepared_s2, b.prepared_s2);
  EXPECT_EQ(a.censored_finish, b.censored_finish);
  EXPECT_EQ(a.censored_prepare, b.censored_prepare);
  EXPECT_EQ(a.finish_times, b.finish_times) << "per-node finish times diverged";
  EXPECT_EQ(a.prepared_times, b.prepared_times) << "per-node prepared times diverged";
  EXPECT_EQ(a.s2_start_times, b.s2_start_times);
  EXPECT_EQ(a.overhead_ratio, b.overhead_ratio);
  EXPECT_EQ(a.control_ratio, b.control_ratio);
  EXPECT_EQ(a.data_segments, b.data_segments);
  ASSERT_EQ(a.track.size(), b.track.size());
  for (std::size_t i = 0; i < a.track.size(); ++i) {
    EXPECT_EQ(a.track[i].time, b.track[i].time);
    EXPECT_EQ(a.track[i].undelivered_ratio_s1, b.track[i].undelivered_ratio_s1);
    EXPECT_EQ(a.track[i].delivered_ratio_s2, b.track[i].delivered_ratio_s2);
    EXPECT_EQ(a.track[i].live_tracked, b.track[i].live_tracked);
  }
}

void expect_identical(const RunOutput& a, const RunOutput& b) {
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t k = 0; k < a.metrics.size(); ++k) {
    expect_identical(a.metrics[k], b.metrics[k]);
  }
  EXPECT_EQ(a.stats.segments_generated, b.stats.segments_generated);
  EXPECT_EQ(a.stats.segments_delivered, b.stats.segments_delivered);
  EXPECT_EQ(a.stats.segments_pushed, b.stats.segments_pushed);
  EXPECT_EQ(a.stats.requests_issued, b.stats.requests_issued);
  EXPECT_EQ(a.stats.requests_rejected, b.stats.requests_rejected);
  EXPECT_EQ(a.stats.duplicates, b.stats.duplicates);
  EXPECT_EQ(a.stats.joins, b.stats.joins);
  EXPECT_EQ(a.stats.leaves, b.stats.leaves);
  EXPECT_EQ(a.stats.old_stream_requests, b.stats.old_stream_requests);
  EXPECT_EQ(a.stats.new_stream_requests, b.stats.new_stream_requests);
  EXPECT_EQ(a.stats.cdn_segments_served, b.stats.cdn_segments_served);
  EXPECT_EQ(a.stats.cdn_bytes_served, b.stats.cdn_bytes_served);
  EXPECT_EQ(a.stats.cdn_requests_rejected, b.stats.cdn_requests_rejected);
  EXPECT_EQ(a.stats.cdn_assisted_switches, b.stats.cdn_assisted_switches);
  EXPECT_EQ(a.stats.cdn_handoffs, b.stats.cdn_handoffs);
  EXPECT_EQ(a.stats.cdn_pauses, b.stats.cdn_pauses);
  EXPECT_EQ(a.stats.cdn_resumes, b.stats.cdn_resumes);
  EXPECT_EQ(a.stats.cdn_mean_assist_s, b.stats.cdn_mean_assist_s);
}

TEST(Determinism, FastSwitchReproducesIdenticalMetrics) {
  RunSpec setup;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(Determinism, NormalSwitchReproducesIdenticalMetrics) {
  RunSpec setup;
  setup.fast = false;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(Determinism, ChurnRunReproducesIdenticalMetrics) {
  RunSpec setup;
  setup.seed = 19;
  setup.churn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(Determinism, PerLinkCapacityReproducesIdenticalMetrics) {
  RunSpec setup;
  setup.seed = 27;
  setup.per_link = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(Determinism, MultiSwitchReproducesIdenticalMetrics) {
  RunSpec setup;
  setup.seed = 23;
  setup.sources = {0, 1, 2};
  setup.switch_times = {0.0, 60.0};
  expect_identical(run_setup(setup), run_setup(setup));
}

// ---------------------------------------------------------------------------
// Delta accounting changes the *wire model*, not the dynamics: every metric
// except the overhead ratios must match the full-map run, and the ratios
// must drop (that is the point of sending deltas).

TEST(DeltaMaps, OnlyLowerTheOverheadRatio) {
  RunSpec setup;
  setup.seed = 59;
  RunSpec delta = setup;
  delta.delta_maps = true;
  const RunOutput full = run_setup(setup);
  const RunOutput with_delta = run_setup(delta);
  ASSERT_EQ(full.metrics.size(), with_delta.metrics.size());
  for (std::size_t k = 0; k < full.metrics.size(); ++k) {
    EXPECT_EQ(full.metrics[k].finish_times, with_delta.metrics[k].finish_times);
    EXPECT_EQ(full.metrics[k].prepared_times, with_delta.metrics[k].prepared_times);
    EXPECT_EQ(full.metrics[k].data_segments, with_delta.metrics[k].data_segments);
    EXPECT_LT(with_delta.metrics[k].overhead_ratio, full.metrics[k].overhead_ratio);
  }
  EXPECT_EQ(full.stats.segments_delivered, with_delta.stats.segments_delivered);
  EXPECT_EQ(full.stats.requests_issued, with_delta.stats.requests_issued);
  EXPECT_GT(with_delta.stats.delta_adverts, 0u);
  EXPECT_GT(with_delta.stats.full_map_adverts, 0u);
}

TEST(DeltaMaps, ChurnRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 61;
  setup.delta_maps = true;
  setup.churn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

// ---------------------------------------------------------------------------
// The sharded parallel core must be *observably invisible*: the same seed
// at any shard count — per-shard event queues, parallel tick planning,
// the coloured commit wave with its stale-plan fix-ups, the batched
// delivery wave and super-batched sweeps — has to reproduce every metric
// bit for bit against the sequential engine, across algorithms, churn,
// capacity models, flash crowds and tick-shard sizes.  Only wall clock
// and the shard diagnostics (parallel_sweeps / planned_ticks /
// replanned_ticks / cross_shard_events / events_popped and the wave
// counters) may change.

RunOutput run_sharded(RunSpec setup, std::size_t shards) {
  setup.parallel = shards;
  return run_setup(setup);
}

TEST(ParallelShards, EveryShardCountMatchesSequential) {
  RunSpec setup;
  const RunOutput sequential = run_setup(setup);
  for (const std::size_t shards : {1u, 4u, 7u}) {
    expect_identical(sequential, run_sharded(setup, shards));
  }
}

TEST(ParallelShards, NormalSwitchMatchesSequential) {
  RunSpec setup;
  setup.fast = false;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, ChurnMatchesSequential) {
  // Churn exercises joiner singleton sweeps, member removal mid-run and
  // dirty-stamp growth as the peer vector extends.
  RunSpec setup;
  setup.seed = 19;
  setup.churn = true;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, PerLinkCapacityMatchesSequential) {
  // Per-link capacity is requester-keyed: plans can never go stale, so the
  // commit phase must apply every speculation unchanged.
  RunSpec setup;
  setup.seed = 27;
  setup.per_link = true;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, TokenBucketCapacityMatchesSequential) {
  // Token-bucket capacity is supplier-keyed (shared), driving the
  // stale-plan re-plan path under a different backlog shape than the FIFO.
  RunSpec setup;
  setup.seed = 29;
  setup.token_bucket = true;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, MultiSwitchMatchesSequential) {
  RunSpec setup;
  setup.seed = 23;
  setup.sources = {0, 1, 2};
  setup.switch_times = {0.0, 60.0};
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, LockstepChurnMatchesSequential) {
  // Lockstep phases put every sweep of a period at the same timestamp —
  // the densest same-time event mix the merge rule has to keep ordered,
  // and the super-batch path: every period concatenates all groups into
  // one pipeline pass, so the commit wave runs at its largest counts.
  RunSpec setup;
  setup.seed = 37;
  setup.stagger = false;
  setup.churn = true;
  const RunOutput sequential = run_setup(setup);
  expect_identical(sequential, run_sharded(setup, 1));
  expect_identical(sequential, run_sharded(setup, 4));
}

TEST(ParallelShards, FlashCrowdMatchesSequential) {
  RunSpec setup;
  setup.seed = 53;
  setup.flash_joins = 40;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, LargeTickShardsMatchSequential) {
  // One sweep spanning many peers is the scale configuration (wide
  // parallel plans, many conflict checks per commit pass).
  RunSpec setup;
  setup.seed = 59;
  setup.tick_shard = 64;
  expect_identical(run_setup(setup), run_sharded(setup, 4));
}

TEST(ParallelShards, ShardedChurnRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 61;
  setup.parallel = 7;
  setup.churn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(ParallelShards, ShardDiagnosticsReportWork) {
  RunSpec setup;
  setup.tick_shard = 64;
  const RunOutput sequential = run_setup(setup);
  const RunOutput sharded = run_sharded(setup, 4);
  // 0 shards runs the same pipeline in one-member waves: every planned
  // tick commits in its class, none can go stale, and nothing crosses a
  // queue shard.
  EXPECT_GT(sequential.stats.parallel_sweeps, 0u);
  EXPECT_GT(sequential.stats.planned_ticks, 0u);
  EXPECT_EQ(sequential.stats.replanned_ticks, 0u);
  EXPECT_EQ(sequential.stats.commit_conflict_fixups, 0u);
  EXPECT_EQ(sequential.stats.planned_ticks, sequential.stats.parallel_commits);
  EXPECT_EQ(sequential.stats.cross_shard_events, 0u);
  EXPECT_EQ(sequential.stats.parallel_books, 0u);
  EXPECT_GT(sharded.stats.parallel_sweeps, 0u);
  EXPECT_GT(sharded.stats.planned_ticks, 0u);
  EXPECT_GE(sharded.stats.planned_ticks, sharded.stats.replanned_ticks);
  // At 50 nodes every sweep member shares suppliers, so the stale-plan
  // re-plan path must actually fire (the determinism above is not vacuous).
  EXPECT_GT(sharded.stats.replanned_ticks, 0u);
  EXPECT_GT(sharded.stats.cross_shard_events, 0u);
}

// ---------------------------------------------------------------------------
// The delivery wave (batched delivery pops drained through the
// book/tail/merge pipeline, plus same-timestamp sweep super-batching) runs
// whenever the sharded core runs without push; push keeps the inline pops
// (its results are pinned by the golden digests' push rows).

TEST(ParallelDelivery, DrainDiagnosticsReportWork) {
  RunSpec setup;
  setup.seed = 31;
  setup.stagger = false;  // lockstep: guarantees super-batched sweeps
  const RunOutput sequential = run_setup(setup);
  const RunOutput waved = run_sharded(setup, 4);
  RunSpec push = setup;
  push.push = true;
  const RunOutput pushed = run_sharded(push, 4);
  EXPECT_EQ(sequential.stats.delivery_batches, 0u);
  EXPECT_EQ(sequential.stats.delta_journal_merges, 0u);
  EXPECT_EQ(sequential.stats.superbatch_sweeps, 0u);
  EXPECT_GT(waved.stats.delivery_batches, 0u);
  EXPECT_GT(waved.stats.delta_journal_merges, 0u);
  EXPECT_GT(waved.stats.superbatch_sweeps, 0u);
  EXPECT_GT(pushed.stats.segments_pushed, 0u);
  EXPECT_EQ(pushed.stats.delivery_batches, 0u) << "push must keep the inline delivery pops";
  EXPECT_EQ(pushed.stats.superbatch_sweeps, 0u);
}

// ---------------------------------------------------------------------------
// The flash-crowd scenario rides the regular join path, so it must be a
// pure workload knob: deterministic for a fixed seed, and it must admit
// exactly the configured crowd.

TEST(FlashCrowd, RunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 71;
  setup.flash_joins = 40;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(FlashCrowd, AdmitsTheConfiguredCrowd) {
  RunSpec setup;
  setup.seed = 73;
  setup.flash_joins = 40;
  const RunOutput out = run_setup(setup);
  EXPECT_EQ(out.stats.flash_joins, 40u);
  EXPECT_GE(out.stats.joins, 40u) << "flash joiners are a subset of joins";
}

TEST(PeerPool, ReportsMemoryTelemetry) {
  RunSpec setup;
  setup.seed = 79;
  const RunOutput out = run_setup(setup);
  EXPECT_GT(out.stats.peer_state_bytes, 0u);
  EXPECT_GT(out.stats.bytes_per_peer, 0.0);
  // bytes_per_peer averages over the live peers.
  EXPECT_NEAR(out.stats.bytes_per_peer *
                  static_cast<double>(50 + out.stats.joins - out.stats.leaves),
              static_cast<double>(out.stats.peer_state_bytes), 1.0);
}

// ---------------------------------------------------------------------------
// CDN-assisted fast switch.  Unlike the mechanism flags above, the assist
// changes dynamics *by design*; what must hold is (a) fixed-seed runs with
// the assist on reproduce themselves bit for bit, (b) the assist composes
// with the sharded core — identical metrics at every shard count — and (c)
// with the assist off nothing changes (covered implicitly by every other
// suite here: those runs never construct the plane).

RunOutput run_assisted(RunSpec setup) {
  setup.cdn = true;
  return run_setup(setup);
}

TEST(CdnAssist, AssistedRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 83;
  setup.cdn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(CdnAssist, AssistedChurnRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 89;
  setup.cdn = true;
  setup.churn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(CdnAssist, AssistedMetricsIdenticalAtEveryShardCount) {
  RunSpec setup;
  setup.seed = 97;
  setup.cdn = true;
  const RunOutput sequential = run_setup(setup);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
    RunSpec sharded = setup;
    sharded.parallel = shards;
    expect_identical(sequential, run_setup(sharded));
  }
}

TEST(CdnAssist, AssistedFlashCrowdReproducesItself) {
  RunSpec setup;
  setup.seed = 107;
  setup.cdn = true;
  setup.flash_joins = 40;
  setup.parallel = 4;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(CdnAssist, AssistedTokenBucketReproducesItself) {
  RunSpec setup;
  setup.seed = 109;
  setup.cdn = true;
  setup.token_bucket = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(CdnAssist, AssistActuallyServes) {
  RunSpec setup;
  setup.seed = 113;
  const RunOutput out = run_assisted(setup);
  EXPECT_GT(out.stats.cdn_assisted_switches, 0u) << "switching peers should enroll";
  EXPECT_GT(out.stats.cdn_segments_served, 0u) << "the CDN should serve patch segments";
  EXPECT_EQ(out.stats.cdn_bytes_served,
            out.stats.cdn_segments_served * (30 * 1024 / 8));
  const RunOutput baseline = run_setup(setup);
  EXPECT_EQ(baseline.stats.cdn_segments_served, 0u);
  EXPECT_EQ(baseline.stats.cdn_assisted_switches, 0u);
}

// ---------------------------------------------------------------------------
// The commit wave colours each sweep wave by supplier contention and runs
// the colour classes on pool lanes; the delivery wave's book phase runs
// per target shard with a sequential pop-order tail.  Shard identity above
// covers their results; here: they report work, the colouring keeps the
// sequential order, and the lane arenas reach a zero-allocation steady
// state.

TEST(ParallelCommit, CommitDiagnosticsReportWork) {
  RunSpec setup;
  setup.seed = 31;
  const RunOutput sequential = run_setup(setup);
  const RunOutput waved = run_sharded(setup, 4);
  // One-member waves: one colour class each, no fixups, no delivery wave.
  EXPECT_EQ(sequential.stats.replanned_ticks, 0u);
  EXPECT_EQ(sequential.stats.commit_conflict_fixups, 0u);
  EXPECT_EQ(sequential.stats.planned_ticks, sequential.stats.parallel_commits);
  EXPECT_GE(sequential.stats.commit_colour_classes, sequential.stats.parallel_commits);
  EXPECT_EQ(sequential.stats.cross_shard_events, 0u);
  EXPECT_EQ(sequential.stats.parallel_books, 0u);
  EXPECT_GT(waved.stats.parallel_commits, 0u);
  EXPECT_GT(waved.stats.commit_colour_classes, 0u);
  EXPECT_GT(waved.stats.parallel_books, 0u);
}

TEST(ParallelCommit, LayeredColouringIsValid) {
  // Property check on the colouring itself: (a) every colour is below the
  // class count, (b) slots without a contention set stay in class 0, and
  // (c) any two conflicting slots i < j satisfy colour(i) < colour(j) — the
  // layered rule's order guarantee, strictly stronger than "different
  // colours", which is what lets class-by-class execution replay the
  // sequential commit order.
  util::Rng rng(12345);
  CommitColouring colouring;
  for (int round = 0; round < 50; ++round) {
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const auto count = static_cast<std::size_t>(rng.uniform_int(0, 64));
    std::vector<std::vector<net::NodeId>> sets(count);
    std::vector<bool> null_set(count);
    for (std::size_t j = 0; j < count; ++j) {
      null_set[j] = rng.uniform() < 0.2;  // mirrors non-planned / empty slots
      const auto degree = static_cast<std::size_t>(rng.uniform_int(0, 6));
      for (std::size_t d = 0; d < degree; ++d) {
        sets[j].push_back(static_cast<net::NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1)));
      }
    }
    colouring.colour_wave(count, nodes,
                          [&](std::size_t j) -> const std::vector<net::NodeId>* {
                            return null_set[j] ? nullptr : &sets[j];
                          });
    for (std::size_t j = 0; j < count; ++j) {
      EXPECT_LT(colouring.colour[j], colouring.classes);
      if (null_set[j]) {
        EXPECT_EQ(colouring.colour[j], 0u);
        continue;
      }
      for (std::size_t i = 0; i < j; ++i) {
        if (null_set[i]) continue;
        bool conflict = false;
        for (const net::NodeId a : sets[i]) {
          for (const net::NodeId b : sets[j]) conflict = conflict || a == b;
        }
        if (conflict) {
          EXPECT_LT(colouring.colour[i], colouring.colour[j]);
        }
      }
    }
  }
}

TEST(ParallelCommit, SteadyStateArenaAllocationsAreZero) {
  // The per-lane arena pool must reach a zero-allocation steady state.  The
  // adaptive fence arms only after >= 16 parallel sweeps AND 16 consecutive
  // sweeps with no chunk growth, so arena_warm_chunks > 0 proves the lanes
  // actually went quiet (a fence that never arms would report
  // arena_steady_chunks == 0 vacuously — rejected here), and
  // arena_steady_chunks == 0 is then exact: not one chunk may be malloc'd
  // after the arenas stop growing.
  RunSpec setup;
  setup.seed = 67;
  setup.parallel = 4;
  const RunOutput out = run_setup(setup);
  EXPECT_GT(out.stats.parallel_sweeps, 16u) << "run too short to pass the warm-up fence";
  EXPECT_GT(out.stats.arena_chunks, 0u) << "lane arenas should be in use";
  EXPECT_GT(out.stats.arena_warm_chunks, 0u)
      << "adaptive fence never armed: the arenas kept allocating to the end of the run";
  EXPECT_LE(out.stats.arena_warm_chunks, out.stats.arena_chunks);
  EXPECT_EQ(out.stats.arena_steady_chunks, 0u)
      << "heap allocation after the warm-up fence breaks the zero-alloc steady state";
}

// ----------------------------------------------------------- TimingWheel ---
//
// The engine's event queue is always the timing wheel; its pop order equals
// the binary heap's (sim_property_test), so what is left to check here is
// that wheel runs reproduce themselves and report their telemetry.

TEST(TimingWheel, WheelRunsReproduceThemselvesAndReportTelemetry) {
  RunSpec setup;
  setup.seed = 78;
  setup.parallel = 4;
  setup.churn = true;
  const RunOutput a = run_setup(setup);
  expect_identical(a, run_setup(setup));
  EXPECT_GT(a.stats.events_wheeled, 0u) << "wheel backend reported no scheduled events";
}

// -------------------------------------------------------------- PlanGate ---
//
// tick_plan skips the candidate build of a peer whose availability view
// proves it has no missing ∧ supplied work.  A gated peer's tick_plan
// returns before any strategy rng draw (an empty candidate list draws
// nothing either), so a correct gate is invisible in the metrics: the
// golden digests pin them, and plan_gate_recheck re-builds every gated plan
// and GS_CHECKs that it really was empty.

TEST(PlanGate, SteadySwarmActuallyGates) {
  // The caught-up steady swarm is where quiescence really occurs; assert
  // the gate fires (a steady-state run with zero gated plans means the
  // work summary never went quiet — a tracking bug conservatism would
  // otherwise hide) and that the gated run is shard-count independent.
  RunSpec setup;
  setup.seed = 90;
  setup.steady = true;
  const RunOutput gated = run_setup(setup);
  expect_identical(gated, run_sharded(setup, 4));
  EXPECT_GT(gated.stats.plans_gated, 0u)
      << "steady swarm never gated a plan: work tracking is stuck at has-work";
  EXPECT_GT(gated.stats.plans_built, 0u);
}

TEST(PlanGate, RecheckedRunsReproduceThemselvesAndPassTheCrossCheck) {
  // plan_gate_recheck re-runs the full candidate build for every gated
  // peer and GS_CHECKs emptiness — a run completing at all is the
  // assertion; the stats must show the recheck actually covered the gate.
  RunSpec setup;
  setup.seed = 91;
  setup.steady = true;
  setup.gate_recheck = true;
  const RunOutput a = run_setup(setup);
  expect_identical(a, run_setup(setup));
  EXPECT_GT(a.stats.plans_gated, 0u);
  EXPECT_EQ(a.stats.gate_rechecks, a.stats.plans_gated)
      << "every gated plan must be cross-checked when plan_gate_recheck is on";
}

TEST(PlanGate, RecheckedShardedChurnRunsMatchUncheckedRuns) {
  // The cross-check on plan lanes, under churn: every gated plan is
  // re-built and asserted empty, and the recheck itself changes nothing.
  RunSpec setup;
  setup.seed = 83;
  setup.steady = true;
  setup.churn = true;
  setup.parallel = 4;
  RunSpec rechecked = setup;
  rechecked.gate_recheck = true;
  const RunOutput a = run_setup(rechecked);
  expect_identical(run_setup(setup), a);
  EXPECT_GT(a.stats.plans_gated, 0u);
  EXPECT_EQ(a.stats.gate_rechecks, a.stats.plans_gated);
}

TEST(PlanGate, GatedRunsReproduceThemselvesAndReportTelemetry) {
  RunSpec setup;
  setup.seed = 92;
  setup.parallel = 4;
  setup.churn = true;
  const RunOutput a = run_setup(setup);
  expect_identical(a, run_setup(setup));
  EXPECT_GT(a.stats.plans_built, 0u) << "no plan ever built candidates";
  EXPECT_EQ(a.stats.gate_rechecks, 0u) << "the recheck must stay off by default";
}

// ------------------------------------------------------------- WarmStart ---
//
// The warm start seeds every peer's buffer, received set and playback on
// the sharded core's lanes.  With a tick period far beyond the run, no peer
// ever ticks, so the end-of-run peer state is exactly what the warm start
// left — and it must not depend on the lane count.

TEST(WarmStart, ShardCountsSeedIdenticalState) {
  std::vector<std::unique_ptr<Engine>> engines;
  for (const std::size_t shards : {std::size_t{0}, std::size_t{3}}) {
    util::Rng rng(7);
    net::Graph graph = net::preferential_attachment(200, 2, rng);
    net::repair_min_degree(graph, 5, rng);
    std::vector<double> pings(200);
    for (auto& ping : pings) ping = rng.uniform(20.0, 200.0);
    EngineConfig config;
    config.seed = 7;
    config.tau = 1e6;  // no tick lands inside the run
    config.warmup = 0.1;
    config.horizon = 0.1;
    config.parallel_shards = shards;
    engines.push_back(std::make_unique<Engine>(std::move(graph),
                                               net::LatencyModel(std::move(pings)), config,
                                               std::make_shared<core::FastSwitchScheduler>()));
    engines.back()->set_sources({0, 1}, {0.0});
    (void)engines.back()->run();
    ASSERT_EQ(engines.back()->stats().requests_issued, 0u) << "a peer ticked during the run";
  }
  const Engine& a = *engines[0];
  const Engine& b = *engines[1];
  ASSERT_EQ(a.peer_count(), b.peer_count());
  for (net::NodeId v = 0; v < a.peer_count(); ++v) {
    const PeerNode& p = a.peer(v);
    const PeerNode& q = b.peer(v);
    ASSERT_EQ(p.received, q.received) << "peer " << v;
    ASSERT_EQ(p.buffer.presence(), q.buffer.presence()) << "peer " << v;
    EXPECT_EQ(p.buffer.size(), q.buffer.size()) << "peer " << v;
    EXPECT_EQ(p.buffer.oldest(), q.buffer.oldest()) << "peer " << v;
    EXPECT_EQ(p.buffer.newest(), q.buffer.newest()) << "peer " << v;
    EXPECT_EQ(p.buffer.position_from_tail(p.buffer.oldest()),
              q.buffer.position_from_tail(q.buffer.oldest()))
        << "peer " << v;
    EXPECT_EQ(p.playback.started(), q.playback.started()) << "peer " << v;
    EXPECT_EQ(p.playback.cursor(), q.playback.cursor()) << "peer " << v;
    EXPECT_EQ(p.start_run(), q.start_run()) << "peer " << v;
  }
  EXPECT_GT(a.peer(5).buffer.size(), 0u) << "warm start seeded nothing";
}

TEST(Determinism, DifferentSeedsProduceDifferentRuns) {
  RunSpec a;
  RunSpec b;
  b.seed = 8;
  EXPECT_NE(run_setup(a).metrics.front().avg_prepared_time(),
            run_setup(b).metrics.front().avg_prepared_time());
}

}  // namespace
}  // namespace gs::stream
