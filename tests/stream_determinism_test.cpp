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
  /// The parallel delivery wave + sweep super-batching of the sharded core
  /// (effective only when parallel > 0; defaults on, like the engine).
  bool delivery_wave = true;
  /// The parallel commit + book passes of the sharded core (effective only
  /// when parallel > 0; defaults on, like the engine).
  bool commit = true;
  /// Flash-crowd joiners admitted shortly after the first switch (0 = off).
  std::size_t flash_joins = 0;
  /// CDN-assisted fast switch (changes dynamics by design when on; off must
  /// stay bit-identical to a build without the plane).
  bool cdn = false;
  /// Timing-wheel event plane (defaults on, like the engine; false = the
  /// binary-heap baseline backend).
  bool wheel = true;
  /// Plan work-set plane (defaults on, like the engine; false = the
  /// segment-major build with no quiescence gate).
  bool gate = true;
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
  config.parallel_delivery = setup.delivery_wave;
  config.parallel_commit = setup.commit;
  config.flash_crowd_joins = setup.flash_joins;
  config.cdn_assist = setup.cdn;
  config.timing_wheel = setup.wheel;
  config.plan_gate = setup.gate;
  config.plan_gate_recheck = setup.gate && setup.gate_recheck;
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
// speculative plans re-planned on capacity conflicts — has to reproduce
// every metric bit for bit against the sequential engine, across
// algorithms, churn, capacity models and tick-shard sizes.  Only wall
// clock and the shard diagnostics (parallel_sweeps / planned_ticks /
// replanned_ticks / cross_shard_events / events_popped) may change.

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
  // the densest same-time event mix the merge rule has to keep ordered.
  RunSpec setup;
  setup.seed = 37;
  setup.stagger = false;
  setup.churn = true;
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
  EXPECT_EQ(sequential.stats.parallel_sweeps, 0u);
  EXPECT_EQ(sequential.stats.planned_ticks, 0u);
  EXPECT_EQ(sequential.stats.cross_shard_events, 0u);
  EXPECT_GT(sharded.stats.parallel_sweeps, 0u);
  EXPECT_GT(sharded.stats.planned_ticks, 0u);
  EXPECT_GE(sharded.stats.planned_ticks, sharded.stats.replanned_ticks);
  // At 50 nodes every sweep member shares suppliers, so the stale-plan
  // re-plan path must actually fire (the determinism above is not vacuous).
  EXPECT_GT(sharded.stats.replanned_ticks, 0u);
  EXPECT_GT(sharded.stats.cross_shard_events, 0u);
}

// ---------------------------------------------------------------------------
// The parallel delivery wave (batched delivery pops drained through the
// mark/book/merge pipeline, plus same-timestamp sweep super-batching) must
// be *observably invisible* exactly like the sharded plan wave it extends:
// the same seed with the wave on and off — and against the fully
// sequential engine — has to reproduce every metric bit for bit at every
// shard count, across algorithms, churn, all three capacity models,
// and multi-switch timelines.  Only
// wall clock and the drain diagnostics (delivery_batches /
// delta_journal_merges / superbatch_sweeps) may change.

RunOutput run_delivery(RunSpec setup, std::size_t shards, bool wave = true) {
  setup.parallel = shards;
  setup.delivery_wave = wave;
  return run_setup(setup);
}

TEST(ParallelDelivery, EveryShardCountMatchesSequentialWaveOnAndOff) {
  RunSpec setup;
  const RunOutput sequential = run_setup(setup);
  for (const std::size_t shards : {0u, 1u, 4u, 7u}) {
    expect_identical(sequential, run_delivery(setup, shards, /*wave=*/true));
    expect_identical(sequential, run_delivery(setup, shards, /*wave=*/false));
  }
}

TEST(ParallelDelivery, NormalSwitchMatchesSequential) {
  RunSpec setup;
  setup.fast = false;
  expect_identical(run_setup(setup), run_delivery(setup, 4));
}

TEST(ParallelDelivery, ChurnMatchesSequential) {
  // Churn exercises dead-delivery outcomes (segments in flight to leavers),
  // journal application across joiner views and view teardown mid-run.
  RunSpec setup;
  setup.seed = 19;
  setup.churn = true;
  expect_identical(run_setup(setup), run_delivery(setup, 4));
  expect_identical(run_setup(setup), run_delivery(setup, 4, /*wave=*/false));
}

TEST(ParallelDelivery, PerLinkCapacityMatchesSequential) {
  RunSpec setup;
  setup.seed = 27;
  setup.per_link = true;
  expect_identical(run_setup(setup), run_delivery(setup, 4));
}

TEST(ParallelDelivery, TokenBucketCapacityMatchesSequential) {
  RunSpec setup;
  setup.seed = 29;
  setup.token_bucket = true;
  expect_identical(run_setup(setup), run_delivery(setup, 4));
}

TEST(ParallelDelivery, MultiSwitchMatchesSequential) {
  RunSpec setup;
  setup.seed = 23;
  setup.sources = {0, 1, 2};
  setup.switch_times = {0.0, 60.0};
  expect_identical(run_setup(setup), run_delivery(setup, 4));
}

TEST(ParallelDelivery, LockstepChurnMatchesSequential) {
  // Lockstep phases put every sweep of a period at one timestamp: the
  // super-batch path runs every period, concatenating all groups into one
  // pipeline pass whose re-arms collapse to the end of the run.
  RunSpec setup;
  setup.seed = 37;
  setup.stagger = false;
  setup.churn = true;
  expect_identical(run_setup(setup), run_delivery(setup, 4));
  expect_identical(run_setup(setup), run_delivery(setup, 1));
}

TEST(ParallelDelivery, WaveRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 61;
  setup.parallel = 7;
  setup.churn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(ParallelDelivery, DrainDiagnosticsReportWork) {
  RunSpec setup;
  setup.seed = 31;
  setup.stagger = false;  // lockstep: guarantees super-batched sweeps
  const RunOutput sequential = run_setup(setup);
  const RunOutput waved = run_delivery(setup, 4);
  const RunOutput unwaved = run_delivery(setup, 4, /*wave=*/false);
  EXPECT_EQ(sequential.stats.delivery_batches, 0u);
  EXPECT_EQ(sequential.stats.delta_journal_merges, 0u);
  EXPECT_EQ(sequential.stats.superbatch_sweeps, 0u);
  EXPECT_EQ(unwaved.stats.delivery_batches, 0u);
  EXPECT_EQ(unwaved.stats.superbatch_sweeps, 0u);
  EXPECT_GT(waved.stats.delivery_batches, 0u);
  EXPECT_GT(waved.stats.delta_journal_merges, 0u);
  EXPECT_GT(waved.stats.superbatch_sweeps, 0u);
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
  // bytes_per_peer averages over every peer the run ever had.
  EXPECT_NEAR(out.stats.bytes_per_peer * static_cast<double>(50 + out.stats.joins),
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
// Parallel commit + book passes.  The commit wave colours each sweep wave by
// supplier contention and runs the colour classes on pool lanes; the book
// pass splits delivery bookkeeping into a parallel per-target phase plus a
// sequential tail that replays the global pop order.  Both are pure
// mechanism: fixed-seed metrics must match the member-order commit loop bit
// for bit at every shard count and composed with every model flag.  Only
// wall clock and the commit diagnostics (commit_colour_classes /
// commit_conflict_fixups / parallel_commits / parallel_books) may change.

RunOutput run_commit(RunSpec setup, std::size_t shards, bool commit = true) {
  setup.parallel = shards;
  setup.commit = commit;
  return run_setup(setup);
}

TEST(ParallelCommit, EveryShardCountMatchesSequentialCommitOnAndOff) {
  RunSpec setup;
  const RunOutput sequential = run_setup(setup);
  for (const std::size_t shards : {0u, 1u, 4u, 7u}) {
    expect_identical(sequential, run_commit(setup, shards, /*commit=*/true));
    expect_identical(sequential, run_commit(setup, shards, /*commit=*/false));
  }
}

TEST(ParallelCommit, NormalSwitchMatchesSequential) {
  RunSpec setup;
  setup.fast = false;
  expect_identical(run_setup(setup), run_commit(setup, 4));
}

TEST(ParallelCommit, ChurnMatchesSequential) {
  // Churn exercises fixups against vanished suppliers, dead deliveries in
  // the book phase and view teardown between waves.
  RunSpec setup;
  setup.seed = 19;
  setup.churn = true;
  expect_identical(run_setup(setup), run_commit(setup, 4));
  expect_identical(run_setup(setup), run_commit(setup, 4, /*commit=*/false));
}

TEST(ParallelCommit, PerLinkCapacityMatchesSequential) {
  // Per-link capacity has no shared-supplier contention: every wave is one
  // colour class and no fixups can fire.
  RunSpec setup;
  setup.seed = 27;
  setup.per_link = true;
  expect_identical(run_setup(setup), run_commit(setup, 4));
}

TEST(ParallelCommit, TokenBucketCapacityMatchesSequential) {
  RunSpec setup;
  setup.seed = 29;
  setup.token_bucket = true;
  expect_identical(run_setup(setup), run_commit(setup, 4));
}

TEST(ParallelCommit, MultiSwitchMatchesSequential) {
  RunSpec setup;
  setup.seed = 23;
  setup.sources = {0, 1, 2};
  setup.switch_times = {0.0, 60.0};
  expect_identical(run_setup(setup), run_commit(setup, 4));
}

TEST(ParallelCommit, CdnAssistComposes) {
  // The final drain interleaves cdn_assist_tick in member order; assisted
  // runs must not notice whether commits were staged or inline.
  RunSpec setup;
  setup.seed = 97;
  setup.cdn = true;
  const RunOutput sequential = run_setup(setup);
  expect_identical(sequential, run_commit(setup, 4));
  expect_identical(sequential, run_commit(setup, 4, /*commit=*/false));
}

TEST(ParallelCommit, FlashCrowdComposes) {
  RunSpec setup;
  setup.seed = 53;
  setup.flash_joins = 40;
  const RunOutput sequential = run_setup(setup);
  expect_identical(sequential, run_commit(setup, 4));
  expect_identical(sequential, run_commit(setup, 4, /*commit=*/false));
}

TEST(ParallelCommit, LockstepChurnMatchesSequential) {
  // Lockstep phases force the super-batched sweep: the commit wave runs over
  // concatenated groups with the largest wave counts.
  RunSpec setup;
  setup.seed = 37;
  setup.stagger = false;
  setup.churn = true;
  expect_identical(run_setup(setup), run_commit(setup, 4));
  expect_identical(run_setup(setup), run_commit(setup, 1));
}

TEST(ParallelCommit, CommitRunsReproduceThemselves) {
  RunSpec setup;
  setup.seed = 61;
  setup.parallel = 7;
  setup.churn = true;
  expect_identical(run_setup(setup), run_setup(setup));
}

TEST(ParallelCommit, CommitDiagnosticsReportWork) {
  RunSpec setup;
  setup.seed = 31;
  const RunOutput sequential = run_setup(setup);
  const RunOutput waved = run_commit(setup, 4);
  const RunOutput unwaved = run_commit(setup, 4, /*commit=*/false);
  EXPECT_EQ(sequential.stats.parallel_commits, 0u);
  EXPECT_EQ(sequential.stats.commit_colour_classes, 0u);
  EXPECT_EQ(sequential.stats.parallel_books, 0u);
  EXPECT_EQ(unwaved.stats.parallel_commits, 0u);
  EXPECT_EQ(unwaved.stats.commit_colour_classes, 0u);
  EXPECT_EQ(unwaved.stats.parallel_books, 0u);
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
// The timing-wheel event plane is pure mechanism: every pop must happen in
// the same global (time, sequence) order the binary-heap backend produces,
// so fixed-seed metrics are bit-identical wheel on vs off — across shard
// counts and composed with every other flag family.

RunOutput run_wheel(RunSpec setup, bool wheel) {
  setup.wheel = wheel;
  return run_setup(setup);
}

TEST(TimingWheel, SequentialRunMatchesHeapBackend) {
  RunSpec setup;
  setup.seed = 71;
  expect_identical(run_wheel(setup, false), run_wheel(setup, true));
}

TEST(TimingWheel, SingleShardMatchesHeapBackend) {
  RunSpec setup;
  setup.seed = 72;
  setup.parallel = 1;
  expect_identical(run_wheel(setup, false), run_wheel(setup, true));
}

TEST(TimingWheel, ShardedChurnRunMatchesHeapBackend) {
  RunSpec setup;
  setup.seed = 73;
  setup.parallel = 4;
  setup.churn = true;
  expect_identical(run_wheel(setup, false), run_wheel(setup, true));
}

TEST(TimingWheel, SevenShardMultiSwitchMatchesHeapBackend) {
  RunSpec setup;
  setup.seed = 74;
  setup.parallel = 7;
  setup.sources = {0, 1, 2};
  setup.switch_times = {0.0, 40.0};
  expect_identical(run_wheel(setup, false), run_wheel(setup, true));
}

TEST(TimingWheel, CdnAssistMatchesHeapBackend) {
  RunSpec setup;
  setup.seed = 75;
  setup.parallel = 4;
  setup.cdn = true;
  expect_identical(run_wheel(setup, false), run_wheel(setup, true));
}

TEST(TimingWheel, FlashCrowdMatchesHeapBackend) {
  RunSpec setup;
  setup.seed = 76;
  setup.parallel = 4;
  setup.flash_joins = 30;
  expect_identical(run_wheel(setup, false), run_wheel(setup, true));
}

TEST(TimingWheel, FullCompositionMatchesHeapBackend) {
  // The kitchen sink: churn + token-bucket capacity on 7 shards.
  RunSpec setup;
  setup.seed = 77;
  setup.parallel = 7;
  setup.churn = true;
  setup.token_bucket = true;
  expect_identical(run_wheel(setup, false), run_wheel(setup, true));
}

TEST(TimingWheel, WheelRunsReproduceThemselvesAndReportTelemetry) {
  RunSpec setup;
  setup.seed = 78;
  setup.parallel = 4;
  setup.churn = true;
  const RunOutput a = run_wheel(setup, true);
  expect_identical(a, run_wheel(setup, true));
  EXPECT_GT(a.stats.events_wheeled, 0u) << "wheel backend reported no scheduled events";
  const RunOutput heap = run_wheel(setup, false);
  EXPECT_EQ(heap.stats.events_wheeled, 0u) << "heap backend must report zero wheel telemetry";
  EXPECT_EQ(heap.stats.wheel_overflow_promotions, 0u);
  EXPECT_EQ(heap.stats.spill_heap_peak, 0u);
}

// -------------------------------------------------------------- PlanGate ---
//
// The plan work-set plane is pure mechanism: a gated peer's tick_plan
// returns before any strategy rng draw (an empty candidate list draws
// nothing either way), and the neighbour-major candidate build emits the
// identical candidate list, supplier order and supplier values the
// segment-major build does.  So fixed-seed metrics must be bit-identical
// gate on vs off — across shard counts and composed with every other flag
// family.

RunOutput run_gate(RunSpec setup, bool gate) {
  setup.gate = gate;
  return run_setup(setup);
}

TEST(PlanGate, SequentialRunMatchesUngated) {
  RunSpec setup;
  setup.seed = 81;
  expect_identical(run_gate(setup, false), run_gate(setup, true));
}

TEST(PlanGate, SingleShardMatchesUngated) {
  RunSpec setup;
  setup.seed = 82;
  setup.parallel = 1;
  expect_identical(run_gate(setup, false), run_gate(setup, true));
}

TEST(PlanGate, ShardedChurnMatchesUngated) {
  RunSpec setup;
  setup.seed = 83;
  setup.parallel = 4;
  setup.churn = true;
  expect_identical(run_gate(setup, false), run_gate(setup, true));
}

TEST(PlanGate, SevenShardMultiSwitchMatchesUngated) {
  RunSpec setup;
  setup.seed = 84;
  setup.parallel = 7;
  setup.sources = {0, 1, 2};
  setup.switch_times = {0.0, 40.0};
  expect_identical(run_gate(setup, false), run_gate(setup, true));
}

TEST(PlanGate, CdnAssistMatchesUngated) {
  RunSpec setup;
  setup.seed = 85;
  setup.parallel = 4;
  setup.cdn = true;
  expect_identical(run_gate(setup, false), run_gate(setup, true));
}

TEST(PlanGate, FlashCrowdMatchesUngated) {
  RunSpec setup;
  setup.seed = 86;
  setup.parallel = 4;
  setup.flash_joins = 30;
  expect_identical(run_gate(setup, false), run_gate(setup, true));
}

TEST(PlanGate, FullCompositionMatchesUngated) {
  // The kitchen sink: churn + token-bucket capacity on 7 shards.
  RunSpec setup;
  setup.seed = 87;
  setup.parallel = 7;
  setup.churn = true;
  setup.token_bucket = true;
  expect_identical(run_gate(setup, false), run_gate(setup, true));
}

TEST(PlanGate, SteadySwarmMatchesUngatedAndActuallyGates) {
  // The caught-up steady swarm is where quiescence really occurs; beyond
  // bit-identity, assert the gate fires (a steady-state run with zero
  // gated plans means the work summary never went quiet — a tracking bug
  // conservatism would otherwise hide).
  RunSpec setup;
  setup.seed = 90;
  setup.steady = true;
  const RunOutput gated = run_gate(setup, true);
  expect_identical(run_gate(setup, false), gated);
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

TEST(PlanGate, GatedRunsReproduceThemselvesAndReportTelemetry) {
  RunSpec setup;
  setup.seed = 92;
  setup.parallel = 4;
  setup.churn = true;
  const RunOutput a = run_setup(setup);
  expect_identical(a, run_setup(setup));
  EXPECT_GT(a.stats.plans_built, 0u) << "no plan ever built candidates";
  const RunOutput off = run_gate(setup, false);
  EXPECT_EQ(off.stats.plans_gated, 0u) << "gate off must report zero gated plans";
  EXPECT_EQ(off.stats.gate_rechecks, 0u);
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
