// Golden digests: fixed-seed runs of the engine's scenario families must
// reproduce committed FNV-64 digests bit for bit.  A digest covers every
// SwitchMetrics field plus the deterministic EngineStats counters (segments
// delivered, requests issued / rejected, duplicates, joins, leaves, events
// popped, availability probes, index updates, plans gated / built), so any
// refactor of the engine's data path that changes an outcome or the work
// the engine reports fails here.  The digests were captured with the
// windowed availability plane, the flat peer containers, batched tick
// dispatch, the timing wheel, the plan gate and the commit and delivery
// waves (then optional, now the only path) switched on; the same scenarios
// with them off gave identical SwitchMetrics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/fast_switch.hpp"
#include "core/normal_switch.hpp"
#include "net/topology.hpp"
#include "stream/engine.hpp"

namespace gs::stream {
namespace {

class Fnv64 {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xffu;
      state_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
  }
  void add(const std::vector<double>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const double v : values) add(v);
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

void add_metrics(Fnv64& h, const SwitchMetrics& m) {
  h.add(static_cast<std::uint64_t>(m.switch_index));
  h.add(m.switch_time);
  h.add(static_cast<std::uint64_t>(m.tracked));
  h.add(static_cast<std::uint64_t>(m.finished_s1));
  h.add(static_cast<std::uint64_t>(m.prepared_s2));
  h.add(static_cast<std::uint64_t>(m.censored_finish));
  h.add(static_cast<std::uint64_t>(m.censored_prepare));
  h.add(m.finish_times);
  h.add(m.prepared_times);
  h.add(m.s2_start_times);
  h.add(static_cast<std::uint64_t>(m.track.size()));
  for (const TrackPoint& t : m.track) {
    h.add(t.time);
    h.add(t.undelivered_ratio_s1);
    h.add(t.delivered_ratio_s2);
    h.add(static_cast<std::uint64_t>(t.live_tracked));
  }
  h.add(m.overhead_ratio);
  h.add(m.control_ratio);
  h.add(m.data_segments);
}

struct Scenario {
  const char* name = "";
  std::uint64_t seed = 7;
  bool fast = true;
  bool churn = false;
  SupplierCapacityModel capacity = SupplierCapacityModel::kSharedFifo;
  bool stagger = true;
  bool delta_maps = false;
  bool push = false;
  std::size_t flash_joins = 0;
  bool cdn = false;
  std::size_t parallel = 0;
  std::vector<net::NodeId> sources = {0, 1};
  std::vector<double> switch_times = {0.0};
  /// Committed digest of metrics + counters.
  std::uint64_t golden = 0;
};

struct Digests {
  std::uint64_t metrics = 0;  ///< SwitchMetrics only
  std::uint64_t full = 0;     ///< SwitchMetrics + deterministic counters
};

Digests run_digest(const Scenario& s) {
  util::Rng rng(s.seed);
  net::Graph graph = net::preferential_attachment(50, 2, rng);
  net::repair_min_degree(graph, 5, rng);
  std::vector<double> pings(50);
  for (auto& ping : pings) ping = rng.uniform(20.0, 200.0);

  EngineConfig config;
  config.seed = s.seed;
  config.horizon = 120.0;
  if (s.churn) {
    config.churn_leave_fraction = 0.05;
    config.churn_join_fraction = 0.05;
  }
  config.supplier_capacity = s.capacity;
  config.stagger_ticks = s.stagger;
  config.delta_maps = s.delta_maps;
  config.push_fresh_segments = s.push;
  config.flash_crowd_joins = s.flash_joins;
  config.cdn_assist = s.cdn;
  config.parallel_shards = s.parallel;

  std::shared_ptr<SchedulerStrategy> strategy;
  if (s.fast) {
    strategy = std::make_shared<core::FastSwitchScheduler>();
  } else {
    strategy = std::make_shared<core::NormalSwitchScheduler>();
  }
  Engine engine(std::move(graph), net::LatencyModel(std::move(pings)), config,
                std::move(strategy));
  engine.set_sources(s.sources, s.switch_times);
  const std::vector<SwitchMetrics> metrics = engine.run();
  const EngineStats& st = engine.stats();

  Fnv64 h;
  h.add(static_cast<std::uint64_t>(metrics.size()));
  for (const SwitchMetrics& m : metrics) add_metrics(h, m);
  Digests out;
  out.metrics = h.value();
  for (const std::uint64_t counter :
       {st.segments_generated, st.segments_delivered, st.segments_pushed, st.requests_issued,
        st.requests_rejected, st.duplicates, static_cast<std::uint64_t>(st.joins),
        static_cast<std::uint64_t>(st.leaves), st.events_popped, st.availability_probes,
        st.index_updates, st.plans_gated, st.plans_built, st.cdn_segments_served}) {
    h.add(counter);
  }
  out.full = h.value();
  return out;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> all;
  auto add = [&all](const char* name, std::uint64_t golden, auto&& tweak) {
    Scenario s;
    s.name = name;
    s.golden = golden;
    tweak(s);
    all.push_back(s);
  };
  add("paper_static_fast", 0xb5d113c6bc093f62ULL, [](Scenario&) {});
  add("paper_static_normal", 0x4eb9c7199bfa9550ULL, [](Scenario& s) { s.fast = false; });
  add("paper_dynamic_fast", 0xdadca54462229b99ULL, [](Scenario& s) {
    s.seed = 19;
    s.churn = true;
  });
  add("paper_dynamic_normal", 0xad6c96829a238771ULL, [](Scenario& s) {
    s.seed = 19;
    s.churn = true;
    s.fast = false;
  });
  add("multi_switch", 0x552eac85ff02b9edULL, [](Scenario& s) {
    s.seed = 23;
    s.sources = {0, 1, 2};
    s.switch_times = {0.0, 60.0};
  });
  add("push", 0x2c5ddc97c50729c9ULL, [](Scenario& s) {
    s.seed = 29;
    s.push = true;
  });
  // Push is the one sharded configuration that keeps the inline delivery
  // pops (no delivery wave), so its counters match the sequential row too.
  add("push_shards4", 0x2c5ddc97c50729c9ULL, [](Scenario& s) {
    s.seed = 29;
    s.push = true;
    s.parallel = 4;
  });
  add("delta_maps", 0xc2940bca0dfdc7b4ULL, [](Scenario& s) {
    s.seed = 59;
    s.delta_maps = true;
  });
  add("per_link", 0x7a80d8b3184c138aULL, [](Scenario& s) {
    s.seed = 27;
    s.capacity = SupplierCapacityModel::kPerLink;
  });
  add("token_bucket", 0x4dc6a23a27ce3d06ULL, [](Scenario& s) {
    s.seed = 29;
    s.capacity = SupplierCapacityModel::kTokenBucket;
  });
  add("flash_crowd", 0xf9d4b8d2465a3453ULL, [](Scenario& s) {
    s.seed = 67;
    s.flash_joins = 40;
  });
  add("cdn_assist", 0x6d0e920945b5a032ULL, [](Scenario& s) {
    s.seed = 83;
    s.cdn = true;
  });
  add("lockstep_churn", 0xe085b99551c1d7bbULL, [](Scenario& s) {
    s.seed = 37;
    s.stagger = false;
    s.churn = true;
  });
  // Every shard count gives the same metrics; the sharded runs' counters
  // differ from the sequential run's because the batched delivery pop
  // counts the run's last batch whole (see EngineConfig::parallel_shards).
  const struct {
    const char* name;
    std::size_t shards;
    std::uint64_t golden;
  } sharded[] = {{"churn_cdn_shards0", 0, 0xa53c049c639a5cb8ULL},
                 {"churn_cdn_shards1", 1, 0xcd9c0e263d96d491ULL},
                 {"churn_cdn_shards4", 4, 0xcd9c0e263d96d491ULL},
                 {"churn_cdn_shards7", 7, 0xcd9c0e263d96d491ULL}};
  for (const auto& row : sharded) {
    const std::size_t shards = row.shards;
    add(row.name, row.golden, [shards](Scenario& s) {
      s.seed = 53;
      s.churn = true;
      s.cdn = true;
      s.flash_joins = 20;
      s.parallel = shards;
    });
  }
  return all;
}

TEST(GoldenDigest, EveryScenarioMatchesItsCommittedDigest) {
  // The shard rows must also agree on every metric with each other.
  std::vector<std::uint64_t> shard_metrics;
  for (const Scenario& s : scenarios()) {
    const Digests d = run_digest(s);
    EXPECT_EQ(d.full, s.golden) << s.name << ": digest 0x" << std::hex << d.full;
    if (std::strncmp(s.name, "churn_cdn_shards", 16) == 0) shard_metrics.push_back(d.metrics);
  }
  ASSERT_EQ(shard_metrics.size(), 4u);
  for (const std::uint64_t m : shard_metrics) EXPECT_EQ(m, shard_metrics.front());
}

}  // namespace
}  // namespace gs::stream
