// Trace explorer: synthesize (or load) a dss.clip2.com-style overlay trace,
// apply the paper's M=5 degree repair, and print topology statistics.
//
//   ./trace_explorer [--nodes 1000] [--seed 1] [--out trace.txt]
//   ./trace_explorer --in existing_trace.txt
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "net/topology.hpp"
#include "net/trace.hpp"
#include "util/flags.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  gs::util::Flags flags;
  flags.define_int("nodes", 1000, "synthetic trace size");
  flags.define_int("seed", 1, "synthesis seed");
  flags.define("in", "", "load an existing trace file instead of synthesizing");
  flags.define("out", "", "write the (pre-repair) trace to this file");
  flags.define_int("repair-degree", 5, "the paper's M");
  if (const auto status = flags.parse_cli(argc, argv)) return *status;

  gs::net::Trace trace;
  if (!flags.get("in").empty()) {
    try {
      trace = gs::net::parse_trace_file(flags.get("in"));
    } catch (const std::runtime_error& e) {
      // A missing or malformed trace is bad input: its reason, exit 2.
      std::fprintf(stderr, "trace_explorer: %s\n", e.what());
      return 2;
    }
    if (trace.nodes.empty()) {
      std::fprintf(stderr, "trace_explorer: trace file %s has no nodes\n",
                   flags.get("in").c_str());
      return 2;
    }
    std::printf("loaded trace '%s'\n", trace.name.c_str());
  } else {
    gs::net::TraceSynthesisOptions options;
    options.node_count = static_cast<std::size_t>(flags.get_int("nodes"));
    gs::util::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
    trace = gs::net::synthesize_trace(options, rng);
    std::printf("synthesized trace '%s'\n", trace.name.c_str());
  }
  if (!flags.get("out").empty()) {
    gs::net::write_trace_file(trace, flags.get("out"));
    std::printf("wrote trace to %s\n", flags.get("out").c_str());
  }

  std::printf("nodes: %zu, edges: %zu, avg degree: %.2f\n", trace.node_count(),
              trace.edge_count(), trace.average_degree());

  gs::util::RunningStats pings;
  for (const auto& node : trace.nodes) pings.add(node.ping_ms);
  std::printf("ping: mean %.1f ms, min %.1f, max %.1f\n", pings.mean(), pings.min(), pings.max());

  gs::net::Graph graph = trace.to_graph();
  std::vector<double> degrees;
  for (gs::net::NodeId v = 0; v < graph.node_count(); ++v) {
    degrees.push_back(static_cast<double>(graph.degree(v)));
  }
  std::printf("\npre-repair degree distribution:\n");
  gs::util::Histogram histogram(0.0, 20.0, 10);
  for (double d : degrees) histogram.add(d);
  std::printf("%s", histogram.render(30).c_str());

  const auto m = static_cast<std::size_t>(flags.get_int("repair-degree"));
  gs::util::Rng repair_rng(static_cast<std::uint64_t>(flags.get_int("seed")) + 1);
  const std::size_t added = gs::net::repair_min_degree(graph, m, repair_rng);
  std::printf("\nrepair to M=%zu added %zu edges (paper S5.1's augmentation step)\n", m, added);

  std::vector<gs::net::NodeId> ids(graph.node_count());
  for (gs::net::NodeId v = 0; v < ids.size(); ++v) ids[v] = v;
  std::printf("post-repair: min degree %zu, connected: %s\n", graph.min_degree(ids),
              graph.connected(ids) ? "yes" : "no");

  const auto hops = graph.bfs_hops(0);
  std::size_t diameter = 0;
  double hop_sum = 0.0;
  for (const std::size_t h : hops) {
    diameter = std::max(diameter, h);
    hop_sum += static_cast<double>(h);
  }
  std::printf("from node 0: eccentricity %zu, mean hops %.2f\n", diameter,
              hop_sum / static_cast<double>(hops.size()));
  return 0;
}
