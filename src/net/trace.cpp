#include "net/trace.hpp"

#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"

namespace gs::net {

Graph Trace::to_graph() const {
  Graph graph(nodes.size());
  for (const auto& [u, v] : edges) graph.add_edge(u, v);
  return graph;
}

double Trace::average_degree() const noexcept {
  if (nodes.empty()) return 0.0;
  // Each undirected edge contributes 2 endpoint slots.
  return 2.0 * static_cast<double>(edges.size()) / static_cast<double>(nodes.size());
}

Trace parse_trace(std::istream& in) {
  Trace trace;
  std::string line;
  std::size_t line_number = 0;
  auto fail = [&](const std::string& what) {
    throw std::runtime_error("trace parse error at line " + std::to_string(line_number) + ": " +
                             what);
  };
  // A record ends at its last field: anything after it is a typo the
  // extraction above would otherwise silently drop.
  auto expect_end = [&](std::istringstream& fields) {
    std::string extra;
    if (fields >> extra) fail("unexpected trailing field '" + extra + "'");
  };
  // Pings become link delays and speeds become rates: a negative or
  // non-finite value would reach the simulator as a negative delay.
  auto expect_measure = [&](double value, const char* field) {
    if (!std::isfinite(value) || value < 0.0) {
      std::ostringstream what;
      what << field << " must be a finite non-negative number, got " << value;
      fail(what.str());
    }
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "trace") {
      fields >> trace.name;
    } else if (kind == "node") {
      TraceNode node;
      if (!(fields >> node.id >> node.ip >> node.port >> node.ping_ms >> node.speed_kbps)) {
        fail("bad node record");
      }
      expect_end(fields);
      expect_measure(node.ping_ms, "ping_ms");
      expect_measure(node.speed_kbps, "speed_kbps");
      if (node.id != trace.nodes.size()) fail("node ids must be dense and ascending");
      trace.nodes.push_back(std::move(node));
    } else if (kind == "edge") {
      NodeId u = 0;
      NodeId v = 0;
      if (!(fields >> u >> v)) fail("bad edge record");
      expect_end(fields);
      if (u >= trace.nodes.size() || v >= trace.nodes.size()) fail("edge endpoint out of range");
      trace.edges.emplace_back(u, v);
    } else {
      fail("unknown record kind '" + kind + "'");
    }
  }
  return trace;
}

Trace parse_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return parse_trace(in);
}

void write_trace(const Trace& trace, std::ostream& out) {
  // Round-trip exactness for the floating-point fields.
  out.precision(17);
  out << "# gossipstream overlay trace v1\n";
  if (!trace.name.empty()) out << "trace " << trace.name << "\n";
  for (const auto& node : trace.nodes) {
    out << "node " << node.id << " " << node.ip << " " << node.port << " " << node.ping_ms << " "
        << node.speed_kbps << "\n";
  }
  for (const auto& [u, v] : trace.edges) out << "edge " << u << " " << v << "\n";
}

void write_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file for writing: " + path);
  write_trace(trace, out);
}

namespace {

std::string random_ip(util::Rng& rng) {
  std::ostringstream out;
  // Avoid 0/255 octets so addresses look like real unicast hosts.
  out << rng.uniform_int(1, 223) << '.' << rng.uniform_int(0, 254) << '.'
      << rng.uniform_int(0, 254) << '.' << rng.uniform_int(1, 254);
  return out.str();
}

double random_speed_kbps(util::Rng& rng) {
  // 2000-2001 population: dial-up heavy with a broadband/LAN tail.
  const double roll = rng.uniform();
  if (roll < 0.35) return 56.0;
  if (roll < 0.55) return 128.0;
  if (roll < 0.80) return 768.0;
  if (roll < 0.95) return 1500.0;
  return 10000.0;
}

}  // namespace

Trace synthesize_trace(const TraceSynthesisOptions& options, util::Rng& rng) {
  GS_CHECK_GE(options.node_count, 2u);
  Trace trace;
  trace.name = "synthetic-" + std::to_string(options.node_count);
  trace.nodes.reserve(options.node_count);
  for (NodeId id = 0; id < options.node_count; ++id) {
    TraceNode node;
    node.id = id;
    node.ip = random_ip(rng);
    node.port = static_cast<std::uint16_t>(rng.bernoulli(0.8) ? 6346 : rng.uniform_int(1025, 65535));
    node.ping_ms = std::min(rng.pareto(options.ping_min_ms, options.ping_shape), options.ping_cap_ms);
    node.speed_kbps = random_speed_kbps(rng);
    trace.nodes.push_back(std::move(node));
  }
  util::Rng topology_rng = rng.fork(util::hash_name("topology"));
  const Graph graph = preferential_attachment(options.node_count, options.attach, topology_rng);
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    for (NodeId u : graph.neighbors(v)) {
      if (u > v) trace.edges.emplace_back(v, u);
    }
  }
  return trace;
}

std::vector<Trace> synthesize_trace_family(std::size_t count, std::size_t min_nodes,
                                           std::size_t max_nodes, std::uint64_t seed) {
  GS_CHECK_GE(count, 1u);
  GS_CHECK_GE(min_nodes, 2u);
  GS_CHECK_GE(max_nodes, min_nodes);
  std::vector<Trace> family;
  family.reserve(count);
  const double log_lo = std::log(static_cast<double>(min_nodes));
  const double log_hi = std::log(static_cast<double>(max_nodes));
  for (std::size_t i = 0; i < count; ++i) {
    const double frac = count == 1 ? 0.0 : static_cast<double>(i) / static_cast<double>(count - 1);
    const auto size = static_cast<std::size_t>(std::lround(std::exp(log_lo + frac * (log_hi - log_lo))));
    TraceSynthesisOptions options;
    options.node_count = std::max<std::size_t>(2, size);
    util::Rng rng(util::splitmix64(seed ^ util::splitmix64(i)));
    Trace trace = synthesize_trace(options, rng);
    trace.name = "synthetic-" + std::to_string(i) + "-" + std::to_string(options.node_count);
    family.push_back(std::move(trace));
  }
  return family;
}

}  // namespace gs::net
