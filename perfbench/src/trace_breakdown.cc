#include "trace_breakdown.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string_view>
#include <vector>

namespace perfbench {

using streamsc::TraceCategory;
using streamsc::TraceEvent;

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

struct Node {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::string layer;  // empty for a window span
  std::string_view name;
  TraceCategory category = TraceCategory::kSession;
  std::uint64_t shards = 0;
  double child_ns = 0.0;
  bool in_window = false;
  std::size_t session = kNone;  // enclosing session.solve node
  bool has_subsolve = false;
  bool has_guess = false;
};

std::string LayerOf(const TraceEvent& e) {
  const std::string_view name(e.name);
  if (name.rfind("bench.", 0) == 0) {
    const std::string_view rest = name.substr(6);
    const std::string_view layer = rest.substr(0, rest.find('.'));
    if (layer == "window") return "";
    if (layer == "check" || layer == "idle") return "bench";
    return std::string(layer);
  }
  switch (e.category) {
    case TraceCategory::kSession:
      return "api";
    case TraceCategory::kSolver:
      return "core";
    case TraceCategory::kPhase:
      if (name == "subsolve" || name == "greedy_subsolve") return "offline";
      if (name.rfind("dynamic.", 0) == 0) return "dynamic";
      return "core";
    case TraceCategory::kPass:
    case TraceCategory::kShard:
      return "stream";
  }
  return "core";
}

std::uint64_t ArgValue(const TraceEvent& e, const char* arg) {
  for (unsigned i = 0; i < e.num_args; ++i) {
    if (std::strcmp(e.arg_names[i], arg) == 0) return e.arg_values[i];
  }
  return 0;
}

}  // namespace

void AnalyzeTrace(const streamsc::TraceRecorder& trace,
                  std::size_t engine_width, LayerBreakdown* into) {
  LayerBreakdown& out = *into;
  out.dropped += trace.events_dropped();

  // Names are copied out of the merge buffer, which ForEachEvent frees.
  std::vector<std::string> names;
  std::vector<std::vector<Node>> threads;
  std::vector<TraceEvent> events;
  trace.ForEachEvent([&](const TraceEvent& e) { events.push_back(e); });
  out.events += events.size();
  names.reserve(events.size());
  for (const TraceEvent& e : events) {
    if (e.tid >= threads.size()) threads.resize(e.tid + 1);
    names.emplace_back(e.name);
    Node node;
    node.start = e.start_ns;
    node.end = e.start_ns + e.dur_ns;
    node.layer = LayerOf(e);
    node.name = names.back();
    node.category = e.category;
    node.shards = e.category == TraceCategory::kPass ? ArgValue(e, "shards")
                                                      : 0;
    threads[e.tid].push_back(std::move(node));
  }

  for (std::vector<Node>& nodes : threads) {
    std::sort(nodes.begin(), nodes.end(), [](const Node& a, const Node& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      Node& node = nodes[i];
      while (!stack.empty() && nodes[stack.back()].end <= node.start) {
        stack.pop_back();
      }
      const std::size_t parent = stack.empty() ? kNone : stack.back();
      const bool is_window = node.layer.empty();
      if (parent != kNone) {
        Node& p = nodes[parent];
        p.child_ns += static_cast<double>(
            std::max<std::int64_t>(0, std::min(node.end, p.end) - node.start));
        node.in_window = p.in_window;
        node.session = p.session;
      } else {
        node.in_window = is_window;
      }
      if (node.category == TraceCategory::kSession &&
          node.name == "session.solve") {
        node.session = i;
      }
      if (node.session != kNone) {
        if (node.layer == "offline") nodes[node.session].has_subsolve = true;
        if (node.category == TraceCategory::kPhase && node.name == "guess") {
          nodes[node.session].has_guess = true;
        }
      }
      stack.push_back(i);
    }

    for (const Node& node : nodes) {
      const double dur = static_cast<double>(node.end - node.start);
      const double self = std::max(0.0, dur - node.child_ns);
      if (node.category == TraceCategory::kShard) out.shard_ns += dur;
      if (node.category == TraceCategory::kPass) {
        ++out.passes;
        out.pass_ns += dur;
        if (node.name == "transform") out.transform_ns += dur;
        if (node.shards > 0) {
          out.sharded_pass_capacity_ns +=
              dur * static_cast<double>(engine_width);
        }
      }
      if (node.category == TraceCategory::kPhase && node.name == "guess") {
        ++out.guess_spans;
      }
      const bool is_session = node.category == TraceCategory::kSession &&
                              node.name == "session.solve";
      if (is_session) {
        ++out.sessions;
        out.session_ns += dur;
        if (node.has_subsolve) ++out.subsolve_sessions;
        if (node.has_guess) ++out.guess_sessions;
      }
      if (node.layer == "offline") out.subsolve_self_ns += self;
      if (node.name == "bench.api.solve") {
        ++out.api_solves;
        out.api_solve_self_ns += self;
      } else if (is_session) {
        out.api_solve_self_ns += self;
      }
      if (!node.in_window) continue;
      if (node.layer.empty()) {
        out.window_ns += dur;
        out.unattributed_ns += self;
      } else {
        out.self_ns[node.layer] += self;
      }
    }
  }
}

void AddBreakdownMetrics(const LayerBreakdown& b, Metrics* metrics) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  for (const char* layer : {"api", "core", "offline", "stream", "storage",
                            "dynamic", "serve", "bench"}) {
    const auto it = b.self_ns.find(layer);
    metrics->Set(std::string("self_share.") + layer,
                 ratio(it == b.self_ns.end() ? 0.0 : it->second, b.window_ns),
                 "ratio");
  }
  metrics->Set("obs.unattributed_share", ratio(b.unattributed_ns, b.window_ns),
               "ratio");
  metrics->Set("obs.events_dropped", static_cast<double>(b.dropped), "count");
  metrics->Set("core.project_share", ratio(b.transform_ns, b.session_ns),
               "ratio");
  metrics->Set("core.guess_accept_ratio",
               ratio(static_cast<double>(b.guess_sessions),
                     static_cast<double>(b.guess_spans)),
               "ratio");
  metrics->Set("offline.subsolve_ms",
               ratio(b.subsolve_self_ns,
                     static_cast<double>(b.subsolve_sessions)) / 1e6,
               "ms");
  metrics->Set("offline.subsolve_share", ratio(b.subsolve_self_ns, b.session_ns),
               "ratio");
  metrics->Set("stream.pass_ms",
               ratio(b.pass_ns, static_cast<double>(b.passes)) / 1e6, "ms");
  metrics->Set("stream.shard_util", ratio(b.shard_ns, b.sharded_pass_capacity_ns),
               "ratio");
  metrics->Set("api.session_overhead_ms",
               ratio(b.api_solve_self_ns, static_cast<double>(b.api_solves)) /
                   1e6,
               "ms");
}

void WriteTrace(const streamsc::TraceRecorder& trace, const Options& options) {
  std::ofstream out(options.dir + "/trace.json");
  trace.WriteChromeTrace(out);
}

}  // namespace perfbench
