#include "ledger.hpp"

#include <cstdio>
#include <string>

#include "common/telemetry/metrics.hpp"
#include "common/telemetry/trace.hpp"

namespace e2e {
namespace {

namespace tm = repro::telemetry;

struct SpanTotal {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

/// Sums every node named `name` in the merged profile tree. Nested
/// nodes of the same name are not double counted: the walk stops at the
/// first match on each path.
void sum_span(const tm::SpanReport& node, const std::string& name,
              SpanTotal& total) {
  for (const tm::SpanReport& child : node.children) {
    if (child.name == name) {
      total.calls += child.calls;
      total.seconds += child.total_seconds;
    } else {
      sum_span(child, name, total);
    }
  }
}

double per(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

void account_round(LayerInputs& in, const RoundResult& round,
                   std::uint64_t ops, bool traced) {
  for (Window* w : {&in.all, traced ? &in.traced : &in.untraced}) {
    w->add_round(round.wall, round.cpu, ops, round.emit.flows_emitted,
                 round.emit.packets_emitted);
  }
  in.tcp_packets += round.conntrack.tcp_packets;
  in.tcp_accepted += round.conntrack.tcp_accepted;
}

void report_per_layer(Result& result, const LayerInputs& in) {
  const tm::SpanReport profile = tm::profile_snapshot();
  const tm::MetricsSnapshot metrics = tm::Registry::instance().snapshot();
  const auto span = [&profile](const char* name) {
    SpanTotal total;
    sum_span(profile, name, total);
    return total;
  };
  const auto counter = [&metrics](const char* name) {
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0.0
                                        : static_cast<double>(it->second);
  };
  const auto histogram = [&metrics](const char* name) {
    const auto it = metrics.histograms.find(name);
    return it == metrics.histograms.end() ? tm::HistogramSnapshot{}
                                          : it->second;
  };
  const auto span_mean = [&span](const char* name) {
    const SpanTotal t = span(name);
    return per(t.seconds, static_cast<double>(t.calls));
  };

  const LayerTimers& t = in.timers;
  const double flows_t = static_cast<double>(in.traced.flows);
  const double packets_t = static_cast<double>(in.traced.packets);
  const double flows_all = static_cast<double>(in.all.flows);
  const tm::HistogramSnapshot total_latency =
      histogram("serve.latency.total_seconds");
  const tm::HistogramSnapshot queue_wait =
      histogram("serve.latency.queue_wait_seconds");
  const double client_p50 = quantile(in.all.op_seconds, 0.5);
  const double server_p50 =
      total_latency.count > 0 ? total_latency.quantile(0.5) : 0.0;
  const double sinks = t.pcap + t.chain;
  const double sched = t.emit_run - t.source - sinks;

  result.layer("serve.net.send_us_per_req",
               per(t.send, static_cast<double>(t.requests)) * 1e6, "us");
  result.layer("serve.net.reply_bytes_per_flow",
               per(counter("serve.net.bytes_out"), flows_all), "B");
  result.layer("serve.net.overhead_ms_p50",
               t.requests == 0 ? 0.0 : (client_p50 - server_p50) * 1e3, "ms");
  result.layer("serve.queue_wait_ms_p50",
               queue_wait.count > 0 ? queue_wait.quantile(0.5) * 1e3 : 0.0,
               "ms");
  result.layer("serve.service_ms_p50", quantile(in.batch_service_s, 0.5) * 1e3,
               "ms");
  result.layer("serve.batch_flows_mean", histogram("serve.batch.size").mean(),
               "flows");
  result.layer("serve.submit_us", span_mean("serve.submit") * 1e6, "us");
  result.layer("serve.cache_get_us", span_mean("serve.cache.get") * 1e6, "us");
  result.layer("diffusion.ddim_step_ms",
               span_mean("diffusion.sample.ddim_step") * 1e3, "ms");
  result.layer("diffusion.eps_evals_per_flow",
               per(counter("diffusion.sample.eps_evals"), flows_t), "count");
  result.layer("diffusion.decode_ms_per_flow",
               per(span("diffusion.generate.decode").seconds, flows_t) * 1e3,
               "ms");
  result.layer("diffusion.fit_s", in.fit_s, "s");
  result.layer("nn.linear_fwd_ms_per_flow",
               per(span("nn.linear.forward").seconds, flows_t) * 1e3, "ms");
  result.layer("nn.conv1d_fwd_ms_per_flow",
               per(span("nn.conv1d.forward").seconds, flows_t) * 1e3, "ms");
  result.layer("nn.attention_fwd_ms_per_flow",
               per(span("nn.attention.forward").seconds, flows_t) * 1e3, "ms");
  result.layer("nn.arena_allocs_per_flow",
               per(counter("nn.arena.alloc"), flows_t), "count");
  result.layer("nprint.decode_us_per_flow",
               per(span("nprint.decode_flow").seconds, flows_t) * 1e6, "us");
  result.layer("net.parse_us_per_flow", per(t.parse, flows_t) * 1e6, "us");
  result.layer("net.pcap_ns_per_packet", per(t.pcap, packets_t) * 1e9, "ns");
  result.layer("replay.emit.source_us_per_flow", per(t.source, flows_t) * 1e6,
               "us");
  result.layer("replay.emit.sched_ns_per_packet", per(sched, packets_t) * 1e9,
               "ns");
  result.layer("replay.chain_ns_per_packet", per(t.chain, packets_t) * 1e9,
               "ns");
  result.layer("replay.tcp_acceptance",
               in.tcp_packets == 0
                   ? 1.0
                   : static_cast<double>(in.tcp_accepted) /
                         static_cast<double>(in.tcp_packets),
               "ratio");
  result.layer("common.parallel.tasks_per_flow",
               per(counter("parallel.tasks"), flows_t), "count");

  // The main thread's traced wall time, split into what it was doing.
  // A row is attributed only if a timer around one layer call measures
  // it. The emitter's own scheduling is its run time minus the timed
  // source and sink calls inside it. On replay-chain the source is
  // VectorFlowSource, timed whole; on wire-* its time is the client's
  // send, read_reply and parse plus the benchmark's request bookkeeping.
  // read_reply is blind: it waits for the server (queue, batch, model)
  // and then decodes, and the client's API cannot split the two, so it
  // stays unattributed until one trace id runs from frame to packet.
  const double wall = in.traced.wall;
  const double source_rest = t.source - t.send - t.read - t.parse;
  const bool wire_source = t.requests > 0;
  const double attributed = t.send + t.parse + sched + sinks +
                            (wire_source ? 0.0 : source_rest);
  const double unattributed = wall - attributed;
  result.layer("ledger.attributed_frac", per(attributed, wall), "ratio");
  result.layer("ledger.unattributed_us_per_flow",
               per(unattributed, flows_t) * 1e6, "us");
  const double fps_plain = in.untraced.flows_per_s();
  const double overhead_pct =
      per(fps_plain - in.traced.flows_per_s(), fps_plain) * 100.0;
  result.layer("ledger.trace_overhead_pct", overhead_pct, "%");

  const struct {
    const char* row;
    double seconds;
  } rows[] = {
      {"serve.net send", t.send},
      {"net parse", t.parse},
      {"replay.emit source", wire_source ? 0.0 : source_rest},
      {"replay.emit schedule", sched},
      {"net pcap sink", t.pcap},
      {"replay chain sink", t.chain},
      {"unattributed", unattributed},
      {"  of which read_reply (server wait + decode)", t.read},
      {"  of which wire source bookkeeping",
       wire_source ? source_rest : 0.0},
      {"  of which round set-up (sinks, emitter)", wall - t.emit_run},
  };
  std::fprintf(stderr, "ledger (main thread, %llu traced flows, %.3f s):\n",
               static_cast<unsigned long long>(in.traced.flows), wall);
  std::fprintf(stderr, "  %-44s %12s %8s\n", "row", "us/flow", "share");
  for (const auto& r : rows) {
    std::fprintf(stderr, "  %-44s %12.2f %7.2f%%\n", r.row,
                 per(r.seconds, flows_t) * 1e6, per(r.seconds, wall) * 100.0);
  }
  std::fprintf(stderr, "  attributed %.4f, tracing overhead %.2f%%\n",
               per(attributed, wall), overhead_pct);
}

}  // namespace e2e
