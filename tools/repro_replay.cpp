// repro_replay — open-loop replay CLI over src/replay/emit: schedules
// flows with a configurable arrival process toward a target aggregate
// pps, paces them in virtual or real time, and lands packets in a
// null / pcap / network-function-chain sink. The emitter's invariants
// (byte-identical same-seed pcaps, event conservation, strict-conntrack
// acceptance at rate) are gated by tests/replay_emit_test.cpp.
//
//   repro_replay [--flows N] [--packets N] [--pps X] [--arrival KIND]
//                [--seed S] [--time-scale X] [--duration SECS]
//                [--sink null|pcap|chain] [--out FILE] [--real-time]
//                [--source flowgen|served]
//       One emission run; prints the report. --source served trains a
//       tiny toy model and pulls flows through serve::TraceService
//       (cooperative pump), demonstrating the generation -> wire loop.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "diffusion/pipeline.hpp"
#include "flowgen/generator.hpp"
#include "flowgen/tcp_session.hpp"
#include "replay/conntrack.hpp"
#include "replay/emit/emitter.hpp"
#include "replay/functions.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "support/toy_model.hpp"

using namespace repro;
using replay::emit::Arrival;
using replay::emit::EmitConfig;
using replay::emit::EmitReport;

namespace {

struct Options {
  bool real_time = false;
  std::size_t flows = 64;
  std::size_t packets = 12;
  double pps = 20000.0;
  Arrival arrival = Arrival::kFixedRate;
  std::uint64_t seed = 1;
  double time_scale = 1.0;
  double duration = 0.0;
  std::string sink = "null";
  std::string source = "flowgen";
  std::string out = "replay.pcap";
};

/// Distinct endpoints per flow so stateful chain functions see one
/// connection per flow (overlapping 5-tuples would collide in the
/// conntrack table mid-run).
std::vector<net::Flow> make_flows(std::size_t flows, std::size_t packets,
                                  std::uint64_t seed) {
  std::vector<net::Flow> out;
  out.reserve(flows);
  Rng rng(seed);
  const auto& profile = flowgen::app_profile(flowgen::App::kNetflix);
  for (std::size_t i = 0; i < flows; ++i) {
    flowgen::Endpoints ep;
    ep.client_addr = 0x0A000001u + static_cast<std::uint32_t>(i % 250);
    ep.server_addr = 0x0D000001u + static_cast<std::uint32_t>((i / 250) % 250);
    ep.client_port = static_cast<std::uint16_t>(40000 + (i % 20000));
    ep.server_port = 443;
    out.push_back(flowgen::generate_tcp_flow(profile, ep, packets, rng));
  }
  return out;
}

void print_report(const EmitReport& report) {
  std::printf(
      "flows scheduled/emitted/underrun: %llu / %llu / %llu\n"
      "packets scheduled/emitted:        %llu / %llu\n"
      "target pps %.0f  achieved pps %.0f  (packets/flow %zu)\n"
      "jitter p50/p95/p99:   %.6fs / %.6fs / %.6fs\n"
      "lateness p50/p95/p99: %.6fs / %.6fs / %.6fs\n"
      "conserved: %s\n",
      static_cast<unsigned long long>(report.flows_scheduled),
      static_cast<unsigned long long>(report.flows_emitted),
      static_cast<unsigned long long>(report.underruns),
      static_cast<unsigned long long>(report.packets_scheduled),
      static_cast<unsigned long long>(report.packets_emitted),
      report.target_pps, report.achieved_pps, report.packets_per_flow,
      report.jitter_p50, report.jitter_p95, report.jitter_p99,
      report.lateness_p50, report.lateness_p95, report.lateness_p99,
      report.conserved() ? "yes" : "NO");
}

int run(const Options& opt) {
  // Source.
  std::vector<net::Flow> flows;
  serve::ModelRegistry registry;
  std::unique_ptr<serve::TraceService> service;
  std::unique_ptr<replay::emit::FlowSource> source;
  if (opt.source == "served") {
    std::printf("training toy model for the served source...\n");
    registry.install("default", toy::train(), "replay-v1");
    serve::ServiceConfig service_config;
    service = std::make_unique<serve::TraceService>(registry, service_config);
    replay::emit::ServedSourceConfig src;
    src.class_id = 0;
    src.seed_base = opt.seed;
    src.total_flows = opt.flows;
    src.ddim_steps = 4;
    source = std::make_unique<replay::emit::ServedFlowSource>(*service, src);
  } else if (opt.source == "flowgen") {
    flows = make_flows(opt.flows, opt.packets, opt.seed);
    source = std::make_unique<replay::emit::VectorFlowSource>(flows);
  } else {
    std::fprintf(stderr, "unknown --source '%s'\n", opt.source.c_str());
    return 2;
  }

  // Pacer.
  replay::emit::VirtualPacer virtual_pacer;
  std::unique_ptr<replay::emit::Pacer> realtime;
  replay::emit::Pacer* pacer = &virtual_pacer;
  if (opt.real_time) {
    realtime = replay::emit::make_realtime_pacer();
    pacer = realtime.get();
  }

  // Sink.
  std::ofstream pcap_out;
  std::unique_ptr<replay::emit::PacketSink> sink;
  const replay::ConntrackFunction* tracker = nullptr;
  if (opt.sink == "pcap") {
    pcap_out.open(opt.out, std::ios::binary);
    if (!pcap_out) {
      std::fprintf(stderr, "cannot open --out '%s'\n", opt.out.c_str());
      return 2;
    }
    sink = std::make_unique<replay::emit::PcapSink>(pcap_out);
  } else if (opt.sink == "chain") {
    auto chain = std::make_unique<replay::emit::ChainSink>();
    // LAN-side middlebox ordering: the strict firewall sees the
    // recorded (consistent) 5-tuples, then the NAT masquerades
    // outbound sources on egress. NAT-first would break the reply
    // direction of a recorded trace: replies are already addressed to
    // the private client, so conntrack would see two connections.
    auto conntrack = std::make_unique<replay::ConntrackFunction>();
    tracker = conntrack.get();
    chain->engine().add_function(std::move(conntrack));
    chain->engine().add_function(
        std::make_unique<replay::SourceNat>(0xC0A80001u));
    sink = std::move(chain);
  } else if (opt.sink == "null") {
    sink = std::make_unique<replay::emit::NullSink>();
  } else {
    std::fprintf(stderr, "unknown --sink '%s'\n", opt.sink.c_str());
    return 2;
  }

  EmitConfig config;
  config.target_pps = opt.pps;
  config.total_flows = opt.flows;
  config.duration = opt.duration;
  config.arrival = opt.arrival;
  config.seed = opt.seed;
  config.time_scale = opt.time_scale;

  replay::emit::OpenLoopEmitter emitter(config, *source, *pacer, *sink);
  const EmitReport report = emitter.run();
  print_report(report);
  if (tracker != nullptr) {
    std::printf("chain conntrack acceptance: %.4f\n",
                tracker->stats().tcp_acceptance());
  }
  if (opt.sink == "pcap") {
    std::printf("wrote %s\n", opt.out.c_str());
  }
  return report.conserved() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--real-time") {
      opt.real_time = true;
    } else if (arg == "--flows") {
      opt.flows = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--packets") {
      opt.packets =
          static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--pps") {
      opt.pps = std::strtod(next(), nullptr);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--time-scale") {
      opt.time_scale = std::strtod(next(), nullptr);
    } else if (arg == "--duration") {
      opt.duration = std::strtod(next(), nullptr);
    } else if (arg == "--arrival") {
      const std::string kind = next();
      if (kind == "fixed") {
        opt.arrival = Arrival::kFixedRate;
      } else if (kind == "exp") {
        opt.arrival = Arrival::kExponential;
      } else if (kind == "pareto") {
        opt.arrival = Arrival::kParetoBurst;
      } else {
        std::fprintf(stderr, "unknown --arrival '%s'\n", kind.c_str());
        return 2;
      }
    } else if (arg == "--sink") {
      opt.sink = next();
    } else if (arg == "--source") {
      opt.source = next();
    } else if (arg == "--out") {
      opt.out = next();
    } else {
      std::fprintf(stderr,
                   "usage: repro_replay [--flows N] [--packets N] [--pps X]"
                   " [--arrival fixed|exp|pareto] [--seed S]"
                   " [--time-scale X] [--duration SECS]"
                   " [--sink null|pcap|chain] [--out FILE] [--real-time]"
                   " [--source flowgen|served]\n");
      return arg == "--help" ? 0 : 2;
    }
  }
  return run(opt);
}
