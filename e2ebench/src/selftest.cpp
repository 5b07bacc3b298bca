// Self-test: runs the three workloads at tiny scale with every check,
// traced and untraced, then shows that each check can fail by feeding
// it a corrupted copy of a good output.
#include <bit>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/rng.hpp"
#include "flowgen/catalog.hpp"
#include "flowgen/tcp_session.hpp"
#include "replay/emit/sink.hpp"
#include "replay/emit/source.hpp"
#include "round.hpp"
#include "serve/net/protocol.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

struct Tally {
  int run = 0;
  int failed = 0;
  void expect(bool ok, const std::string& what) {
    ++run;
    if (!ok) ++failed;
    std::fprintf(stderr, "%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  }
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// A small valid TCP session between private client and public server.
repro::net::Flow tcp_session(std::uint64_t seed) {
  repro::Rng rng(seed);
  repro::flowgen::Endpoints ep;
  ep.client_addr = 0x0A000001u;
  ep.server_addr = 0x0D000001u;
  ep.client_port = 40000;
  ep.server_port = 443;
  return repro::flowgen::generate_tcp_flow(
      repro::flowgen::app_profile(repro::flowgen::App::kNetflix), ep, 12,
      rng);
}

std::string pcap_of(const repro::net::Flow& flow) {
  std::ostringstream out;
  repro::replay::emit::PcapSink sink(out);
  for (std::size_t i = 0; i < flow.packets.size(); ++i) {
    sink.emit(flow.packets[i], 1e-3 * static_cast<double>(i));
  }
  return out.str();
}

constexpr std::size_t kGlobal = 24;
constexpr std::size_t kRecordHeader = 16;

/// Offset of record `index`'s header in a pcap image.
std::size_t record_offset(const std::string& image, std::size_t index) {
  std::size_t pos = kGlobal;
  for (std::size_t i = 0; i < index; ++i) {
    const auto* p = reinterpret_cast<const unsigned char*>(image.data() + pos);
    pos += kRecordHeader + (p[8] | p[9] << 8 | p[10] << 16);
  }
  return pos;
}

void workloads(Tally& tally) {
  for (const char* name : {"wire-cold", "wire-warm", "replay-chain"}) {
    for (const bool trace : {false, true}) {
      Options options;
      options.workload = name;
      options.seed = 3;
      options.seconds = 0.5;
      options.trace = trace;
      options.tiny = true;
      const bool wire = name[0] == 'w';
      Result r;
      try {
        r = wire ? run_wire(options, std::string(name) == "wire-warm")
                 : run_replay_chain(options);
      } catch (const std::exception& e) {
        r.fail(std::string("aborted: ") + e.what());
      }
      const std::string label =
          std::string(name) + (trace ? " traced" : " untraced");
      // The toy model must fail the packet-size check and nothing else:
      // that is the check's reason to exist.
      bool other_errors = false;
      bool size_errors = false;
      for (const std::string& e : r.errors) {
        (starts_with(e, "size:") ? size_errors : other_errors) = true;
        if (!starts_with(e, "size:")) {
          std::fprintf(stderr, "  %s\n", e.c_str());
        }
      }
      tally.expect(!other_errors && r.attempted > 0 && r.failed == 0,
                   label + ": runs with every output check passing");
      if (wire) {
        tally.expect(size_errors,
                     label + ": size check rejects the toy-scale model");
      }
      const auto& metrics = trace ? r.per_layer : r.end_to_end;
      bool positive = !metrics.empty();
      for (const Metric& m : metrics) {
        if (!trace && !(m.value > 0.0)) positive = false;
      }
      tally.expect(positive, label + ": reports its metrics" +
                                 (trace ? "" : ", all above 0"));
    }
  }
}

void fault_injection(Tally& tally) {
  const repro::net::Flow flow = tcp_session(5);
  const std::string good = pcap_of(flow);
  const std::size_t n = flow.packets.size();
  tally.expect(check_pcap(good, n).empty(), "pcap: clean image passes");

  std::string flipped = good;  // one byte of the first IPv4 header
  flipped[record_offset(good, 0) + kRecordHeader + 8] ^= 0x01;  // TTL
  tally.expect(!check_pcap(flipped, n).empty(),
               "pcap: a flipped header byte fails the IPv4 checksum");

  const std::string dropped = good.substr(0, record_offset(good, n - 1));
  tally.expect(!check_pcap(dropped, n).empty(),
               "pcap: a dropped packet fails the record count");

  std::string reordered = good;  // record 1 moved one second later
  reordered[record_offset(good, 1)] = 1;
  tally.expect(!check_pcap(reordered, n).empty(),
               "pcap: a decreasing timestamp fails");

  std::string relabeled = good;  // TCP datagram claiming to be UDP
  {
    auto* ip = reinterpret_cast<unsigned char*>(
        relabeled.data() + record_offset(good, 0) + kRecordHeader);
    ip[9] = 17;
    ip[10] = 0;
    ip[11] = 0;
    const std::uint16_t sum = inet_checksum(ip, 20);
    ip[10] = static_cast<unsigned char>(sum >> 8);
    ip[11] = static_cast<unsigned char>(sum & 0xFF);
  }
  tally.expect(!check_pcap(relabeled, n).empty(),
               "pcap: a protocol field naming the wrong header fails");

  repro::replay::emit::EmitReport emit;
  emit.flows_scheduled = 4;
  emit.flows_emitted = 4;
  emit.packets_scheduled = emit.packets_emitted = 40;
  tally.expect(check_emit(emit).empty(), "emitter: conserved run passes");
  emit.flows_emitted = 3;
  emit.underruns = 1;
  tally.expect(!check_emit(emit).empty(), "emitter: an underrun fails");
  emit.underruns = 0;
  tally.expect(!check_emit(emit).empty(), "emitter: a lost flow fails");

  repro::replay::ReplayReport chain;
  chain.input_packets = 10;
  chain.delivered_packets = 8;
  chain.functions.push_back({"conntrack", 10, 9, 1});
  tally.expect(!check_chain(chain).empty(),
               "chain: input != output + drops fails");
  chain.functions.back().dropped = 2;
  tally.expect(check_chain(chain).empty(), "chain: balanced report passes");

  std::vector<repro::serve::wire::WireFlow> wire_flows(1);
  wire_flows[0].label = flow.label;
  for (const auto& packet : flow.packets) {
    wire_flows[0].packets.push_back(
        {std::bit_cast<std::uint64_t>(packet.timestamp), packet.serialize()});
  }
  const std::vector<repro::net::Flow> library{flow};
  tally.expect(repro::serve::wire::hash_wire_flows(wire_flows) ==
                   repro::serve::wire::hash_flows(library),
               "determinism: identical flows hash equal");
  wire_flows[0].packets[3].bytes.back() ^= 0x01;
  tally.expect(repro::serve::wire::hash_wire_flows(wire_flows) !=
                   repro::serve::wire::hash_flows(library),
               "determinism: a mismatched reply fails the hash");

  tally.expect(size_within_tolerance(700.0, 550.0) &&
                   !size_within_tolerance(3000.0, 550.0) &&
                   !size_within_tolerance(200.0, 550.0),
               "size: tolerance admits 1.3x and rejects 5.5x and 0.36x");

  // A TCP session with its SYN removed: conntrack must drop it.
  repro::net::Flow no_syn = flow;
  no_syn.packets.erase(no_syn.packets.begin());
  repro::replay::emit::VectorFlowSource good_source({flow});
  const RoundResult ok = run_round(good_source, 1, 1, nullptr);
  std::size_t outbound = 0;
  for (const auto& p : flow.packets) outbound += (p.ip.src_addr >> 24) == 10;
  tally.expect(check_round(ok).empty() &&
                   check_chain_job(ok, 1, outbound).empty(),
               "replay-chain: a valid session passes the job checks");
  tally.expect(!check_chain_job(ok, 1, outbound + 1).empty(),
               "replay-chain: a wrong NAT rewrite count fails");
  repro::replay::emit::VectorFlowSource bad_source({no_syn});
  const RoundResult bad = run_round(bad_source, 1, 1, nullptr);
  tally.expect(!check_chain_job(bad, 1, outbound).empty(),
               "replay-chain: a session without its SYN fails acceptance");
}

}  // namespace

int run_selftest() {
  Tally tally;
  fault_injection(tally);
  workloads(tally);
  std::fprintf(stderr, "selftest: %d checks, %d failed\n", tally.run,
               tally.failed);
  std::printf("{\"selftest\": %s, \"checks\": %d, \"failed\": %d}\n",
              tally.failed == 0 ? "true" : "false", tally.run, tally.failed);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace e2e
