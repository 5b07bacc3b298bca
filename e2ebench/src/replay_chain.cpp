// replay-chain: no model. Ground-truth flowgen sessions are replayed as
// trace jobs. A job is one emitter run over the sessions of one pool
// entry, with distinct 5-tuples, through a fresh tee of pcap and the
// conntrack -> source-NAT chain. Every TCP packet walks the conntrack
// state machine, so this exercises replay.emit, replay and net on
// traffic the strict firewall must accept in full.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/trace.hpp"
#include "flowgen/catalog.hpp"
#include "flowgen/icmp_session.hpp"
#include "flowgen/tcp_session.hpp"
#include "flowgen/udp_session.hpp"
#include "ledger.hpp"
#include "replay/emit/source.hpp"
#include "replay/functions.hpp"
#include "round.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using repro::flowgen::App;
using repro::net::Flow;
using repro::net::IpProto;

constexpr std::size_t kPacketsPerSession = 16;
constexpr int kSetupRepeats = 7;

/// Session slots of a job, cycled: 4 TCP, 3 UDP, 1 ICMP, from
/// near-MTU streaming to small control and echo packets.
constexpr struct {
  App app;
  IpProto proto;
} kSlots[] = {
    {App::kNetflix, IpProto::kTcp},  {App::kTeams, IpProto::kUdp},
    {App::kTwitter, IpProto::kTcp},  {App::kOther, IpProto::kIcmp},
    {App::kAmazon, IpProto::kTcp},   {App::kZoom, IpProto::kUdp},
    {App::kFacebook, IpProto::kTcp}, {App::kOther, IpProto::kUdp},
};

struct Job {
  std::vector<Flow> sessions;
  std::size_t tcp_sessions = 0;
  std::size_t private_source_packets = 0;  ///< what the NAT must rewrite
};

Job make_job(std::size_t job, std::size_t sessions, repro::Rng& rng) {
  Job out;
  for (std::size_t s = 0; s < sessions; ++s) {
    const auto& slot = kSlots[s % std::size(kSlots)];
    const auto& profile = repro::flowgen::app_profile(slot.app);
    // Distinct 5-tuples: one private client address per session.
    repro::flowgen::Endpoints ep;
    ep.client_addr = 0x0A000000u | static_cast<std::uint32_t>(job << 12) |
                     static_cast<std::uint32_t>(s + 1);
    ep.server_addr = 0x0D000000u | static_cast<std::uint32_t>(job << 12) |
                     static_cast<std::uint32_t>(s + 1);
    ep.client_port = static_cast<std::uint16_t>(40000 + s);
    ep.server_port = profile.sample_server_port(rng);
    Flow flow;
    switch (slot.proto) {
      case IpProto::kTcp:
        flow = repro::flowgen::generate_tcp_flow(profile, ep,
                                                 kPacketsPerSession, rng);
        ++out.tcp_sessions;
        break;
      case IpProto::kUdp:
        flow = repro::flowgen::generate_udp_flow(profile, ep,
                                                 kPacketsPerSession, rng);
        break;
      case IpProto::kIcmp:
        flow = repro::flowgen::generate_icmp_flow(profile, ep,
                                                  kPacketsPerSession, rng);
        break;
    }
    for (const auto& packet : flow.packets) {
      if (repro::replay::SourceNat::is_private(packet.ip.src_addr)) {
        ++out.private_source_packets;
      }
    }
    out.sessions.push_back(std::move(flow));
  }
  return out;
}

std::vector<Job> make_pool(std::size_t jobs, std::size_t sessions,
                           std::uint64_t seed) {
  repro::Rng rng(seed);
  std::vector<Job> pool;
  for (std::size_t j = 0; j < jobs; ++j) {
    pool.push_back(make_job(j, sessions, rng));
  }
  return pool;
}

}  // namespace

Result run_replay_chain(const Options& options) {
  Result result;
  const double process_start = now_s();
  const std::size_t jobs = options.tiny ? 2 : 64;
  const std::size_t sessions = options.tiny ? 8 : 64;

  // A set-up builds the whole pool (30-40 ms at full size); it is
  // repeated and the median reported. The previous pool is released
  // first, so only one pool is ever alive.
  std::vector<Job> pool;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = i == 0 ? process_start : now_s();
    pool.clear();
    pool.shrink_to_fit();
    pool = make_pool(jobs, sessions, options.seed);
    setup_s.push_back(now_s() - t0);
  }
  std::size_t smallest = SIZE_MAX;
  std::size_t largest = 0;
  for (const Job& job : pool) {
    for (const Flow& flow : job.sessions) {
      for (const auto& packet : flow.packets) {
        smallest = std::min(smallest, packet.datagram_length());
        largest = std::max(largest, packet.datagram_length());
      }
    }
  }
  std::fprintf(stderr, "replay-chain: %zu jobs x %zu sessions, packets %zu..%zu B\n",
               jobs, sessions, smallest, largest);

  repro::telemetry::Registry::instance().reset();
  repro::telemetry::reset_profile();
  LayerInputs layers;
  for (std::uint64_t r = 0; layers.all.wall < options.seconds ||
                            (options.trace && layers.traced.ops == 0);
       ++r) {
    const Job& job = pool[r % pool.size()];
    const bool traced = options.trace && r % 2 == 1;
    repro::replay::emit::VectorFlowSource source(job.sessions);
    repro::telemetry::set_enabled(traced);
    const RoundResult round =
        run_round(source, job.sessions.size(), mix(options.seed, r),
                  traced ? &layers.timers : nullptr);
    repro::telemetry::set_enabled(false);
    account_round(layers, round, 1, traced);
    layers.all.op_seconds.push_back(round.wall);
    ++result.attempted;

    for (std::string& e : check_round(round)) result.fail(std::move(e));
    for (std::string& e : check_chain_job(round, job.tcp_sessions,
                                          job.private_source_packets)) {
      result.fail(std::move(e));
    }
    if (!result.errors.empty()) {
      ++result.failed;
      break;
    }
  }
  if (options.trace) {
    report_per_layer(result, layers);
  } else {
    report_end_to_end(result, layers.all, setup_s);
  }
  return result;
}

}  // namespace e2e
