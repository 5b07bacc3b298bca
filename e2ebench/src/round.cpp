#include "round.hpp"

#include <memory>
#include <ostream>
#include <streambuf>

#include "common.hpp"
#include "replay/emit/emitter.hpp"
#include "replay/functions.hpp"

namespace e2e {
namespace {

using repro::replay::emit::FlowSource;
using repro::replay::emit::PacketSink;

/// Counts the source's time in traced rounds.
class TimedSource final : public FlowSource {
 public:
  TimedSource(FlowSource& inner, double& total)
      : inner_(inner), total_(total) {}
  std::string name() const override { return inner_.name(); }
  std::optional<repro::net::Flow> next_flow() override {
    const double t0 = now_s();
    std::optional<repro::net::Flow> flow = inner_.next_flow();
    total_ += now_s() - t0;
    return flow;
  }
  bool exhausted() const override { return inner_.exhausted(); }

 private:
  FlowSource& inner_;
  double& total_;
};

/// An in-memory pcap file whose storage is kept from round to round. A
/// fresh buffer per round (about 0.8 MB on replay-chain) costs fresh
/// pages every round, and page faults on a 4-vCPU virtual machine are
/// slow and of erratic cost: with a fresh buffer, runs of one replay-chain
/// seed there ranged from 28,000 to 42,000 flows/s.
class PcapBuffer final : public std::streambuf {
 public:
  void clear() { bytes_.clear(); }
  std::string_view bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      bytes_.push_back(traits_type::to_char_type(c));
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes_.append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::string bytes_;
};

/// Every packet goes to the pcap writer and then through the chain.
class TeeSink final : public PacketSink {
 public:
  TeeSink(PacketSink& pcap, PacketSink& chain, LayerTimers* timers)
      : pcap_(pcap), chain_(chain), timers_(timers) {}
  std::string name() const override { return "tee"; }
  void emit(const repro::net::Packet& packet, double time) override {
    if (timers_ == nullptr) {
      pcap_.emit(packet, time);
      chain_.emit(packet, time);
      return;
    }
    const double t0 = now_s();
    pcap_.emit(packet, time);
    const double t1 = now_s();
    chain_.emit(packet, time);
    const double t2 = now_s();
    timers_->pcap += t1 - t0;
    timers_->chain += t2 - t1;
  }
  void finish() override {
    pcap_.finish();
    chain_.finish();
  }

 private:
  PacketSink& pcap_;
  PacketSink& chain_;
  LayerTimers* timers_;
};

}  // namespace

RoundResult run_round(FlowSource& source, std::uint64_t flows,
                      std::uint64_t seed, LayerTimers* timers) {
  RoundResult out;
  const double t0 = now_s();
  const double c0 = cpu_s();
  static PcapBuffer pcap_buffer;
  pcap_buffer.clear();
  std::ostream pcap_bytes(&pcap_buffer);
  {
    repro::replay::emit::PcapSink pcap(pcap_bytes);
    repro::replay::emit::ChainSink chain;
    // Firewall before NAT: conntrack must see the recorded 5-tuples.
    auto conntrack = std::make_unique<repro::replay::ConntrackFunction>();
    auto nat = std::make_unique<repro::replay::SourceNat>(kNatAddress);
    const auto* conntrack_view = conntrack.get();
    const auto* nat_view = nat.get();
    chain.engine().add_function(std::move(conntrack));
    chain.engine().add_function(std::move(nat));
    TeeSink tee(pcap, chain, timers);

    repro::replay::emit::EmitConfig config;
    // Virtual time only shapes how flows interleave; the wall rate is
    // set by the source. 1e5 pps with intra-flow gaps scaled by 1e-4
    // keeps several flows active at once, and a round's virtual span
    // well under one second.
    config.target_pps = 1.0e5;
    config.time_scale = 1.0e-4;
    config.total_flows = flows;
    config.arrival = repro::replay::emit::Arrival::kFixedRate;
    config.seed = seed;
    repro::replay::emit::VirtualPacer pacer;
    if (timers != nullptr) {
      TimedSource timed(source, timers->source);
      repro::replay::emit::OpenLoopEmitter emitter(config, timed, pacer, tee);
      const double r0 = now_s();
      out.emit = emitter.run();
      timers->emit_run += now_s() - r0;
    } else {
      repro::replay::emit::OpenLoopEmitter emitter(config, source, pacer,
                                                   tee);
      out.emit = emitter.run();
    }
    out.chain = chain.report();
    out.conntrack = conntrack_view->stats();
    out.nat_rewrites = nat_view->rewrites();
  }
  out.wall = now_s() - t0;
  out.cpu = cpu_s() - c0;
  out.pcap = pcap_buffer.bytes();
  return out;
}

Errors check_round(const RoundResult& round) {
  Errors errors = check_emit(round.emit);
  for (std::string& e : check_pcap(round.pcap, round.emit.packets_emitted)) {
    errors.push_back(std::move(e));
  }
  for (std::string& e : check_chain(round.chain)) {
    errors.push_back(std::move(e));
  }
  if (round.chain.input_packets != round.emit.packets_emitted) {
    errors.push_back("chain: saw " + std::to_string(round.chain.input_packets) +
                     " of " + std::to_string(round.emit.packets_emitted) +
                     " emitted packets");
  }
  return errors;
}

Errors check_chain_job(const RoundResult& round, std::size_t tcp_sessions,
                       std::size_t private_source_packets) {
  Errors errors;
  const auto& ct = round.conntrack;
  if (ct.tcp_accepted != ct.tcp_packets) {
    errors.push_back("conntrack: accepted " + std::to_string(ct.tcp_accepted) +
                     " of " + std::to_string(ct.tcp_packets) +
                     " TCP packets");
  }
  if (ct.handshakes_completed != tcp_sessions) {
    errors.push_back("conntrack: " + std::to_string(ct.handshakes_completed) +
                     " handshakes for " + std::to_string(tcp_sessions) +
                     " TCP sessions");
  }
  if (round.nat_rewrites != private_source_packets) {
    errors.push_back("nat: " + std::to_string(round.nat_rewrites) +
                     " rewrites for " +
                     std::to_string(private_source_packets) +
                     " private-source packets");
  }
  return errors;
}

}  // namespace e2e
