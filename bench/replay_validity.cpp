// Replayability experiment (§2.3 / §3.2 / §4): can synthetic traces
// drive a *stateful* network function?
//
// The paper argues NetShare-style output "cannot be reliably replayed to
// test network functions" because it does not honour inter-packet
// protocol constraints — it produces flow records, not packets, so there
// is literally nothing to replay. The diffusion pipeline produces raw
// pcap bytes; this bench replays real and synthetic traffic through a
// middlebox chain (NAT -> conntrack firewall -> flow counter) and
// reports the strict-conntrack TCP acceptance rate plus end-to-end
// delivery. The three synthetic sets (full stack, raw, stateful repair)
// share the base seed bench::kSynSeed, so each flow of one set starts
// from the same noise as its counterpart in the others.
#include "bench_common.hpp"

#include "eval/report.hpp"
#include "net/pcap.hpp"
#include "replay/conntrack.hpp"
#include "replay/functions.hpp"

using namespace repro;

namespace {

struct ReplayRow {
  std::string name;
  double tcp_acceptance = 0.0;
  double delivery = 0.0;
  std::size_t handshakes = 0;
  std::size_t packets = 0;
};

ReplayRow run_chain(const std::string& name,
                    const std::vector<net::Flow>& flows) {
  // LAN-side tap ordering: the stateful firewall sees the capture's
  // original (pre-NAT) 5-tuples; the masquerading NAT sits at egress.
  replay::ReplayEngine engine;
  auto conntrack = std::make_unique<replay::ConntrackFunction>();
  replay::ConntrackFunction* tracker = conntrack.get();
  engine.add_function(std::move(conntrack));
  engine.add_function(std::make_unique<replay::SourceNat>(
      net::ipv4_from_string("203.0.113.1")));
  engine.add_function(std::make_unique<replay::FlowCounter>());

  const auto packets = net::flatten_flows(flows);
  const replay::ReplayReport report = engine.replay(packets);
  ReplayRow row;
  row.name = name;
  row.packets = report.input_packets;
  row.tcp_acceptance = tracker->stats().tcp_acceptance();
  row.delivery = report.input_packets
                     ? static_cast<double>(report.delivered_packets) /
                           static_cast<double>(report.input_packets)
                     : 0.0;
  row.handshakes = tracker->stats().handshakes_completed;
  return row;
}

}  // namespace

int main() {
  bench::Scale scale;
  bench::BenchReport report("replay_validity",
                            "replayable-trace experiment (stateful conntrack "
                            "acceptance, §2.3/§3.2/§4)");

  report.stage("build_dataset");
  Rng rng(1);
  const flowgen::Dataset real =
      flowgen::build_table1_dataset(scale.flows_per_class, rng);

  report.stage("fit_diffusion");
  diffusion::TraceDiffusion pipeline(bench::pipeline_config(scale),
                                     bench::class_names());
  Rng cap_rng(2);
  std::printf("fitting diffusion pipeline...\n");
  pipeline.fit(real.sample_per_class(scale.train_per_class, cap_rng));
  report.stage("generate_synthetic");
  const flowgen::Dataset ours = pipeline.generate_dataset(
      std::vector<std::size_t>(flowgen::kNumApps, scale.syn_per_class),
      bench::generate_options(scale), bench::kSynSeed);

  // Also an unconstrained variant (no control, no projection): how much
  // of the replayability comes from the constraint machinery?
  diffusion::GenerateOptions raw_opts = bench::generate_options(scale);
  raw_opts.use_control = false;
  raw_opts.constraint = diffusion::ConstraintMode::kOff;
  const flowgen::Dataset ours_raw = pipeline.generate_dataset(
      std::vector<std::size_t>(flowgen::kNumApps, scale.syn_per_class),
      raw_opts, bench::kSynSeed);

  // The §4 extension: hard projection onto the TCP state machine.
  diffusion::GenerateOptions stateful_opts = bench::generate_options(scale);
  stateful_opts.stateful_tcp_repair = true;
  const flowgen::Dataset ours_stateful = pipeline.generate_dataset(
      std::vector<std::size_t>(flowgen::kNumApps, scale.syn_per_class),
      stateful_opts, bench::kSynSeed);

  report.stage("replay_chains");
  std::vector<ReplayRow> rows = {
      run_chain("real traffic", real.flows),
      run_chain("synthetic (ours, full stack)", ours.flows),
      run_chain("synthetic (ours, unconstrained)", ours_raw.flows),
      run_chain("synthetic (ours + stateful TCP repair)",
                ours_stateful.flows),
  };

  std::vector<std::vector<std::string>> table;
  for (const auto& row : rows) {
    table.push_back({row.name, std::to_string(row.packets),
                     eval::fmt(row.tcp_acceptance, 3),
                     eval::fmt(row.delivery, 3),
                     std::to_string(row.handshakes)});
  }
  std::printf("\n%s\n",
              eval::format_table({"trace", "packets", "tcp conntrack accept",
                                  "end-to-end delivery", "handshakes"},
                                 table)
                  .c_str());
  std::printf("note: the GAN baseline emits NetFlow records, not packets — "
              "there is no trace to replay, which is the paper's point.\n");

  report.note("real_tcp_acceptance", rows[0].tcp_acceptance);
  report.note("ours_tcp_acceptance", rows[1].tcp_acceptance);
  report.note("stateful_tcp_acceptance", rows[3].tcp_acceptance);
  const bool shape_real = rows[0].tcp_acceptance > 0.999;
  const bool shape_better =
      rows[1].tcp_acceptance >= rows[2].tcp_acceptance;
  const bool shape_stateful = rows[3].tcp_acceptance > 0.95;
  std::printf("shape checks:\n");
  std::printf("  real traffic fully accepted ............. %s (%.3f)\n",
              shape_real ? "yes" : "NO", rows[0].tcp_acceptance);
  std::printf("  constraints do not hurt acceptance ...... %s (%.3f vs %.3f)\n",
              shape_better ? "yes" : "NO", rows[1].tcp_acceptance,
              rows[2].tcp_acceptance);
  std::printf("  stateful repair achieves firewall-valid . %s (%.3f)\n",
              shape_stateful ? "yes" : "NO", rows[3].tcp_acceptance);
  return shape_real && shape_stateful ? 0 : 1;
}
