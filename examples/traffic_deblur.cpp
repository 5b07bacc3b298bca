// Traffic deblurring (§4's research-agenda item, implemented): restore
// the missing packets of a partially captured flow with diffusion
// inpainting. A capture with holes (dropped by a sampler, a lossy tap,
// or privacy redaction) is completed so that the observed packets are
// preserved verbatim and the holes are filled with class-consistent
// synthetic packets.
#include <cstdio>

#include "diffusion/pipeline.hpp"
#include "flowgen/generator.hpp"
#include "net/pcap.hpp"

using namespace repro;

int main() {
  Rng rng(21);
  flowgen::Dataset real;
  for (int i = 0; i < 10; ++i) {
    net::Flow a = flowgen::generate_flow(flowgen::App::kNetflix, rng);
    a.label = 0;
    real.flows.push_back(std::move(a));
    net::Flow b = flowgen::generate_flow(flowgen::App::kMeet, rng);
    b.label = 1;
    real.flows.push_back(std::move(b));
  }

  diffusion::PipelineConfig config;
  config.packets = 16;
  config.autoencoder.hidden_dim = 192;
  config.autoencoder.latent_dim = 24;
  config.unet.base_channels = 16;
  config.timesteps = 50;
  config.ae_epochs = 15;
  config.diffusion_epochs = 10;
  config.control_epochs = 6;
  diffusion::TraceDiffusion pipeline(config, {"netflix", "meet"});
  std::printf("training on %zu flows...\n", real.size());
  pipeline.fit(real);

  // A fresh flow, then a lossy capture of it: packets 3..10 missing.
  net::Flow original = flowgen::generate_flow(flowgen::App::kMeet, 16, rng);
  original.label = 1;
  std::vector<bool> known(16, true);
  for (std::size_t i = 3; i <= 10; ++i) known[i] = false;
  net::Flow corrupted = original;
  for (std::size_t i = 0; i < corrupted.packets.size(); ++i) {
    if (!known[i]) {
      corrupted.packets[i] = net::Packet{};
      corrupted.packets[i].udp = net::UdpHeader{};
      corrupted.packets[i].ip.protocol = net::IpProto::kUdp;
    }
  }
  std::printf("corrupted capture: 8 of 16 packets blanked\n");

  diffusion::GenerateOptions opts;
  opts.ddim_steps = 12;
  const net::Flow restored =
      pipeline.deblur(corrupted, known, 1, opts, /*seed=*/5);
  std::printf("restored flow: %zu packets\n", restored.packet_count());
  std::size_t verbatim = 0;
  for (std::size_t i = 0; i < restored.packets.size() && i < known.size();
       ++i) {
    const char* source = "synthesized";
    if (i < original.packets.size() && known[i]) {
      ++verbatim;
      source = "observed (verbatim)";
    }
    const auto& pkt = restored.packets[i];
    std::printf("  pkt %2zu: %s %4zu bytes  [%s]\n", i,
                net::proto_name(pkt.ip.protocol).c_str(),
                pkt.datagram_length(), source);
  }
  std::printf("%zu observed packets preserved; holes filled with "
              "class-consistent packets.\n",
              verbatim);
  net::write_pcap_file("traffic_deblur_restored.pcap", restored.packets);
  std::printf("wrote traffic_deblur_restored.pcap\n");
  return 0;
}
