// Quickstart: the smallest useful tour of the library.
//
//   1. synthesize a tiny labeled "real" dataset (2 classes),
//   2. fit the text-to-traffic diffusion pipeline on it,
//   3. generate flows from a class prompt,
//   4. write them to a pcap file any tool can open.
//
// Runs in well under a minute on a laptop core. See
// examples/service_recognition.cpp for the paper's full case study.
#include <cstdio>

#include "diffusion/pipeline.hpp"
#include "flowgen/generator.hpp"
#include "net/pcap.hpp"

using namespace repro;

int main() {
  // 1. A tiny dataset: 10 Netflix (TCP) and 10 Teams (UDP) flows.
  Rng rng(42);
  flowgen::Dataset real;
  for (int i = 0; i < 10; ++i) {
    net::Flow a = flowgen::generate_flow(flowgen::App::kNetflix, rng);
    a.label = 0;
    real.flows.push_back(std::move(a));
    net::Flow b = flowgen::generate_flow(flowgen::App::kTeams, rng);
    b.label = 1;
    real.flows.push_back(std::move(b));
  }
  std::printf("built %zu labeled flows\n", real.size());

  // 2. A small pipeline configuration (see PipelineConfig for the knobs).
  diffusion::PipelineConfig config;
  config.packets = 16;            // flow-image height
  config.autoencoder.latent_dim = 16;
  config.unet.base_channels = 16;
  config.timesteps = 50;
  config.ae_epochs = 15;
  config.diffusion_epochs = 10;
  config.control_epochs = 5;

  diffusion::TraceDiffusion pipeline(config, {"netflix", "teams"});
  std::printf("training (autoencoder -> diffusion -> control)...\n");
  const auto stats = pipeline.fit(real);
  std::printf("trained %zu-parameter U-Net; losses: ae %.3f, diffusion %.3f\n",
              stats.unet_parameters, stats.ae_final_loss,
              stats.diffusion_final_loss);

  // 3. Text-to-traffic: prompts are "Type-<k>" or class names. The seed
  //    makes the flows reproducible: the same seed gives the same bytes.
  const int class_id = *pipeline.prompts().parse_prompt("Type-1");
  diffusion::GenerateOptions opts;
  opts.count = 5;
  opts.ddim_steps = 10;
  const auto flows = pipeline.generate_seeded(class_id, opts, /*seed=*/7);
  std::printf("generated %zu flows for prompt 'Type-1' (%s)\n", flows.size(),
              pipeline.prompts().class_name(class_id).c_str());
  for (const auto& flow : flows) {
    std::printf("  %zu packets, dominant protocol %s\n", flow.packet_count(),
                net::proto_name(flow.dominant_protocol()).c_str());
  }

  // 4. Replayable output: genuine pcap bytes.
  std::vector<net::Packet> packets = net::flatten_flows(flows);
  net::write_pcap_file("quickstart_synthetic.pcap", packets);
  std::printf("wrote quickstart_synthetic.pcap (%zu packets) — open it in "
              "Wireshark.\n",
              packets.size());
  return 0;
}
