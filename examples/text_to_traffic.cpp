// Text-to-traffic CLI (§3 headline capability): type a prompt, get a
// pcap. Trains once over the full 11-application catalog, then turns
// prompts ("Type-4", "teams", "zoom") into labeled traces plus the
// Figure 2-style image of the first generated flow.
//
// Usage:
//   text_to_traffic                     # generates for "Type-0"
//   text_to_traffic teams 8             # 8 Teams flows
//   text_to_traffic Type-3 4 out.pcap   # custom output path
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/env.hpp"
#include "diffusion/pipeline.hpp"
#include "flowgen/dataset.hpp"
#include "net/pcap.hpp"
#include "nprint/codec.hpp"
#include "nprint/image.hpp"

using namespace repro;

int main(int argc, char** argv) {
  const std::string prompt = argc > 1 ? argv[1] : "Type-0";
  const std::size_t count =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 4;
  const std::string out_path =
      argc > 3 ? argv[3] : "text_to_traffic.pcap";

  Rng rng(3);
  const flowgen::Dataset real = flowgen::build_uniform_dataset(
      env_size("REPRO_TRAIN_PER_CLASS", 12), rng);

  diffusion::PipelineConfig config;
  config.packets = 32;
  config.autoencoder.hidden_dim = 192;
  config.autoencoder.latent_dim = 24;
  config.unet.base_channels = 24;
  config.ae_epochs = env_size("REPRO_AE_EPOCHS", 12);
  config.diffusion_epochs = env_size("REPRO_DIFF_EPOCHS", 10);
  config.control_epochs = env_size("REPRO_CTRL_EPOCHS", 6);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < flowgen::kNumApps; ++i) {
    names.push_back(flowgen::app_name(static_cast<flowgen::App>(i)));
  }
  diffusion::TraceDiffusion pipeline(config, names);
  std::printf("training on %zu flows across %zu classes...\n", real.size(),
              flowgen::kNumApps);
  pipeline.fit(real);

  const auto class_id = pipeline.prompts().parse_prompt(prompt);
  if (!class_id || *class_id == pipeline.prompts().null_id()) {
    std::fprintf(stderr, "unknown prompt '%s'. Try 'Type-0'..'Type-10' or "
                 "an application name (netflix, teams, ...).\n",
                 prompt.c_str());
    return 1;
  }
  std::printf("prompt '%s' -> class %d (%s), generating %zu flows...\n",
              prompt.c_str(), *class_id,
              pipeline.prompts().class_name(*class_id).c_str(), count);

  diffusion::GenerateOptions opts;
  opts.count = count;
  opts.ddim_steps = env_size("REPRO_DDIM_STEPS", 15);
  const auto flows = pipeline.generate_seeded(*class_id, opts, /*seed=*/7);
  for (const auto& flow : flows) {
    std::printf("  flow: %zu packets, %zu bytes, dominant %s\n",
                flow.packet_count(), flow.byte_count(),
                net::proto_name(flow.dominant_protocol()).c_str());
  }
  net::write_pcap_file(out_path, net::flatten_flows(flows));
  std::printf("wrote %s\n", out_path.c_str());

  if (flows.empty()) return 0;
  const nprint::Matrix matrix =
      nprint::encode_flow(flows.front(), config.packets, /*pad_to_max=*/true);
  nprint::write_ppm("text_to_traffic.ppm", nprint::render(matrix));
  std::printf("wrote text_to_traffic.ppm (Figure 2-style flow image)\n");
  return 0;
}
