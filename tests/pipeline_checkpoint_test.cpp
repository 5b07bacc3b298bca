// Full-pipeline checkpoint round-trip: a trained TraceDiffusion with
// every component populated (autoencoder + U-Net + LoRA adapters +
// ControlNet) is saved, reloaded into a fresh pipeline, and must
// generate bit-identical flows — the invariant ModelRegistry hot-swap
// depends on (a hot-swapped checkpoint must reproduce exactly what the
// process that saved it would have generated).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "diffusion/pipeline.hpp"
#include "serve/registry.hpp"
#include "support/toy_model.hpp"

namespace repro::diffusion {
namespace {

PipelineConfig lora_config() {
  PipelineConfig cfg = toy::config();
  cfg.unet.lora_rank = 2;  // LoRA adapters in the checkpoint
  return cfg;
}

void expect_same_packets(const std::vector<net::Flow>& a,
                         const std::vector<net::Flow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    ASSERT_EQ(a[i].packets.size(), b[i].packets.size());
    for (std::size_t p = 0; p < a[i].packets.size(); ++p) {
      EXPECT_EQ(a[i].packets[p].serialize(), b[i].packets[p].serialize());
    }
  }
}

void expect_same_flows(const std::vector<net::Flow>& a,
                       const std::vector<net::Flow>& b) {
  expect_same_packets(a, b);
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    for (std::size_t p = 0;
         p < a[i].packets.size() && p < b[i].packets.size(); ++p) {
      EXPECT_EQ(a[i].packets[p].timestamp, b[i].packets[p].timestamp);
    }
  }
}

TEST(PipelineCheckpoint, FullRoundTripGeneratesIdenticalFlows) {
  const std::string prefix = "/tmp/repro_full_ckpt";
  GenerateOptions opts;
  opts.count = 3;
  opts.ddim_steps = 5;

  std::vector<net::Flow> expected_a, expected_b, expected_ddpm;
  {
    TraceDiffusion trained(lora_config(), toy::classes());
    trained.fit(toy::dataset());
    trained.fit_lora(toy::dataset(2), /*epochs=*/1);  // adapters != 0
    trained.save(prefix);
    expected_a = trained.generate_seeded(0, opts, 31337);
    expected_b = trained.generate_seeded(1, opts, 31338);
    GenerateOptions ddpm = opts;
    ddpm.sampler = SamplerKind::kDdpm;
    ddpm.count = 1;
    expected_ddpm = trained.generate_seeded(0, ddpm, 99);
  }  // trained pipeline destroyed: only the checkpoint survives

  TraceDiffusion restored(lora_config(), toy::classes());
  restored.load(prefix);
  expect_same_flows(restored.generate_seeded(0, opts, 31337), expected_a);
  expect_same_flows(restored.generate_seeded(1, opts, 31338), expected_b);
  GenerateOptions ddpm = opts;
  ddpm.sampler = SamplerKind::kDdpm;
  ddpm.count = 1;
  expect_same_flows(restored.generate_seeded(0, ddpm, 99), expected_ddpm);

  std::remove((prefix + ".weights").c_str());
  std::remove((prefix + ".meta").c_str());
}

TEST(PipelineCheckpoint, RegistryLoadsCheckpointWithLoraOverlay) {
  const std::string prefix = "/tmp/repro_reg_ckpt";
  const std::string lora_path = "/tmp/repro_reg_ckpt.lora";
  GenerateOptions opts;
  opts.count = 2;
  opts.ddim_steps = 4;

  std::vector<net::Flow> base_flows, tuned_flows;
  {
    TraceDiffusion trained(lora_config(), toy::classes());
    trained.fit(toy::dataset());
    trained.save(prefix);  // base checkpoint: adapters still at init
    base_flows = trained.generate_seeded(0, opts, 5);
    trained.fit_lora(toy::dataset(3), /*epochs=*/2);
    serve::save_lora_adapter(trained, lora_path);  // adapter-only file
    tuned_flows = trained.generate_seeded(0, opts, 5);
  }

  serve::ModelRegistry registry;
  registry.load_checkpoint("base", lora_config(), toy::classes(),
                           prefix, "b1");
  registry.load_checkpoint("tuned", lora_config(), toy::classes(),
                           prefix, "t1", lora_path);
  ASSERT_EQ(registry.size(), 2u);

  // Base entry reproduces the pre-LoRA flows exactly.
  expect_same_flows(
      registry.snapshot("base")->pipeline->generate_seeded(0, opts, 5),
      base_flows);
  // The overlay entry reproduces the fine-tuned MODEL bits (packet
  // bytes) from the same base checkpoint. Timestamps may differ from
  // the live fine-tuned pipeline: fit_lora also refits the timing
  // models, which live in the base checkpoint's meta, not in the
  // adapter-only weight file.
  const auto tuned_served =
      registry.snapshot("tuned")->pipeline->generate_seeded(0, opts, 5);
  expect_same_packets(tuned_served, tuned_flows);
  // And it is bit-identical (timestamps included) to a manual
  // load-base-then-overlay reconstruction — what hot-swap replays.
  TraceDiffusion manual(lora_config(), toy::classes());
  manual.load(prefix);
  serve::load_lora_adapter(manual, lora_path);
  expect_same_flows(manual.generate_seeded(0, opts, 5), tuned_served);

  // Adapter helpers refuse models without LoRA rank.
  PipelineConfig no_rank = lora_config();
  no_rank.unet.lora_rank = 0;
  TraceDiffusion plain(no_rank, toy::classes());
  EXPECT_THROW(serve::lora_adapter_parameters(plain), std::logic_error);

  std::remove((prefix + ".weights").c_str());
  std::remove((prefix + ".meta").c_str());
  std::remove(lora_path.c_str());
}

}  // namespace
}  // namespace repro::diffusion
