// Guard over the shared toy model (support/toy_model.hpp): its generated
// bytes must depend on its U-Net weights, or the bit-identity tests that
// use it (served vs library, K executors, lane sweeps) cannot see a
// wrong or racing weight read. Flows are compared by their packet bytes
// without timestamps, because the timestamps come from the seeded timing
// stream whatever the weights are. Labelled `sanitize`.
#include "support/toy_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "diffusion/pipeline.hpp"
#include "nn/module.hpp"

namespace repro {
namespace {

using PacketBytes = std::vector<std::vector<std::uint8_t>>;

/// A flow's serialized packets, timestamps left out.
PacketBytes packet_bytes(const net::Flow& flow) {
  PacketBytes out;
  for (const net::Packet& packet : flow.packets) {
    out.push_back(packet.serialize());
  }
  return out;
}

constexpr std::size_t kSeeds = 16;

std::vector<std::uint64_t> flow_seeds() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < kSeeds; ++i) seeds.push_back(1000 + i);
  return seeds;
}

/// The step count the serving tests request.
diffusion::GenerateOptions options() {
  diffusion::GenerateOptions opts;
  opts.ddim_steps = 4;
  return opts;
}

/// Adds Gaussian noise at `fraction` of each U-Net parameter tensor's
/// RMS, drawn from Rng(seed).
void perturb_unet(diffusion::TraceDiffusion& pipeline, double fraction,
                  std::uint64_t seed) {
  Rng rng(seed);
  for (nn::Parameter* param : pipeline.unet().parameters()) {
    float* values = param->value.data();
    const std::size_t n = param->value.size();
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum_sq += static_cast<double>(values[i]) * values[i];
    }
    const double sigma =
        fraction * std::sqrt(sum_sq / static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      values[i] += static_cast<float>(sigma * rng.gaussian());
    }
  }
}

class ToyModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { model_ = toy::train(); }
  static void TearDownTestSuite() { model_.reset(); }

  static std::shared_ptr<diffusion::TraceDiffusion> model_;
};

std::shared_ptr<diffusion::TraceDiffusion> ToyModelTest::model_;

TEST_F(ToyModelTest, SixteenSeedsGiveSixteenDistinctFlows) {
  for (int class_id = 0; class_id < 2; ++class_id) {
    SCOPED_TRACE(class_id);
    std::set<PacketBytes> distinct;
    for (const net::Flow& flow :
         model_->generate_with_flow_seeds(class_id, options(), flow_seeds())) {
      distinct.insert(packet_bytes(flow));
    }
    EXPECT_EQ(distinct.size(), kSeeds);
  }
}

TEST_F(ToyModelTest, UnetWeightNoiseChangesTheFlows) {
  // A second pipeline restored from the first one's checkpoint: the same
  // bytes as long as its weights are the same, other bytes for at least
  // 15 of the 16 seeds once its U-Net carries 5% noise.
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "repro_toy_model_ckpt")
          .string();
  model_->save(prefix);
  diffusion::TraceDiffusion noisy(toy::config(), toy::classes());
  noisy.load(prefix);
  std::remove((prefix + ".weights").c_str());
  std::remove((prefix + ".meta").c_str());

  std::vector<std::vector<net::Flow>> clean;
  for (int class_id = 0; class_id < 2; ++class_id) {
    SCOPED_TRACE(class_id);
    clean.push_back(
        model_->generate_with_flow_seeds(class_id, options(), flow_seeds()));
    const auto restored =
        noisy.generate_with_flow_seeds(class_id, options(), flow_seeds());
    for (std::size_t i = 0; i < kSeeds; ++i) {
      EXPECT_EQ(packet_bytes(restored[i]), packet_bytes(clean.back()[i]))
          << "seed " << i;
    }
  }

  perturb_unet(noisy, 0.05, 12345);
  for (std::size_t c = 0; c < clean.size(); ++c) {
    SCOPED_TRACE(c);
    const auto perturbed = noisy.generate_with_flow_seeds(
        static_cast<int>(c), options(), flow_seeds());
    std::size_t changed = 0;
    for (std::size_t i = 0; i < kSeeds; ++i) {
      if (packet_bytes(perturbed[i]) != packet_bytes(clean[c][i])) ++changed;
    }
    EXPECT_GE(changed, kSeeds - 1);
  }
}

}  // namespace
}  // namespace repro
