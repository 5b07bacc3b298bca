// The one toy model of the tests and the serving tools: a two-class
// TraceDiffusion (netflix = 0, teams = 1) that trains in a fraction of a
// second and whose generated bytes still depend on its U-Net weights, so
// the bit-identity tests (served vs library, K executors, lane sweeps)
// can see a wrong or racing weight read.
//
// The recipe was picked by measurement. With 16 flow seeds per class
// (DDIM-4, packet bytes without timestamps), autoencoder epochs 30-60
// gave 16 distinct flows per class, all 16 changed by 5% U-Net weight
// noise; 4-8 epochs gave 16 distinct with 14-16 changed, while 10-25
// collapsed to as few as 2 distinct flows (15 epochs: 3 per class, 2
// changed). The effect is not monotone in epochs; 40 sits in the middle
// of the upper plateau, where DDIM-20, other model seeds and 4-8
// training flows per class also gave 16 of 16.
// tests/toy_model_test.cpp guards it.
//
// Header-only and free of gtest, so the tools include it too.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "diffusion/pipeline.hpp"
#include "flowgen/dataset.hpp"
#include "flowgen/generator.hpp"

namespace repro::toy {

/// Packets per flow, in the training set and in the model.
inline constexpr std::size_t kPackets = 8;

/// The class names, in label order.
inline std::vector<std::string> classes() { return {"netflix", "teams"}; }

/// The toy PipelineConfig. A test that needs another value sets that
/// one field on the returned config and says why.
inline diffusion::PipelineConfig config() {
  diffusion::PipelineConfig cfg;
  cfg.packets = kPackets;
  cfg.autoencoder.hidden_dim = 48;
  cfg.autoencoder.latent_dim = 8;
  cfg.unet.base_channels = 8;
  cfg.unet.temb_dim = 16;
  cfg.unet.groups = 4;
  cfg.timesteps = 20;
  cfg.ae_epochs = 40;
  cfg.diffusion_epochs = 3;
  cfg.diffusion_batch = 4;
  cfg.control_epochs = 2;
  cfg.seed = 5;
  return cfg;
}

/// `per_class` netflix (label 0) and teams (label 1) flows of kPackets
/// packets, interleaved, from one seeded stream: a TCP-dominant and a
/// UDP-dominant class.
inline flowgen::Dataset dataset(std::size_t per_class = 6) {
  Rng rng(77);
  flowgen::Dataset ds;
  for (std::size_t i = 0; i < per_class; ++i) {
    net::Flow a = flowgen::generate_flow(flowgen::App::kNetflix, kPackets, rng);
    a.label = 0;
    ds.flows.push_back(std::move(a));
    net::Flow b = flowgen::generate_flow(flowgen::App::kTeams, kPackets, rng);
    b.label = 1;
    ds.flows.push_back(std::move(b));
  }
  return ds;
}

/// A pipeline built from `cfg` and fitted on dataset().
inline std::shared_ptr<diffusion::TraceDiffusion> train(
    const diffusion::PipelineConfig& cfg = config()) {
  auto pipeline = std::make_shared<diffusion::TraceDiffusion>(cfg, classes());
  pipeline->fit(dataset());
  return pipeline;
}

}  // namespace repro::toy
