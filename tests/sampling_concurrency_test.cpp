// Concurrent sampling on one shared model. TraceDiffusion's seeded
// entry points are `const`: they read the fitted model and write only
// call-local state, so threads that share one pipeline (as the serving
// lanes share one registry snapshot) must reproduce the serial bytes
// exactly. Labelled `sanitize`: under -DREPRO_SANITIZE=thread any write
// to shared model state on the sampling path is reported as a race.
#include <gtest/gtest.h>

#include <array>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "diffusion/pipeline.hpp"
#include "flowgen/generator.hpp"
#include "serve/net/protocol.hpp"

namespace repro::diffusion {
namespace {

PipelineConfig tiny_config() {
  PipelineConfig cfg;
  cfg.packets = 8;
  cfg.autoencoder.hidden_dim = 48;
  cfg.autoencoder.latent_dim = 8;
  cfg.unet.base_channels = 8;
  cfg.unet.temb_dim = 16;
  cfg.unet.groups = 4;
  cfg.timesteps = 20;
  cfg.ae_epochs = 4;
  cfg.diffusion_epochs = 2;
  cfg.diffusion_batch = 4;
  cfg.control_epochs = 1;
  cfg.seed = 9;
  return cfg;
}

flowgen::Dataset tiny_dataset() {
  Rng rng(31);
  flowgen::Dataset ds;
  for (int i = 0; i < 4; ++i) {
    net::Flow a = flowgen::generate_flow(flowgen::App::kNetflix, 8, rng);
    a.label = 0;
    ds.flows.push_back(std::move(a));
    net::Flow b = flowgen::generate_flow(flowgen::App::kTeams, 8, rng);
    b.label = 1;
    ds.flows.push_back(std::move(b));
  }
  return ds;
}

/// Flow seeds of thread `t`'s batch in round `r`: two flows, distinct
/// across threads and rounds.
std::vector<std::uint64_t> flow_seeds(std::size_t t, std::size_t r) {
  const std::uint64_t base = 1000 * (t + 1) + 10 * r;
  return {base, base + 1};
}

TEST(SamplingConcurrency, TwoThreadsOnOneModelMatchSerialHashes) {
  TraceDiffusion pipeline(tiny_config(), {"netflix", "teams"});
  pipeline.fit(tiny_dataset());
  const TraceDiffusion& model = pipeline;
  GenerateOptions opts;
  opts.ddim_steps = 4;

  constexpr std::size_t kThreads = 2;
  constexpr std::size_t kRounds = 6;
  using Hashes = std::array<std::array<std::uint64_t, kRounds>, kThreads>;
  Hashes serial{};
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      serial[t][r] = serve::wire::hash_flows(model.generate_with_flow_seeds(
          static_cast<int>(t), opts, flow_seeds(t, r)));
    }
  }

  Hashes concurrent{};
  std::array<std::exception_ptr, kThreads> errors{};
  // repro-lint: allow(RL002) -- the subject is raw threads sharing a model
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (std::size_t r = 0; r < kRounds; ++r) {
          concurrent[t][r] =
              serve::wire::hash_flows(model.generate_with_flow_seeds(
                  static_cast<int>(t), opts, flow_seeds(t, r)));
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    if (errors[t]) {
      try {
        std::rethrow_exception(errors[t]);
      } catch (const std::exception& e) {
        FAIL() << "thread " << t << " threw: " << e.what();
      }
    }
    for (std::size_t r = 0; r < kRounds; ++r) {
      EXPECT_EQ(concurrent[t][r], serial[t][r])
          << "thread " << t << " round " << r;
    }
  }
}

}  // namespace
}  // namespace repro::diffusion
