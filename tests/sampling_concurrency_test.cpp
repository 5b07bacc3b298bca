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
#include "serve/net/protocol.hpp"
#include "support/toy_model.hpp"

namespace repro::diffusion {
namespace {

/// Flow seeds of thread `t`'s batch in round `r`: two flows, distinct
/// across threads and rounds.
std::vector<std::uint64_t> flow_seeds(std::size_t t, std::size_t r) {
  const std::uint64_t base = 1000 * (t + 1) + 10 * r;
  return {base, base + 1};
}

TEST(SamplingConcurrency, TwoThreadsOnOneModelMatchSerialHashes) {
  const auto pipeline = toy::train();
  const TraceDiffusion& model = *pipeline;
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
