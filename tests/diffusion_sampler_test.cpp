#include "diffusion/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace repro::diffusion {
namespace {

/// A predictor that always returns zero noise. The DDIM update then maps
/// x -> sqrt(abar_prev/abar_t) * x, so the final output is analytically
/// x_T / sqrt(abar_T)... scaled forward to abar=1: x_T * sqrt(1/abar_T).
EpsFn zero_eps() {
  return [](const nn::Tensor& x, std::size_t) {
    return nn::Tensor::zeros(x.shape());
  };
}

TEST(Ddim, ShapeAndDeterminismWithEtaZero) {
  NoiseSchedule schedule(50, ScheduleKind::kLinear);
  Rng rng1(7), rng2(7);
  const std::vector<std::size_t> shape{2, 3, 4};
  const nn::Tensor a =
      ddim_sample(zero_eps(), schedule, shape, 10, 0.0f, {&rng1, 1});
  const nn::Tensor b =
      ddim_sample(zero_eps(), schedule, shape, 10, 0.0f, {&rng2, 1});
  EXPECT_EQ(a.shape(), shape);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Ddim, ZeroNoisePredictorScalesInitialNoise) {
  // With eps == 0 and eta == 0, each DDIM step multiplies x by
  // sqrt(abar_prev / abar_t); telescoping gives x_out = x_T / sqrt(abar_T).
  NoiseSchedule schedule(40, ScheduleKind::kLinear);
  const std::vector<std::size_t> shape{1, 1, 8};
  Rng rng_ref(3);
  // Reproduce the sampler's initial noise draw.
  nn::Tensor x0(shape);
  for (std::size_t i = 0; i < x0.size(); ++i) {
    x0[i] = static_cast<float>(rng_ref.gaussian());
  }
  Rng rng(3);
  const nn::Tensor out =
      ddim_sample(zero_eps(), schedule, shape, 40, 0.0f, {&rng, 1});
  const float expected_scale =
      1.0f / schedule.sqrt_alpha_bar(schedule.timesteps() - 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], x0[i] * expected_scale, 5e-2f * expected_scale);
  }
}

TEST(Ddim, FewerStepsMeansFewerEvaluations) {
  NoiseSchedule schedule(100, ScheduleKind::kCosine);
  std::size_t evals = 0;
  EpsFn counting = [&evals](const nn::Tensor& x, std::size_t) {
    ++evals;
    return nn::Tensor::zeros(x.shape());
  };
  Rng rng(1);
  ddim_sample(counting, schedule, {1, 2, 4}, 10, 0.0f, {&rng, 1});
  EXPECT_EQ(evals, 10u);
  evals = 0;
  ddpm_sample(counting, schedule, {1, 2, 4}, {&rng, 1});
  EXPECT_EQ(evals, 100u);
}

TEST(Ddim, RejectsBadStepCounts) {
  NoiseSchedule schedule(20, ScheduleKind::kLinear);
  Rng rng(1);
  EXPECT_THROW(
      ddim_sample(zero_eps(), schedule, {1, 1, 1}, 0, 0.0f, {&rng, 1}),
      std::invalid_argument);
  EXPECT_THROW(
      ddim_sample(zero_eps(), schedule, {1, 1, 1}, 21, 0.0f, {&rng, 1}),
      std::invalid_argument);
}

TEST(Ddim, TimestepsVisitedAreDecreasing) {
  NoiseSchedule schedule(100, ScheduleKind::kLinear);
  std::vector<std::size_t> visited;
  EpsFn recorder = [&visited](const nn::Tensor& x, std::size_t t) {
    visited.push_back(t);
    return nn::Tensor::zeros(x.shape());
  };
  Rng rng(5);
  ddim_sample(recorder, schedule, {1, 1, 2}, 7, 0.0f, {&rng, 1});
  ASSERT_EQ(visited.size(), 7u);
  EXPECT_EQ(visited.front(), 99u);
  EXPECT_EQ(visited.back(), 0u);
  for (std::size_t i = 1; i < visited.size(); ++i) {
    EXPECT_LT(visited[i], visited[i - 1]);
  }
}

TEST(Ddpm, VisitsAllTimestepsInReverse) {
  NoiseSchedule schedule(25, ScheduleKind::kLinear);
  std::vector<std::size_t> visited;
  EpsFn recorder = [&visited](const nn::Tensor& x, std::size_t t) {
    visited.push_back(t);
    return nn::Tensor::zeros(x.shape());
  };
  Rng rng(6);
  ddpm_sample(recorder, schedule, {1, 1, 2}, {&rng, 1});
  ASSERT_EQ(visited.size(), 25u);
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(visited[i], 24 - i);
  }
}

TEST(Ddpm, OutputIsFinite) {
  NoiseSchedule schedule(30, ScheduleKind::kCosine);
  Rng rng(8);
  const nn::Tensor out =
      ddpm_sample(zero_eps(), schedule, {2, 2, 4}, {&rng, 1});
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out[i]));
  }
}

TEST(Ddim, EtaOneInjectsNoise) {
  // eta = 1 makes the trajectory stochastic: two different rngs diverge
  // even with the same zero predictor (beyond the initial draw).
  NoiseSchedule schedule(50, ScheduleKind::kLinear);
  Rng rng1(9);
  const nn::Tensor a =
      ddim_sample(zero_eps(), schedule, {1, 1, 16}, 25, 1.0f, {&rng1, 1});
  Rng rng2(9);
  const nn::Tensor b =
      ddim_sample(zero_eps(), schedule, {1, 1, 16}, 25, 0.0f, {&rng2, 1});
  // Same initial noise, different eta -> different outputs.
  float diff = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 1e-3f);
}

TEST(DdimFrom, PartialTrajectoryStartsAtT0) {
  NoiseSchedule schedule(80, ScheduleKind::kLinear);
  std::vector<std::size_t> visited;
  EpsFn recorder = [&visited](const nn::Tensor& x, std::size_t t) {
    visited.push_back(t);
    return nn::Tensor::zeros(x.shape());
  };
  Rng rng(21);
  nn::Tensor start = nn::Tensor::full({1, 1, 4}, 0.5f);
  ddim_sample_from(recorder, schedule, start, 40, 5, 0.0f, {&rng, 1});
  ASSERT_EQ(visited.size(), 5u);
  EXPECT_EQ(visited.front(), 40u);
  EXPECT_EQ(visited.back(), 0u);
}

TEST(DdimFrom, RejectsBadArguments) {
  NoiseSchedule schedule(20, ScheduleKind::kLinear);
  Rng rng(22);
  nn::Tensor start({1, 1, 2});
  EXPECT_THROW(
      ddim_sample_from(zero_eps(), schedule, start, 20, 3, 0.0f, {&rng, 1}),
      std::invalid_argument);  // t0 out of range
  EXPECT_THROW(
      ddim_sample_from(zero_eps(), schedule, start, 5, 0, 0.0f, {&rng, 1}),
      std::invalid_argument);  // zero steps
  EXPECT_THROW(
      ddim_sample_from(zero_eps(), schedule, start, 5, 7, 0.0f, {&rng, 1}),
      std::invalid_argument);  // more steps than timesteps in range
}

TEST(DdpmFrom, PartialTrajectoryVisitsT0DownToZero) {
  NoiseSchedule schedule(30, ScheduleKind::kCosine);
  std::vector<std::size_t> visited;
  EpsFn recorder = [&visited](const nn::Tensor& x, std::size_t t) {
    visited.push_back(t);
    return nn::Tensor::zeros(x.shape());
  };
  Rng rng(23);
  nn::Tensor start({1, 1, 2});
  ddpm_sample_from(recorder, schedule, start, 10, {&rng, 1});
  ASSERT_EQ(visited.size(), 11u);
  EXPECT_EQ(visited.front(), 10u);
  EXPECT_EQ(visited.back(), 0u);
}

/// Oracle noise predictor for a known clean sample: eps_true =
/// (x_t - sqrt(abar_t) x0*) / sqrt(1 - abar_t). With this predictor the
/// reverse process must recover x0* exactly — a strong correctness check
/// of the DDIM update equations.
EpsFn oracle_eps(const nn::Tensor& x0, const NoiseSchedule& schedule) {
  return [&x0, &schedule](const nn::Tensor& x, std::size_t t) {
    const float sa = schedule.sqrt_alpha_bar(t);
    const float sb = schedule.sqrt_one_minus_alpha_bar(t);
    nn::Tensor eps(x.shape());
    for (std::size_t i = 0; i < x.size(); ++i) {
      eps[i] = (x[i] - sa * x0[i]) / sb;
    }
    return eps;
  };
}

TEST(Ddim, OraclePredictorRecoversCleanSample) {
  NoiseSchedule schedule(60, ScheduleKind::kCosine);
  Rng rng(31);
  nn::Tensor x0({1, 2, 6});
  for (std::size_t i = 0; i < x0.size(); ++i) {
    x0[i] = static_cast<float>(rng.gaussian(0.0, 2.0));
  }
  const nn::Tensor out =
      ddim_sample(oracle_eps(x0, schedule), schedule, x0.shape(), 20, 0.0f,
                  {&rng, 1});
  for (std::size_t i = 0; i < x0.size(); ++i) {
    EXPECT_NEAR(out[i], x0[i], 2e-2f) << "index " << i;
  }
}

TEST(Ddim, OracleRecoveryFromPartialTrajectory) {
  NoiseSchedule schedule(60, ScheduleKind::kLinear);
  Rng rng(32);
  nn::Tensor x0({1, 1, 8});
  for (std::size_t i = 0; i < x0.size(); ++i) {
    x0[i] = static_cast<float>(rng.gaussian());
  }
  // Start mid-schedule from a properly noised x_t0.
  const std::size_t t0 = 30;
  nn::Tensor xt(x0.shape());
  const float sa = schedule.sqrt_alpha_bar(t0);
  const float sb = schedule.sqrt_one_minus_alpha_bar(t0);
  for (std::size_t i = 0; i < xt.size(); ++i) {
    xt[i] = sa * x0[i] + sb * static_cast<float>(rng.gaussian());
  }
  const nn::Tensor out = ddim_sample_from(oracle_eps(x0, schedule), schedule,
                                          xt, t0, 10, 0.0f, {&rng, 1});
  for (std::size_t i = 0; i < x0.size(); ++i) {
    EXPECT_NEAR(out[i], x0[i], 2e-2f);
  }
}

TEST(DdimInpaint, OracleFillsUnknownAndClampsKnown) {
  NoiseSchedule schedule(50, ScheduleKind::kCosine);
  Rng rng(33);
  nn::Tensor x0({1, 1, 8});
  for (std::size_t i = 0; i < x0.size(); ++i) {
    x0[i] = static_cast<float>(rng.gaussian(0.0, 1.5));
  }
  std::vector<std::uint8_t> mask(x0.size(), 0);
  mask[0] = mask[1] = mask[7] = 1;
  const nn::Tensor out = ddim_inpaint(oracle_eps(x0, schedule), schedule, x0,
                                      mask, 15, 0.0f, rng);
  // Known elements exact, unknown elements recovered by the oracle.
  EXPECT_FLOAT_EQ(out[0], x0[0]);
  EXPECT_FLOAT_EQ(out[1], x0[1]);
  EXPECT_FLOAT_EQ(out[7], x0[7]);
  for (std::size_t i = 2; i < 7; ++i) {
    EXPECT_NEAR(out[i], x0[i], 5e-2f);
  }
}

TEST(DdimInpaint, RejectsMismatchedMask) {
  NoiseSchedule schedule(20, ScheduleKind::kLinear);
  Rng rng(34);
  nn::Tensor x0({1, 1, 4});
  std::vector<std::uint8_t> mask(3, 0);
  EXPECT_THROW(
      ddim_inpaint(zero_eps(), schedule, x0, mask, 5, 0.0f, rng),
      std::invalid_argument);
}

TEST(Ddim, SingleStepJumpsToX0Estimate) {
  NoiseSchedule schedule(60, ScheduleKind::kLinear);
  std::size_t evals = 0;
  EpsFn counting = [&evals](const nn::Tensor& x, std::size_t) {
    ++evals;
    return nn::Tensor::zeros(x.shape());
  };
  Rng rng(10);
  const nn::Tensor out =
      ddim_sample(counting, schedule, {1, 1, 4}, 1, 0.0f, {&rng, 1});
  EXPECT_EQ(evals, 1u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out[i]));
  }
}

TEST(NoiseStreams, SpanMustHoldOneStreamOrOnePerSample) {
  NoiseSchedule schedule(10, ScheduleKind::kLinear);
  std::vector<Rng> two(2, Rng(1));
  const std::vector<std::size_t> shape{3, 1, 4};
  EXPECT_THROW(ddim_sample(zero_eps(), schedule, shape, 4, 0.0f, two),
               std::invalid_argument);
  EXPECT_THROW(ddpm_sample(zero_eps(), schedule, shape, two),
               std::invalid_argument);
  EXPECT_THROW(
      ddim_sample_from(zero_eps(), schedule, nn::Tensor(shape), 5, 3, 0.0f,
                       two),
      std::invalid_argument);
  EXPECT_THROW(
      ddpm_sample_from(zero_eps(), schedule, nn::Tensor(shape), 5, two),
      std::invalid_argument);
  std::vector<Rng> none;
  EXPECT_THROW(ddpm_sample(zero_eps(), schedule, shape, none),
               std::invalid_argument);
}

}  // namespace
}  // namespace repro::diffusion
