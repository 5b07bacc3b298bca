// Progressive sampler distillation (diffusion/distill.hpp): schedule
// halving, the closed-form eps-gain fit, and the distilled sampler's
// determinism — plus pipeline integration: fitting stages per class,
// generating through SamplerKind::kDistilled, and carrying the fitted
// stages bit-exactly through a checkpoint round trip (TDM3 section).
#include "diffusion/distill.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "diffusion/pipeline.hpp"
#include "support/toy_model.hpp"

namespace repro::diffusion {
namespace {

/// Oracle noise predictor for a known clean sample: eps_true =
/// (x_t - sqrt(abar_t) x0) / sqrt(1 - abar_t). The eta = 0 DDIM update
/// composes exactly under this predictor, so a one-step student already
/// matches a two-step teacher with unit gains.
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

nn::Tensor random_tensor(const std::vector<std::size_t>& shape, Rng& rng) {
  nn::Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.gaussian());
  }
  return t;
}

/// A latent properly noised to timestep t0 for a known x0.
nn::Tensor noised_to(const nn::Tensor& x0, const NoiseSchedule& schedule,
                     std::size_t t0, Rng& rng) {
  const float sa = schedule.sqrt_alpha_bar(t0);
  const float sb = schedule.sqrt_one_minus_alpha_bar(t0);
  nn::Tensor xt(x0.shape());
  for (std::size_t i = 0; i < xt.size(); ++i) {
    xt[i] = sa * x0[i] + sb * static_cast<float>(rng.gaussian());
  }
  return xt;
}

TEST(Distill, TeacherStageIsPlainDdimScheduleWithUnitGains) {
  const DistilledStage teacher = teacher_stage(99, 8);
  EXPECT_EQ(teacher.taus, ddim_tau_schedule(99, 8));
  EXPECT_EQ(teacher.steps(), 8u);
  EXPECT_EQ(teacher.t0(), 99u);
  ASSERT_EQ(teacher.gains.size(), 8u);
  for (const float g : teacher.gains) EXPECT_FLOAT_EQ(g, 1.0f);
}

TEST(Distill, HalvingKeepsEveryOtherTeacherTau) {
  NoiseSchedule schedule(100, ScheduleKind::kCosine);
  Rng rng(41);
  const nn::Tensor x0 = random_tensor({2, 3, 8}, rng);
  const nn::Tensor calib = noised_to(x0, schedule, 99, rng);
  const DistilledStage teacher = teacher_stage(99, 7);  // odd step count
  const StageFit fit =
      distill_halve(oracle_eps(x0, schedule), schedule, teacher, calib);
  ASSERT_EQ(fit.stage.steps(), 4u);  // ceil(7 / 2)
  for (std::size_t i = 0; i < fit.stage.steps(); ++i) {
    EXPECT_EQ(fit.stage.taus[i], teacher.taus[2 * i]) << i;
  }
  EXPECT_EQ(fit.stage.t0(), teacher.t0());
}

TEST(Distill, OraclePredictorYieldsUnitGainsAndZeroError) {
  // The exact predictor makes DDIM steps compose exactly, so the best
  // one-step imitation of two steps is the plain step itself.
  NoiseSchedule schedule(80, ScheduleKind::kLinear);
  Rng rng(43);
  const nn::Tensor x0 = random_tensor({1, 2, 16}, rng);
  const nn::Tensor calib = noised_to(x0, schedule, 79, rng);
  const StageFit fit = distill_halve(oracle_eps(x0, schedule), schedule,
                                     teacher_stage(79, 8), calib);
  EXPECT_LT(fit.mse_plain, 1e-8f);
  EXPECT_LT(fit.mse_fitted, 1e-8f);
  for (const float g : fit.stage.gains) EXPECT_NEAR(g, 1.0f, 1e-3f);
}

TEST(Distill, FitCorrectsBiasedPredictor) {
  // Overscale the oracle by 15%: plain one-step error becomes real and
  // the closed-form least-squares gain must strictly reduce it.
  NoiseSchedule schedule(80, ScheduleKind::kCosine);
  Rng rng(47);
  const nn::Tensor x0 = random_tensor({2, 2, 12}, rng);
  const nn::Tensor calib = noised_to(x0, schedule, 79, rng);
  const EpsFn oracle = oracle_eps(x0, schedule);
  const EpsFn biased = [&oracle](const nn::Tensor& x, std::size_t t) {
    nn::Tensor eps = oracle(x, t);
    for (std::size_t i = 0; i < eps.size(); ++i) eps[i] *= 1.15f;
    return eps;
  };
  const StageFit fit =
      distill_halve(biased, schedule, teacher_stage(79, 8), calib);
  EXPECT_GT(fit.mse_plain, 0.0f);
  EXPECT_LT(fit.mse_fitted, fit.mse_plain);
  // At least one gain must have moved off 1.0 to absorb the bias.
  float max_dev = 0.0f;
  for (const float g : fit.stage.gains) {
    max_dev = std::max(max_dev, std::fabs(g - 1.0f));
  }
  EXPECT_GT(max_dev, 1e-3f);
}

TEST(Distill, StudentTracksTeacherTrajectory) {
  NoiseSchedule schedule(100, ScheduleKind::kCosine);
  Rng rng(53);
  const nn::Tensor x0 = random_tensor({1, 3, 8}, rng);
  const nn::Tensor calib = noised_to(x0, schedule, 99, rng);
  const EpsFn oracle = oracle_eps(x0, schedule);
  const DistilledStage teacher = teacher_stage(99, 8);
  const StageFit fit = distill_halve(oracle, schedule, teacher, calib);

  const nn::Tensor from_teacher =
      distilled_sample_from(oracle, schedule, calib, teacher);
  const nn::Tensor from_student =
      distilled_sample_from(oracle, schedule, calib, fit.stage);
  ASSERT_EQ(from_student.size(), from_teacher.size());
  for (std::size_t i = 0; i < from_student.size(); ++i) {
    EXPECT_NEAR(from_student[i], from_teacher[i], 1e-3f) << i;
  }
}

TEST(Distill, SampleUsesOneEvaluationPerStepAndIsDeterministic) {
  NoiseSchedule schedule(60, ScheduleKind::kLinear);
  Rng rng(59);
  const nn::Tensor x = random_tensor({1, 2, 8}, rng);
  std::size_t evals = 0;
  const EpsFn counting = [&evals](const nn::Tensor& xt, std::size_t) {
    ++evals;
    return nn::Tensor::zeros(xt.shape());
  };
  const DistilledStage stage = teacher_stage(59, 5);
  const nn::Tensor a = distilled_sample_from(counting, schedule, x, stage);
  EXPECT_EQ(evals, 5u);
  const nn::Tensor b = distilled_sample_from(counting, schedule, x, stage);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << i;  // no noise source: bit-identical reruns
  }
}

TEST(Distill, RejectsMalformedInputs) {
  NoiseSchedule schedule(20, ScheduleKind::kLinear);
  Rng rng(61);
  const nn::Tensor x = random_tensor({1, 1, 4}, rng);
  const EpsFn zero = [](const nn::Tensor& xt, std::size_t) {
    return nn::Tensor::zeros(xt.shape());
  };
  // distill_halve: a one-step teacher has nothing to merge.
  EXPECT_THROW(distill_halve(zero, schedule, teacher_stage(19, 1), x),
               std::invalid_argument);
  // distilled_sample_from: empty stage, gains/taus mismatch, t0 range.
  EXPECT_THROW(distilled_sample_from(zero, schedule, x, DistilledStage{}),
               std::invalid_argument);
  DistilledStage mismatched = teacher_stage(19, 4);
  mismatched.gains.pop_back();
  EXPECT_THROW(distilled_sample_from(zero, schedule, x, mismatched),
               std::invalid_argument);
  EXPECT_THROW(
      distilled_sample_from(zero, schedule, x, teacher_stage(20, 4)),
      std::invalid_argument);  // t0 == timesteps
}

// ---------------------------------------------------------------------
// Pipeline integration: fit once, distill once, share across tests.

bool flows_equal(const std::vector<net::Flow>& a,
                 const std::vector<net::Flow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t f = 0; f < a.size(); ++f) {
    if (a[f].label != b[f].label) return false;
    if (a[f].packets.size() != b[f].packets.size()) return false;
    for (std::size_t p = 0; p < a[f].packets.size(); ++p) {
      if (a[f].packets[p].timestamp != b[f].packets[p].timestamp) return false;
      if (a[f].packets[p].serialize() != b[f].packets[p].serialize()) {
        return false;
      }
    }
  }
  return true;
}

class DistillPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = toy::train();
    DistillConfig cfg;
    cfg.teacher_steps = 8;
    cfg.rounds = 2;
    cfg.calibration_count = 2;
    fitted_stages_ = pipeline_->distill(cfg);
  }
  static void TearDownTestSuite() { pipeline_.reset(); }
  static GenerateOptions distilled_opts(std::size_t steps) {
    GenerateOptions opts;
    opts.sampler = SamplerKind::kDistilled;
    opts.ddim_steps = steps;
    opts.count = 2;
    return opts;
  }
  static std::shared_ptr<TraceDiffusion> pipeline_;
  static std::size_t fitted_stages_;
};

std::shared_ptr<TraceDiffusion> DistillPipelineTest::pipeline_;
std::size_t DistillPipelineTest::fitted_stages_ = 0;

TEST_F(DistillPipelineTest, FitsHalvedStagesPerClass) {
  // Two classes x two halving rounds. With timesteps = 20 and the
  // default template_strength the start timestep is 6, so the round-0
  // teacher is clamped to 7 steps and the rounds yield 4- and 2-step
  // students.
  EXPECT_EQ(fitted_stages_, 4u);
  const auto counts = pipeline_->distilled_step_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 4u);
  for (int cls : {0, 1}) {
    EXPECT_TRUE(pipeline_->has_distilled(cls, 4));
    EXPECT_TRUE(pipeline_->has_distilled(cls, 2));
    EXPECT_FALSE(pipeline_->has_distilled(cls, 5));
  }
}

TEST_F(DistillPipelineTest, GeneratesThroughDistilledSampler) {
  const auto flows =
      pipeline_->generate_seeded(1, distilled_opts(4), /*seed=*/900);
  ASSERT_EQ(flows.size(), 2u);
  for (const auto& flow : flows) {
    EXPECT_EQ(flow.label, 1);
    EXPECT_FALSE(flow.packets.empty());
  }
  // Same (class, seed, opts) => bit-identical flows, same as the other
  // samplers — the distilled trajectory draws no per-step noise.
  const auto again =
      pipeline_->generate_seeded(1, distilled_opts(4), /*seed=*/900);
  EXPECT_TRUE(flows_equal(flows, again));
}

TEST_F(DistillPipelineTest, BatchCompositionDoesNotChangeDistilledFlows) {
  // The serving-layer coalescing contract must hold for the distilled
  // path too: one batched call == separate calls with the same streams.
  const GenerateOptions opts = distilled_opts(2);
  const auto batched =
      pipeline_->generate_with_flow_seeds(0, opts, {111, 222, 333});
  auto separate = pipeline_->generate_with_flow_seeds(0, opts, {111});
  for (const std::uint64_t s : {std::uint64_t{222}, std::uint64_t{333}}) {
    auto one = pipeline_->generate_with_flow_seeds(0, opts, {s});
    separate.insert(separate.end(), one.begin(), one.end());
  }
  EXPECT_TRUE(flows_equal(batched, separate));
}

TEST_F(DistillPipelineTest, RejectsUnfittedStepCount) {
  EXPECT_THROW(pipeline_->generate_seeded(0, distilled_opts(5), 1),
               std::invalid_argument);
}

TEST_F(DistillPipelineTest, CheckpointRoundTripPreservesStagesBitExactly) {
  const char* prefix = "/tmp/repro_distill_ckpt";
  pipeline_->save(prefix);
  TraceDiffusion restored(toy::config(), toy::classes());
  restored.load(prefix);
  EXPECT_EQ(restored.distilled_step_counts(),
            pipeline_->distilled_step_counts());
  // The restored stages (taus AND float gains) must reproduce the exact
  // same flows: distilled generation is deterministic given (class,
  // seed, opts), so any serialization drift shows up as a bit diff.
  for (const std::size_t steps : {std::size_t{2}, std::size_t{4}}) {
    const auto want =
        pipeline_->generate_seeded(0, distilled_opts(steps), 4242);
    const auto got = restored.generate_seeded(0, distilled_opts(steps), 4242);
    EXPECT_TRUE(flows_equal(want, got)) << "steps=" << steps;
  }
  std::remove((std::string(prefix) + ".meta").c_str());
  std::remove((std::string(prefix) + ".weights").c_str());
}

}  // namespace
}  // namespace repro::diffusion
