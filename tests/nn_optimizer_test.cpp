#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace repro::nn {
namespace {

TEST(Adam, MinimizesQuadratic) {
  // f(w) = sum (w - 3)^2, df/dw = 2(w - 3).
  Parameter w("w", Tensor::full({4}, 10.0f));
  Adam::Config cfg;
  cfg.lr = 0.1f;
  Adam opt({&w}, cfg);
  for (int step = 0; step < 500; ++step) {
    for (std::size_t i = 0; i < 4; ++i) {
      w.grad[i] = 2.0f * (w.value[i] - 3.0f);
    }
    opt.step();
    w.zero_grad();
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.value[i], 3.0f, 1e-2);
  }
}

TEST(Adam, SkipsFrozenParameters) {
  Parameter frozen("frozen", Tensor::full({2}, 5.0f));
  frozen.trainable = false;
  Parameter live("live", Tensor::full({2}, 5.0f));
  Adam opt({&frozen, &live});
  frozen.grad.fill(1.0f);
  live.grad.fill(1.0f);
  opt.step();
  EXPECT_FLOAT_EQ(frozen.value[0], 5.0f);
  EXPECT_NE(live.value[0], 5.0f);
}

TEST(Adam, WeightDecayShrinksWeights) {
  Parameter w("w", Tensor::full({1}, 4.0f));
  Adam::Config cfg;
  cfg.lr = 0.1f;
  cfg.weight_decay = 0.1f;
  Adam opt({&w}, cfg);
  // Zero gradient: only decay acts.
  for (int i = 0; i < 10; ++i) {
    opt.step();
  }
  EXPECT_LT(w.value[0], 4.0f);
  EXPECT_GT(w.value[0], 0.0f);
}

TEST(Adam, ResetStateClearsMoments) {
  Parameter w("w", Tensor::full({1}, 1.0f));
  Adam::Config cfg;
  cfg.lr = 0.5f;
  Adam opt({&w}, cfg);
  w.grad[0] = 1.0f;
  opt.step();
  const float after_one = w.value[0];
  opt.reset_state();
  // After reset, a step with the same gradient behaves like the first.
  Parameter w2("w2", Tensor::full({1}, after_one));
  Adam opt2({&w2}, cfg);
  w.grad[0] = 1.0f;
  w2.grad[0] = 1.0f;
  opt.step();
  opt2.step();
  EXPECT_NEAR(w.value[0], w2.value[0], 1e-6);
}

TEST(Adam, StepMatchesTheTextbookUpdate) {
  // Kingma & Ba's update with decoupled weight decay, written out
  // literally in double:
  //   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g^2
  //   w -= lr * ((m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps) + wd*w)
  // eps is far above its default so that a mistake in how it meets the
  // bias corrections shows in the result.
  Adam::Config cfg;
  cfg.lr = 0.01f;
  cfg.eps = 1e-3f;
  cfg.weight_decay = 0.1f;
  constexpr std::size_t kN = 7;
  Parameter live("live", Tensor::zeros({kN}));
  Parameter frozen("frozen", Tensor::full({3}, 2.0f));
  frozen.trainable = false;
  for (std::size_t j = 0; j < kN; ++j) {
    live.value[j] = 0.5f - 0.25f * static_cast<float>(j);
  }
  Adam opt({&frozen, &live}, cfg);

  std::vector<double> w(kN), m(kN, 0.0), v(kN, 0.0);
  for (std::size_t j = 0; j < kN; ++j) w[j] = live.value[j];
  const double b1 = cfg.beta1;
  const double b2 = cfg.beta2;
  for (int t = 1; t <= 3; ++t) {
    for (std::size_t j = 0; j < kN; ++j) {
      // Mixed signs and magnitudes, different on every step.
      const float phase = static_cast<float>(3 * t) + static_cast<float>(j);
      live.grad[j] = 0.05f * static_cast<float>(j + 1) * std::sin(phase);
    }
    frozen.grad.fill(1.0f);
    opt.step();
    for (std::size_t j = 0; j < kN; ++j) {
      const double g = live.grad[j];
      m[j] = b1 * m[j] + (1.0 - b1) * g;
      v[j] = b2 * v[j] + (1.0 - b2) * g * g;
      const double mhat = m[j] / (1.0 - std::pow(b1, t));
      const double vhat = v[j] / (1.0 - std::pow(b2, t));
      w[j] -= static_cast<double>(cfg.lr) *
              (mhat / (std::sqrt(vhat) + static_cast<double>(cfg.eps)) +
               static_cast<double>(cfg.weight_decay) * w[j]);
    }
    live.zero_grad();
  }
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_LE(std::abs(live.value[j] - w[j]), 1e-5 * std::abs(w[j]))
        << "element " << j << ": " << live.value[j] << " vs " << w[j];
  }
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(frozen.value[j], 2.0f);
}

TEST(Sgd, SimpleStep) {
  Parameter w("w", Tensor::full({2}, 1.0f));
  Sgd opt({&w}, 0.5f);
  w.grad.fill(2.0f);
  opt.step();
  EXPECT_FLOAT_EQ(w.value[0], 0.0f);
}

TEST(ClipGradNorm, ScalesWhenAboveThreshold) {
  Parameter a("a", Tensor::zeros({2}));
  a.grad[0] = 3.0f;
  a.grad[1] = 4.0f;  // norm 5
  const float norm = clip_grad_norm({&a}, 1.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_NEAR(a.grad[0], 0.6f, 1e-6);
  EXPECT_NEAR(a.grad[1], 0.8f, 1e-6);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone) {
  Parameter a("a", Tensor::zeros({2}));
  a.grad[0] = 0.1f;
  clip_grad_norm({&a}, 1.0f);
  EXPECT_FLOAT_EQ(a.grad[0], 0.1f);
}

TEST(ClipGradNorm, IgnoresFrozenParams) {
  Parameter frozen("f", Tensor::zeros({1}));
  frozen.trainable = false;
  frozen.grad[0] = 100.0f;
  Parameter live("l", Tensor::zeros({1}));
  live.grad[0] = 0.5f;
  const float norm = clip_grad_norm({&frozen, &live}, 1.0f);
  EXPECT_FLOAT_EQ(norm, 0.5f);
  EXPECT_FLOAT_EQ(frozen.grad[0], 100.0f);
}

}  // namespace
}  // namespace repro::nn
