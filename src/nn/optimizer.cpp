#include "nn/optimizer.hpp"

#include <cmath>

#include "common/telemetry/trace.hpp"

namespace repro::nn {

Adam::Adam(std::vector<Parameter*> params)
    : Adam(std::move(params), Config{}) {}

Adam::Adam(std::vector<Parameter*> params, Config config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Parameter* p : params_) {
    m_.push_back(Tensor::zeros(p->value.shape()));
    v_.push_back(Tensor::zeros(p->value.shape()));
  }
}

void Adam::step() {
  REPRO_SPAN("nn.adam.step");
  ++t_;
  const float beta1 = config_.beta1;
  const float beta2 = config_.beta2;
  const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t_));
  // Both bias corrections folded into one per-step scalar:
  //   lr * (m/bc1) / (sqrt(v/bc2) + eps)
  //     == step * m / (sqrt(v) + eps * sqrt(bc2)),
  // so the element loop has no division by bc1 or bc2.
  const float root_bc2 = std::sqrt(bc2);
  const float step_size = config_.lr * root_bc2 / bc1;
  const float eps = config_.eps * root_bc2;
  const float decay = config_.lr * config_.weight_decay;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    if (!p.trainable) continue;
    float* __restrict w = p.value.data();
    const float* __restrict g = p.grad.data();
    float* __restrict m = m_[i].data();
    float* __restrict v = v_[i].data();
    const std::size_t n = p.value.size();
    for (std::size_t j = 0; j < n; ++j) {
      m[j] = beta1 * m[j] + (1.0f - beta1) * g[j];
      v[j] = beta2 * v[j] + (1.0f - beta2) * g[j] * g[j];
      w[j] -= step_size * m[j] / (std::sqrt(v[j]) + eps) + decay * w[j];
    }
  }
}

void Adam::reset_state() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].fill(0.0f);
    v_[i].fill(0.0f);
  }
  t_ = 0;
}

void Sgd::step() {
  for (Parameter* p : params_) {
    if (!p->trainable) continue;
    for (std::size_t j = 0; j < p->value.size(); ++j) {
      p->value[j] -= lr_ * p->grad[j];
    }
  }
}

float clip_grad_norm(const std::vector<Parameter*>& params, float max_norm) {
  double total = 0.0;
  for (const Parameter* p : params) {
    if (!p->trainable) continue;
    for (std::size_t j = 0; j < p->grad.size(); ++j) {
      total += static_cast<double>(p->grad[j]) * p->grad[j];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Parameter* p : params) {
      if (!p->trainable) continue;
      p->grad.scale(scale);
    }
  }
  return norm;
}

}  // namespace repro::nn
