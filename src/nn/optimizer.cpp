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
  const float bc1 = 1.0f - std::pow(config_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(config_.beta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    if (!p.trainable) continue;
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      const float g = p.grad[j];
      m[j] = config_.beta1 * m[j] + (1.0f - config_.beta1) * g;
      v[j] = config_.beta2 * v[j] + (1.0f - config_.beta2) * g * g;
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      p.value[j] -= config_.lr *
                    (mhat / (std::sqrt(vhat) + config_.eps) +
                     config_.weight_decay * p.value[j]);
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
