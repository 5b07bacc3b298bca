#include "nn/activation.hpp"

#include <cmath>
#include <utility>

namespace repro::nn {
namespace {

inline float sigmoid_f(float x) noexcept { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

Tensor SiLU::forward(const Tensor& input) const {
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = input[i] * sigmoid_f(input[i]);
  }
  return out;
}

Tensor SiLU::forward(const Tensor& input) {
  Tensor out = std::as_const(*this).forward(input);
  input_ = input;
  return out;
}

Tensor SiLU::backward(const Tensor& grad_output) {
  grad_output.require_shape(input_.shape(), "SiLU::backward");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const float s = sigmoid_f(input_[i]);
    grad[i] *= s * (1.0f + input_[i] * (1.0f - s));
  }
  return grad;
}

Tensor ReLU::forward(const Tensor& input) const {
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] < 0.0f) out[i] = 0.0f;
  }
  return out;
}

Tensor ReLU::forward(const Tensor& input) {
  Tensor out = std::as_const(*this).forward(input);
  input_ = input;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  grad_output.require_shape(input_.shape(), "ReLU::backward");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (input_[i] <= 0.0f) grad[i] = 0.0f;
  }
  return grad;
}

Tensor LeakyReLU::forward(const Tensor& input) const {
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] < 0.0f) out[i] *= slope_;
  }
  return out;
}

Tensor LeakyReLU::forward(const Tensor& input) {
  Tensor out = std::as_const(*this).forward(input);
  input_ = input;
  return out;
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  grad_output.require_shape(input_.shape(), "LeakyReLU::backward");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (input_[i] < 0.0f) grad[i] *= slope_;
  }
  return grad;
}

Tensor Tanh::forward(const Tensor& input) const {
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::tanh(out[i]);
  return out;
}

Tensor Tanh::forward(const Tensor& input) {
  output_ = std::as_const(*this).forward(input);
  return output_;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  grad_output.require_shape(output_.shape(), "Tanh::backward");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad[i] *= 1.0f - output_[i] * output_[i];
  }
  return grad;
}

Tensor Sigmoid::forward(const Tensor& input) const {
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = sigmoid_f(out[i]);
  return out;
}

Tensor Sigmoid::forward(const Tensor& input) {
  output_ = std::as_const(*this).forward(input);
  return output_;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  grad_output.require_shape(output_.shape(), "Sigmoid::backward");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad[i] *= output_[i] * (1.0f - output_[i]);
  }
  return grad;
}

}  // namespace repro::nn
