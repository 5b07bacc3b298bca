// Element-wise activation layers (shape-preserving, any rank).
#pragma once

#include "nn/module.hpp"

namespace repro::nn {

/// SiLU / swish: x * sigmoid(x) — the U-Net's activation.
class SiLU : public Module {
 public:
  Tensor forward(const Tensor& input) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor input_;
};

class ReLU : public Module {
 public:
  Tensor forward(const Tensor& input) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor input_;
};

/// LeakyReLU with fixed negative slope (GAN discriminators).
class LeakyReLU : public Module {
 public:
  explicit LeakyReLU(float slope = 0.2f) : slope_(slope) {}
  Tensor forward(const Tensor& input) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  float slope_;
  Tensor input_;
};

class Tanh : public Module {
 public:
  Tensor forward(const Tensor& input) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor output_;
};

class Sigmoid : public Module {
 public:
  Tensor forward(const Tensor& input) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor output_;
};

}  // namespace repro::nn
