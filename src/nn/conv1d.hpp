// 1-D convolution over the packet axis of a flow image.
// Input [N, Cin, L], weight [Cout, Cin, K], zero padding, configurable
// stride (stride 2 = U-Net downsampling). Output length is
// (L + 2*pad - K)/stride + 1.
#pragma once

#include "common/rng.hpp"
#include "nn/module.hpp"

namespace repro::nn {

class Conv1d : public Module {
 public:
  Conv1d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, Rng& rng, std::size_t stride = 1,
         std::size_t padding = SIZE_MAX /* = kernel/2 ("same") */,
         const std::string& name = "conv1d");

  Tensor forward(const Tensor& input) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  std::size_t out_length(std::size_t in_length) const noexcept {
    return (in_length + 2 * padding_ - kernel_) / stride_ + 1;
  }

  Parameter& weight() noexcept { return weight_; }
  Parameter& bias() noexcept { return bias_; }
  void set_trainable(bool trainable) noexcept;

  /// Sets all weights/bias to zero — ControlNet's "zero convolution"
  /// fusion layers start as identity-of-nothing.
  void zero_init() noexcept;

 private:
  std::size_t cin_, cout_, kernel_, stride_, padding_;
  Parameter weight_;  // [cout, cin, k]
  Parameter bias_;    // [cout]
  Tensor input_;  // recorded for backward
};

}  // namespace repro::nn
