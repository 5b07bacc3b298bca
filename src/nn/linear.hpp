// Fully-connected layer: y = x W^T + b, x: [N, in], W: [out, in].
#pragma once

#include "common/rng.hpp"
#include "nn/module.hpp"

namespace repro::nn {

class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         bool bias = true, const std::string& name = "linear");

  Tensor forward(const Tensor& input) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

  Parameter& weight() noexcept { return weight_; }
  const Parameter& weight() const noexcept { return weight_; }
  Parameter& bias() noexcept { return bias_; }
  bool has_bias() const noexcept { return has_bias_; }

  /// Freeze/unfreeze the base weights (LoRA fine-tuning).
  void set_trainable(bool trainable) noexcept;

 private:
  std::size_t in_, out_;
  bool has_bias_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  Tensor input_;      // recorded for backward
};

}  // namespace repro::nn
