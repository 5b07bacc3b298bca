// Normalization layers.
//
// GroupNorm operates on [N, C, L] (the U-Net's convolutional blocks);
// LayerNorm operates on the last axis of [N, D] or [N, L, D] (attention
// blocks). Both carry learnable per-channel scale and shift.
#pragma once

#include "nn/module.hpp"

namespace repro::nn {

class GroupNorm : public Module {
 public:
  GroupNorm(std::size_t channels, std::size_t groups,
            const std::string& name = "groupnorm", float eps = 1e-5f);

  Tensor forward(const Tensor& input) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  void set_trainable(bool trainable) noexcept;

 private:
  std::size_t channels_, groups_;
  float eps_;
  Parameter gamma_;  // [C]
  Parameter beta_;   // [C]
  Tensor normalized_;           // recorded \hat x
  std::vector<float> inv_std_;  // per (n, group)

  /// The layer's math. When non-null, `normalized` and `inv_std` receive
  /// \hat x and the per-(n, group) inverse std for backward.
  Tensor normalize(const Tensor& input, Tensor* normalized,
                   std::vector<float>* inv_std) const;
};

class LayerNorm : public Module {
 public:
  LayerNorm(std::size_t dim, const std::string& name = "layernorm",
            float eps = 1e-5f);

  Tensor forward(const Tensor& input) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  void set_trainable(bool trainable) noexcept;

 private:
  std::size_t dim_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  Tensor normalized_;           // recorded \hat x
  std::vector<float> inv_std_;  // per row

  /// The layer's math; records like GroupNorm::normalize (per row).
  Tensor normalize(const Tensor& input, Tensor* normalized,
                   std::vector<float>* inv_std) const;
};

}  // namespace repro::nn
