// U-Net residual block with FiLM-style timestep/condition injection:
//
//   h = Conv(SiLU(GN(x)));  h += Linear(temb) broadcast over L;
//   h = Conv(SiLU(GN(h)));  y = h + skip(x)
//
// (skip is a 1x1 conv when the channel count changes). Not a plain
// Module because forward takes two inputs (x, temb) and backward yields
// two gradients.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "nn/conv1d.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"

namespace repro::diffusion {

class ResBlock {
 public:
  ResBlock(std::size_t in_channels, std::size_t out_channels,
           std::size_t temb_dim, std::size_t groups, Rng& rng,
           const std::string& name);

  /// x: [N, Cin, L], temb: [N, temb_dim] -> [N, Cout, L]. The const
  /// overload is the read-only forward; the other is the training entry
  /// that records for backward (nn/module.hpp).
  nn::Tensor forward(const nn::Tensor& x, const nn::Tensor& temb) const;
  nn::Tensor forward(const nn::Tensor& x, const nn::Tensor& temb);

  /// Returns grad_x; accumulates the temb gradient into `grad_temb`
  /// (shape [N, temb_dim], must be pre-sized).
  nn::Tensor backward(const nn::Tensor& grad_out, nn::Tensor& grad_temb);

  std::vector<nn::Parameter*> parameters();
  void set_trainable(bool trainable) noexcept;

  std::size_t out_channels() const noexcept { return cout_; }

 private:
  /// The forward graph, written once for both overloads.
  template <class Self>
  static nn::Tensor graph(Self& self, const nn::Tensor& x,
                          const nn::Tensor& temb);

  std::size_t cin_, cout_;
  nn::GroupNorm norm1_;
  nn::SiLU act1_;
  nn::Conv1d conv1_;
  nn::Linear temb_proj_;
  nn::SiLU temb_act_;
  nn::GroupNorm norm2_;
  nn::SiLU act2_;
  nn::Conv1d conv2_;
  nn::Child<nn::Conv1d> skip_;  // present iff cin != cout
};

}  // namespace repro::diffusion
