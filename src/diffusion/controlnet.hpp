// ControlNet-style control branch (Zhang & Agrawala 2023, scaled down).
//
// A trainable copy of the U-Net encoder consumes x_t plus an encoded
// control hint and emits additive residuals for the base U-Net's skip
// connections and middle block through zero-initialized 1x1 convolutions
// ("zero convs"), so training starts from an exact no-op and gradually
// learns to steer generation. The hint here is the paper's one-shot
// protocol-template image: a [3, L] one-hot sequence giving each packet
// row's transport protocol (TCP/UDP/ICMP), derived from one real flow of
// the target class (§3.1 "guiding the generation via one-shot controls").
#pragma once

#include "diffusion/resblock.hpp"
#include "diffusion/unet1d.hpp"
#include "net/flow.hpp"
#include "nn/embedding.hpp"

namespace repro::diffusion {

inline constexpr std::size_t kHintChannels = 3;  // one-hot TCP/UDP/ICMP

class ControlNetBranch {
 public:
  ControlNetBranch(const UNetConfig& config, Rng& rng);

  /// x: [N, C, L] (the current noisy latent), hint: [N, 3, L].
  /// Residual shapes match ControlResiduals' documentation. The const
  /// overload is the read-only sampling forward; the other is the
  /// training entry that records for backward (nn/module.hpp).
  ControlResiduals forward(const nn::Tensor& x,
                           const std::vector<float>& timesteps,
                           const std::vector<int>& class_ids,
                           const nn::Tensor& hint) const;
  ControlResiduals forward(const nn::Tensor& x,
                           const std::vector<float>& timesteps,
                           const std::vector<int>& class_ids,
                           const nn::Tensor& hint);

  /// Consumes the gradients the base U-Net reported for the residuals.
  void backward(const ControlResiduals& grad_residuals);

  std::vector<nn::Parameter*> parameters();
  void zero_grad();

 private:
  /// The forward graph, written once for both overloads.
  template <class Self>
  static ControlResiduals graph(Self& self, const nn::Tensor& x,
                                const std::vector<float>& timesteps,
                                const std::vector<int>& class_ids,
                                const nn::Tensor& hint);

  UNetConfig config_;
  // Conditioning (own copy; ControlNet clones the encoder conditioning).
  nn::Linear time_mlp1_;
  nn::SiLU time_act_;
  nn::Linear time_mlp2_;
  nn::Embedding class_embedding_;
  // Hint encoder.
  nn::Conv1d hint_conv1_;
  nn::SiLU hint_act_;
  nn::Conv1d hint_conv2_;
  // Encoder copy.
  nn::Conv1d conv_in_;
  ResBlock res_d1_;
  nn::Conv1d down1_;
  ResBlock res_d2_;
  nn::Conv1d down2_;
  ResBlock res_m_;
  // Zero convolutions.
  nn::Conv1d zero1_;  // base -> base
  nn::Conv1d zero2_;  // 2*base -> 2*base
  nn::Conv1d zero_m_;
};

/// Builds the [3, L] one-hot protocol hint from a template flow (row i =
/// protocol of packet i; rows beyond the flow's length repeat the
/// dominant protocol, matching the padded image rows).
nn::Tensor protocol_hint(const net::Flow& flow, std::size_t packets);

}  // namespace repro::diffusion
