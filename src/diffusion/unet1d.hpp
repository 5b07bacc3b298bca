// Conditional 1-D U-Net noise predictor over latent flow sequences —
// the repo's CPU-scale stand-in for Stable Diffusion's denoiser
// (DESIGN.md §2). Input/output: [N, C, L] where C is the per-packet
// latent dimension and L the packet axis (L must be divisible by 4).
//
// Topology:
//   conv_in -> res_d1 --(skip1)--> down1 -> res_d2 --(skip2)--> down2
//   -> res_m1 -> self-attention -> res_m2
//   -> up2(+skip2) -> res_u2 -> up1(+skip1) -> res_u1 -> norm/act/conv_out
//
// Conditioning: sinusoidal timestep embedding through a 2-layer MLP,
// plus a learned class embedding ("Type-k" prompt, null id for
// classifier-free guidance), summed and FiLM-injected into every
// residual block. Optional LoRA adapters wrap the attention projections.
// Optional ControlNet residuals are added to skip1/skip2/mid.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "diffusion/resblock.hpp"
#include "nn/attention.hpp"
#include "nn/embedding.hpp"

namespace repro::diffusion {

struct UNetConfig {
  std::size_t in_channels = 16;    // latent dim per packet
  std::size_t base_channels = 32;  // doubled after the first downsample
  std::size_t temb_dim = 64;
  std::size_t num_classes = 11;
  std::size_t groups = 8;
  std::size_t lora_rank = 0;   // 0 = plain Linear attention projections
  float lora_alpha = 8.0f;
  /// Channels of the ControlNet hint image. Minimum 3 (protocol one-hot);
  /// the pipeline widens it with the encoded template-flow latent so the
  /// one-shot control carries class structure, as the paper's ControlNet
  /// consumes a class-specific template *image* (§3.1).
  std::size_t hint_channels = 3;
};

/// Additive residuals a ControlNet branch feeds into the decoder path.
struct ControlResiduals {
  nn::Tensor skip1;  // [N, B, L]
  nn::Tensor skip2;  // [N, 2B, L/2]
  nn::Tensor mid;    // [N, 2B, L/4]
};

class UNet1d {
 public:
  UNet1d(const UNetConfig& config, Rng& rng);

  const UNetConfig& config() const noexcept { return config_; }

  /// Predicts the noise eps for x_t. `timesteps` and `class_ids` have one
  /// entry per batch element; use PromptCodec::null_id() for the
  /// unconditional branch. `control` may be nullptr. The const overload
  /// is the read-only sampling forward; the other is the training entry
  /// that records for backward (nn/module.hpp).
  nn::Tensor forward(const nn::Tensor& x, const std::vector<float>& timesteps,
                     const std::vector<int>& class_ids,
                     const ControlResiduals* control = nullptr) const;
  nn::Tensor forward(const nn::Tensor& x, const std::vector<float>& timesteps,
                     const std::vector<int>& class_ids,
                     const ControlResiduals* control = nullptr);

  /// Backpropagates the loss gradient; returns grad wrt x. When
  /// `grad_control` is non-null it receives the gradients flowing into
  /// the control residuals (for ControlNet training).
  nn::Tensor backward(const nn::Tensor& grad_eps,
                      ControlResiduals* grad_control = nullptr);

  std::vector<nn::Parameter*> parameters();

  /// Adapter-only parameters (empty when lora_rank == 0).
  std::vector<nn::Parameter*> lora_parameters();

  /// The class ("word") embedding table — trained alongside the adapters
  /// during fine-tuning to register new classes.
  nn::Parameter& class_embedding_table() noexcept {
    return class_embedding_.table();
  }

  /// Freezes everything except LoRA adapters (fine-tuning mode).
  void freeze_base() noexcept;
  void unfreeze_all() noexcept;

  void zero_grad();
  std::size_t parameter_count();

 private:
  /// The forward graph, written once for both overloads.
  template <class Self>
  static nn::Tensor graph(Self& self, const nn::Tensor& x,
                          const std::vector<float>& timesteps,
                          const std::vector<int>& class_ids,
                          const ControlResiduals* control);
  template <class Self>
  static nn::Tensor embed(Self& self, const std::vector<float>& timesteps,
                          const std::vector<int>& class_ids);
  void embed_backward(const nn::Tensor& grad_temb);

  UNetConfig config_;
  // Conditioning.
  nn::Linear time_mlp1_;
  nn::SiLU time_act_;
  nn::Linear time_mlp2_;
  nn::Embedding class_embedding_;
  // Encoder.
  nn::Conv1d conv_in_;
  ResBlock res_d1_;
  nn::Conv1d down1_;
  ResBlock res_d2_;
  nn::Conv1d down2_;
  // Middle.
  ResBlock res_m1_;
  nn::Child<nn::SelfAttention1d> attention_;
  ResBlock res_m2_;
  // Decoder.
  nn::Conv1d up_conv2_;
  ResBlock res_u2_;
  nn::Conv1d up_conv1_;
  ResBlock res_u1_;
  nn::GroupNorm norm_out_;
  nn::SiLU act_out_;
  nn::Conv1d conv_out_;
};

/// Nearest-neighbour 2x upsampling along L and its adjoint.
nn::Tensor upsample2x(const nn::Tensor& x);
nn::Tensor upsample2x_backward(const nn::Tensor& grad);

/// Channel concat/split helpers for skip connections.
nn::Tensor concat_channels(const nn::Tensor& a, const nn::Tensor& b);
void split_channels(const nn::Tensor& grad, std::size_t ca, nn::Tensor& ga,
                    nn::Tensor& gb);

}  // namespace repro::diffusion
