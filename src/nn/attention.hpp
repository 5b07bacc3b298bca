// Single-head self-attention over the packet axis of a [N, C, L] feature
// map — the U-Net middle block's global mixing layer. Projections are
// pluggable Modules (plain Linear by default) so LoRA adapters can wrap
// them, mirroring where LoRA attaches in Stable Diffusion.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"

namespace repro::nn {

class SelfAttention1d : public Module {
 public:
  /// Plain-Linear projections.
  SelfAttention1d(std::size_t channels, Rng& rng,
                  const std::string& name = "attn");

  /// Custom projections (must map [*, C] -> [*, C]); used to install
  /// LoraLinear wrappers.
  SelfAttention1d(std::size_t channels, std::unique_ptr<Module> proj_q,
                  std::unique_ptr<Module> proj_k,
                  std::unique_ptr<Module> proj_v,
                  std::unique_ptr<Module> proj_out,
                  const std::string& name = "attn");

  Tensor forward(const Tensor& input) const override;  // [N, C, L] -> [N, C, L]
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  Module& proj_q() noexcept { return *q_; }
  Module& proj_k() noexcept { return *k_; }
  Module& proj_v() noexcept { return *v_; }
  Module& proj_out() noexcept { return *o_; }

 private:
  std::size_t channels_;
  LayerNorm norm_;
  Child<Module> q_, k_, v_, o_;
  // Recorded by the training forward for backward.
  Tensor q_rows_, k_rows_, v_rows_;  // [N*L, C]
  Tensor attn_;                      // [N, L, L]

  /// The forward graph, written once: instantiated for a const owner it
  /// is the read-only forward, for a mutable one the training forward.
  template <class Self>
  static Tensor graph(Self& self, const Tensor& input);
};

}  // namespace repro::nn
