// LoRA (Hu et al. 2021): low-rank adaptation of a dense layer.
//
// y = W x + b + (alpha / r) * B (A x),  A: [r, in] (gaussian init),
// B: [out, r] (zero init, so the adapter starts as the identity delta).
// During fine-tuning the wrapped base layer is frozen and only A/B train —
// the paper uses LoRA to extend class coverage of the pre-trained base
// model (§3.1). `merged_weight()` folds the adapter into a dense matrix
// for inference-cost analysis.
#pragma once

#include <memory>

#include "nn/linear.hpp"

namespace repro::nn {

class LoraLinear : public Module {
 public:
  /// Wraps (and takes ownership of) `base`. rank == 0 means a pass-through
  /// wrapper with no adapter (used by ablations).
  LoraLinear(std::unique_ptr<Linear> base, std::size_t rank, float alpha,
             Rng& rng, const std::string& name = "lora");

  Tensor forward(const Tensor& input) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  /// Freezes the base layer; adapters stay trainable.
  void freeze_base() noexcept { base_->set_trainable(false); }
  void unfreeze_base() noexcept { base_->set_trainable(true); }

  std::size_t rank() const noexcept { return rank_; }
  Linear& base() noexcept { return *base_; }

  /// W + (alpha/r) * B A, shape [out, in].
  Tensor merged_weight() const;

 private:
  /// The forward graph, written once: instantiated for a const owner it
  /// is the read-only forward, for a mutable one the training forward.
  template <class Self>
  static Tensor graph(Self& self, const Tensor& input);

  Child<Linear> base_;
  std::size_t rank_;
  float scaling_;
  Parameter a_;  // [r, in]
  Parameter b_;  // [out, r]
  Tensor input_;  // recorded for backward
  Tensor ax_;     // recorded A x^T intermediate, [N, r]
};

}  // namespace repro::nn
