// Module interface: a layer owning parameters, with one read-only
// forward and an explicit backward pass.
//
// Contract:
//   * `forward(x) const` is the layer's math and the whole inference
//     path. It is a pure function of the parameters and `x`: it writes
//     no member and keeps its temporaries in TensorArena scratch, so any
//     number of threads may run it on one shared model at once.
//   * `forward(x)` (non-const) is the training entry point. It records
//     what backward needs (the input, a normalized copy, attention
//     weights), then runs the same math as the const forward. Which one
//     a call reaches follows the constness of the object: code holding
//     a `const` model can only ever run the read-only path.
//   * `backward` consumes the gradient of the loss w.r.t. the output of
//     the last training forward and returns the gradient w.r.t. its
//     input, accumulating parameter gradients (`Parameter::grad`) as a
//     side effect. Each module instance records one training forward at
//     a time (networks needing reuse instantiate the module twice, as
//     ControlNet does with its trainable copy).
//
// Composite layers write their graph once, as a template over the owner's
// constness (see SelfAttention1d::graph); children held by pointer sit
// behind `propagate_const`, so a const owner reaches only their const
// forward.
#pragma once

#include <experimental/propagate_const>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace repro::nn {

/// A learnable value with its gradient accumulator. `trainable` is turned
/// off for the frozen base weights during LoRA fine-tuning.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  bool trainable = true;

  Parameter() = default;
  Parameter(std::string name_, Tensor value_)
      : name(std::move(name_)),
        value(std::move(value_)),
        grad(Tensor::zeros(value.shape())) {}

  void zero_grad() noexcept { grad.fill(0.0f); }
};

/// Owning child pointer whose constness follows its owner's.
template <class T>
using Child = std::experimental::propagate_const<std::unique_ptr<T>>;

class Module {
 public:
  virtual ~Module() = default;

  /// Inference: reads parameters and `input` only.
  virtual Tensor forward(const Tensor& input) const = 0;
  /// Training: records for backward, then runs the const forward's math.
  virtual Tensor forward(const Tensor& input) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// All parameters owned by this module (and submodules).
  virtual std::vector<Parameter*> parameters() { return {}; }

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

  /// Total learnable scalar count.
  std::size_t parameter_count() {
    std::size_t n = 0;
    for (Parameter* p : parameters()) n += p->value.size();
    return n;
  }
};

/// Collects parameters from several modules (for optimizers).
std::vector<Parameter*> collect_parameters(
    const std::vector<Module*>& modules);

}  // namespace repro::nn
