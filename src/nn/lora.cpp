#include "nn/lora.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "nn/arena.hpp"
#include "nn/init.hpp"
#include "nn/kernels/gemm.hpp"

namespace repro::nn {

LoraLinear::LoraLinear(std::unique_ptr<Linear> base, std::size_t rank,
                       float alpha, Rng& rng, const std::string& name)
    : base_(std::move(base)),
      rank_(rank),
      scaling_(rank > 0 ? alpha / static_cast<float>(rank) : 0.0f),
      a_(name + ".A", Tensor({rank, base_->in_features()})),
      b_(name + ".B", Tensor({base_->out_features(), rank})) {
  if (rank_ > 0) {
    // A ~ N(0, 1/in); B = 0 so the initial adapter contributes nothing.
    normal_init(a_.value,
                1.0f / std::sqrt(static_cast<float>(base_->in_features())),
                rng);
    b_.value.fill(0.0f);
  }
}

template <class Self>
Tensor LoraLinear::graph(Self& self, const Tensor& input) {
  Tensor out = self.base_->forward(input);
  if (self.rank_ == 0) return out;
  const std::size_t n = input.dim(0);
  const std::size_t r = self.rank_;
  const std::size_t out_f = self.base_->out_features();
  TensorArena& arena = TensorArena::scratch();
  TensorArena::Handle ax = arena.acquire(n * r);
  kernels::gemm_nt(n, self.base_->in_features(), r, input.data(),
                   self.a_.value.data(), ax.data());
  // delta = (Ax) B^T into arena scratch, folded into out with scaling.
  TensorArena::Handle delta = arena.acquire(n * out_f);
  kernels::gemm_nt(n, r, out_f, ax.data(), self.b_.value.data(),
                   delta.data());
  float* o = out.data();
  const float* d = delta.data();
  for (std::size_t i = 0; i < n * out_f; ++i) o[i] += self.scaling_ * d[i];
  if constexpr (!std::is_const_v<Self>) {
    self.input_ = input;
    self.ax_ = Tensor({n, r});
    std::copy(ax.data(), ax.data() + n * r, self.ax_.data());
  }
  return out;
}

Tensor LoraLinear::forward(const Tensor& input) const {
  return graph(*this, input);
}

Tensor LoraLinear::forward(const Tensor& input) { return graph(*this, input); }

Tensor LoraLinear::backward(const Tensor& grad_output) {
  Tensor grad_input = base_->backward(grad_output);
  if (rank_ > 0) {
    // delta = s * B (A x); dB += s * g^T (Ax); dAx = s * g B; dA += dAx^T x.
    const std::size_t n = grad_output.dim(0);
    const std::size_t in_f = base_->in_features();
    const std::size_t out_f = base_->out_features();
    TensorArena& arena = TensorArena::scratch();
    TensorArena::Handle gs = arena.acquire(n * out_f);
    const float* g = grad_output.data();
    for (std::size_t i = 0; i < n * out_f; ++i) gs.data()[i] = scaling_ * g[i];
    kernels::gemm_tn(n, out_f, rank_, gs.data(), ax_.data(), b_.grad.data(),
                     kernels::Accumulate::kAdd);
    TensorArena::Handle gax = arena.acquire(n * rank_);
    kernels::gemm_nn(n, out_f, rank_, gs.data(), b_.value.data(), gax.data());
    kernels::gemm_tn(n, rank_, in_f, gax.data(), input_.data(), a_.grad.data(),
                     kernels::Accumulate::kAdd);
    kernels::gemm_nn(n, rank_, in_f, gax.data(), a_.value.data(),
                     grad_input.data(), kernels::Accumulate::kAdd);
  }
  return grad_input;
}

std::vector<Parameter*> LoraLinear::parameters() {
  auto params = base_->parameters();
  if (rank_ > 0) {
    params.push_back(&a_);
    params.push_back(&b_);
  }
  return params;
}

Tensor LoraLinear::merged_weight() const {
  Tensor merged = base_->weight().value;
  if (rank_ > 0) {
    Tensor delta = matmul(b_.value, a_.value);  // [out, in]
    merged.add_scaled(delta, scaling_);
  }
  return merged;
}

}  // namespace repro::nn
