#include "nn/linear.hpp"

#include <cstring>
#include <utility>

#include "common/parallel/parallel_for.hpp"
#include "common/telemetry/trace.hpp"
#include "nn/init.hpp"
#include "nn/kernels/gemm.hpp"

namespace repro::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               bool bias, const std::string& name)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      weight_(name + ".weight", Tensor({out_features, in_features})),
      bias_(name + ".bias", Tensor({out_features})) {
  kaiming_normal(weight_.value, in_features, rng);
}

Tensor Linear::forward(const Tensor& input) const {
  REPRO_SPAN("nn.linear.forward");
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Linear::forward: bad input " +
                                input.shape_string());
  }
  const std::size_t n = input.dim(0);
  Tensor out({n, out_});
  if (has_bias_) {
    // Seed each output row with the bias, then accumulate x W^T on top —
    // one pass over the output instead of a separate bias sweep.
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(out.data() + i * out_, bias_.value.data(),
                  out_ * sizeof(float));
    }
  }
  const kernels::Accumulate acc = has_bias_ ? kernels::Accumulate::kAdd
                                            : kernels::Accumulate::kOverwrite;
  kernels::gemm_nt(n, in_, out_, input.data(), weight_.value.data(),
                   out.data(), acc);
  return out;
}

Tensor Linear::forward(const Tensor& input) {
  Tensor out = std::as_const(*this).forward(input);
  input_ = input;
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  REPRO_SPAN("nn.linear.backward");
  grad_output.require_shape({input_.dim(0), out_}, "Linear::backward");
  // dW += g^T x ; db += sum_n g ; dx = g W
  const std::size_t n = grad_output.dim(0);
  kernels::gemm_tn(n, out_, in_, grad_output.data(), input_.data(),
                   weight_.grad.data(), kernels::Accumulate::kAdd);
  if (has_bias_) {
    // Each chunk owns a disjoint column range of the bias gradient and
    // accumulates it in the serial i-ascending order.
    parallel::parallel_for(
        0, out_, parallel::grain_for(n), [&](std::size_t jb, std::size_t je) {
          for (std::size_t i = 0; i < n; ++i) {
            const float* row = grad_output.data() + i * out_;
            for (std::size_t j = jb; j < je; ++j) bias_.grad[j] += row[j];
          }
        });
  }
  return matmul(grad_output, weight_.value);
}

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

void Linear::set_trainable(bool trainable) noexcept {
  weight_.trainable = trainable;
  bias_.trainable = trainable;
}

}  // namespace repro::nn
