#include "nn/conv1d.hpp"

#include <cstring>
#include <utility>

#include "common/telemetry/trace.hpp"
#include "nn/arena.hpp"
#include "nn/init.hpp"
#include "nn/kernels/gemm.hpp"

namespace repro::nn {
namespace {

/// Shape of the im2col lowering. The column panel is [cin*kernel, n*lout]
/// with one column block of lout per batch element; row (ic*kernel + k)
/// holds input position t*stride + k - padding for output t, zero where
/// that position falls in the padding.
struct Lowering {
  std::size_t n, cin, lin, kernel, stride, padding, lout;

  std::size_t cols() const { return n * lout; }
  /// Input position that tap k of output t reads; negative in the padding.
  std::ptrdiff_t pos(std::size_t t, std::size_t k) const {
    const std::ptrdiff_t p = static_cast<std::ptrdiff_t>(t * stride + k) -
                             static_cast<std::ptrdiff_t>(padding);
    return p < static_cast<std::ptrdiff_t>(lin) ? p : -1;
  }
};

/// input [n, cin, lin] -> col [cin*kernel, n*lout].
void im2col(const Lowering& s, const float* input, float* col) {
  const std::size_t cols = s.cols();
  for (std::size_t b = 0; b < s.n; ++b) {
    for (std::size_t ic = 0; ic < s.cin; ++ic) {
      const float* irow = input + (b * s.cin + ic) * s.lin;
      for (std::size_t k = 0; k < s.kernel; ++k) {
        float* crow = col + (ic * s.kernel + k) * cols + b * s.lout;
        for (std::size_t t = 0; t < s.lout; ++t) {
          const std::ptrdiff_t pos = s.pos(t, k);
          crow[t] = pos >= 0 ? irow[static_cast<std::size_t>(pos)] : 0.0f;
        }
      }
    }
  }
}

/// The adjoint of im2col: each column entry is added back to the input
/// position it was read from (grad_input [n, cin, lin] +=).
void col2im(const Lowering& s, const float* col, float* grad_input) {
  const std::size_t cols = s.cols();
  for (std::size_t b = 0; b < s.n; ++b) {
    for (std::size_t ic = 0; ic < s.cin; ++ic) {
      float* girow = grad_input + (b * s.cin + ic) * s.lin;
      for (std::size_t k = 0; k < s.kernel; ++k) {
        const float* crow = col + (ic * s.kernel + k) * cols + b * s.lout;
        for (std::size_t t = 0; t < s.lout; ++t) {
          const std::ptrdiff_t pos = s.pos(t, k);
          if (pos >= 0) girow[static_cast<std::size_t>(pos)] += crow[t];
        }
      }
    }
  }
}

}  // namespace

Conv1d::Conv1d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, Rng& rng, std::size_t stride,
               std::size_t padding, const std::string& name)
    : cin_(in_channels),
      cout_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding == SIZE_MAX ? kernel / 2 : padding),
      weight_(name + ".weight", Tensor({out_channels, in_channels, kernel})),
      bias_(name + ".bias", Tensor({out_channels})) {
  kaiming_normal(weight_.value, in_channels * kernel, rng);
}

Tensor Conv1d::forward(const Tensor& input) const {
  REPRO_SPAN("nn.conv1d.forward");
  if (input.rank() != 3 || input.dim(1) != cin_) {
    throw std::invalid_argument("Conv1d::forward: bad input " +
                                input.shape_string());
  }
  const std::size_t lin = input.dim(2);
  const Lowering s{input.dim(0), cin_, lin, kernel_, stride_, padding_,
                   out_length(lin)};
  const std::size_t n = s.n, lout = s.lout, cols = s.cols();
  const std::size_t kc = cin_ * kernel_;
  Tensor out({n, cout_, lout});
  // im2col + GEMM over the WHOLE batch: every batch element's window
  // matrix is lowered into one column panel (in arena scratch), then a
  // single GEMM computes all output channels for all batch elements at
  // once. One kernel call instead of n amortizes the per-call
  // pack/dispatch cost that dominates the network's small convolutions.
  // Each output element is still the same ascending-k accumulation, so
  // the result is bit-identical to the per-batch form.
  TensorArena::Handle col = TensorArena::scratch().acquire(kc * cols);
  im2col(s, input.data(), col.data());
  // C buffer [cout, n*lout]: rows seeded with the bias, GEMM adds the
  // products, then rows scatter back to the [n, cout, lout] layout.
  TensorArena::Handle cbuf = TensorArena::scratch().acquire(cout_ * cols);
  float* cp = cbuf.data();
  for (std::size_t oc = 0; oc < cout_; ++oc) {
    const float bv = bias_.value[oc];
    float* crow = cp + oc * cols;
    for (std::size_t t = 0; t < cols; ++t) crow[t] = bv;
  }
  kernels::gemm_nn(cout_, kc, cols, weight_.value.data(), col.data(), cp,
                   kernels::Accumulate::kAdd);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < cout_; ++oc) {
      std::memcpy(out.data() + (b * cout_ + oc) * lout,
                  cp + oc * cols + b * lout, lout * sizeof(float));
    }
  }
  return out;
}

Tensor Conv1d::forward(const Tensor& input) {
  Tensor out = std::as_const(*this).forward(input);
  input_ = input;
  return out;
}

Tensor Conv1d::backward(const Tensor& grad_output) {
  REPRO_SPAN("nn.conv1d.backward");
  const std::size_t lin = input_.dim(2);
  const Lowering s{input_.dim(0), cin_, lin, kernel_, stride_, padding_,
                   out_length(lin)};
  const std::size_t n = s.n, lout = s.lout, cols = s.cols();
  const std::size_t kc = cin_ * kernel_;
  grad_output.require_shape({n, cout_, lout}, "Conv1d::backward");
  // The forward's layout: dY gathered into [cout, n*lout], the input
  // lowered again into its column panel. The bias gradient sums each
  // batch element's row in double, as one partial per element.
  TensorArena::Handle dy = TensorArena::scratch().acquire(cout_ * cols);
  for (std::size_t oc = 0; oc < cout_; ++oc) {
    for (std::size_t b = 0; b < n; ++b) {
      const float* gorow = grad_output.data() + (b * cout_ + oc) * lout;
      std::memcpy(dy.data() + oc * cols + b * lout, gorow,
                  lout * sizeof(float));
      double gb = 0.0;
      for (std::size_t t = 0; t < lout; ++t) gb += gorow[t];
      bias_.grad[oc] += static_cast<float>(gb);
    }
  }
  TensorArena::Handle col = TensorArena::scratch().acquire(kc * cols);
  im2col(s, input_.data(), col.data());
  // dW += dY·colᵀ; dcol = Wᵀ·dY, scattered back onto the input.
  kernels::gemm_nt(cout_, cols, kc, dy.data(), col.data(),
                   weight_.grad.data(), kernels::Accumulate::kAdd);
  kernels::gemm_tn(cout_, kc, cols, weight_.value.data(), dy.data(),
                   col.data());
  Tensor grad_input(input_.shape());
  col2im(s, col.data(), grad_input.data());
  return grad_input;
}

std::vector<Parameter*> Conv1d::parameters() { return {&weight_, &bias_}; }

void Conv1d::set_trainable(bool trainable) noexcept {
  weight_.trainable = trainable;
  bias_.trainable = trainable;
}

void Conv1d::zero_init() noexcept {
  weight_.value.fill(0.0f);
  bias_.value.fill(0.0f);
}

}  // namespace repro::nn
