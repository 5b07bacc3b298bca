#include "nn/conv1d.hpp"

#include <cstring>
#include <utility>

#include "common/parallel/parallel_for.hpp"
#include "common/telemetry/trace.hpp"
#include "nn/arena.hpp"
#include "nn/init.hpp"
#include "nn/kernels/gemm.hpp"

namespace repro::nn {

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
  const std::size_t n = input.dim(0), lin = input.dim(2);
  const std::size_t lout = out_length(lin);
  const std::size_t kc = cin_ * kernel_;
  Tensor out({n, cout_, lout});
  // im2col + GEMM over the WHOLE batch: every batch element's window
  // matrix is lowered into one [cin*kernel, n*lout] column panel
  // (zero-padded at the borders, in arena scratch, one column block per
  // batch element), then a single GEMM computes all output channels for
  // all batch elements at once. One kernel call instead of n amortizes
  // the per-call pack/dispatch cost that dominates the network's small
  // convolutions, and the boundary branch runs once per panel element
  // instead of inside the O(cout * cin * kernel * lout) loop. Each
  // output element is still the same ascending-k accumulation, so the
  // result is bit-identical to the per-batch form.
  const std::size_t cols = n * lout;
  TensorArena::Handle col = TensorArena::scratch().acquire(kc * cols);
  float* colp = col.data();
  for (std::size_t b = 0; b < n; ++b) {
    const float* in_b = input.data() + b * cin_ * lin;
    for (std::size_t ic = 0; ic < cin_; ++ic) {
      const float* irow = in_b + ic * lin;
      for (std::size_t k = 0; k < kernel_; ++k) {
        float* crow = colp + (ic * kernel_ + k) * cols + b * lout;
        const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(k) -
                                   static_cast<std::ptrdiff_t>(padding_);
        for (std::size_t t = 0; t < lout; ++t) {
          const std::ptrdiff_t pos =
              static_cast<std::ptrdiff_t>(t * stride_) + off;
          crow[t] = (pos >= 0 && pos < static_cast<std::ptrdiff_t>(lin))
                        ? irow[static_cast<std::size_t>(pos)]
                        : 0.0f;
        }
      }
    }
  }
  // C buffer [cout, n*lout]: rows seeded with the bias, GEMM adds the
  // products, then rows scatter back to the [n, cout, lout] layout.
  TensorArena::Handle cbuf = TensorArena::scratch().acquire(cout_ * cols);
  float* cp = cbuf.data();
  for (std::size_t oc = 0; oc < cout_; ++oc) {
    const float bv = bias_.value[oc];
    float* crow = cp + oc * cols;
    for (std::size_t t = 0; t < cols; ++t) crow[t] = bv;
  }
  kernels::gemm_nn(cout_, kc, cols, weight_.value.data(), colp, cp,
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
  const std::size_t n = input_.dim(0), lin = input_.dim(2);
  const std::size_t lout = out_length(lin);
  grad_output.require_shape({n, cout_, lout}, "Conv1d::backward");
  Tensor grad_input(input_.shape());
  // Two passes with disjoint write sets. Pass 1: grad_input, one batch
  // element per chunk item (the serial oc/t/ic/k accumulation order is
  // preserved within each batch element).
  const std::size_t pair_ops = lout * cin_ * kernel_;
  parallel::parallel_for(
      0, n, parallel::grain_for(cout_ * pair_ops),
      [&](std::size_t bb, std::size_t be) {
        for (std::size_t b = bb; b < be; ++b) {
          for (std::size_t oc = 0; oc < cout_; ++oc) {
            const float* gorow = grad_output.data() + (b * cout_ + oc) * lout;
            const float* w = weight_.value.data() + oc * cin_ * kernel_;
            for (std::size_t t = 0; t < lout; ++t) {
              // No zero-skip: g == 0 must still propagate 0 * inf = NaN.
              const float g = gorow[t];
              const std::ptrdiff_t start =
                  static_cast<std::ptrdiff_t>(t * stride_) -
                  static_cast<std::ptrdiff_t>(padding_);
              for (std::size_t ic = 0; ic < cin_; ++ic) {
                float* girow = grad_input.data() + (b * cin_ + ic) * lin;
                const float* wrow = w + ic * kernel_;
                for (std::size_t k = 0; k < kernel_; ++k) {
                  const std::ptrdiff_t pos =
                      start + static_cast<std::ptrdiff_t>(k);
                  if (pos < 0 || pos >= static_cast<std::ptrdiff_t>(lin)) {
                    continue;
                  }
                  girow[static_cast<std::size_t>(pos)] += g * wrow[k];
                }
              }
            }
          }
        }
      });
  // Pass 2: weight and bias gradients, one out-channel per chunk item;
  // batches accumulate in ascending order exactly as the serial loop
  // did (b outer), so gradients stay bit-identical.
  parallel::parallel_for(
      0, cout_, parallel::grain_for(n * pair_ops),
      [&](std::size_t ob, std::size_t oe) {
        for (std::size_t oc = ob; oc < oe; ++oc) {
          float* gw = weight_.grad.data() + oc * cin_ * kernel_;
          for (std::size_t b = 0; b < n; ++b) {
            const float* gorow = grad_output.data() + (b * cout_ + oc) * lout;
            double gb = 0.0;
            for (std::size_t t = 0; t < lout; ++t) {
              const float g = gorow[t];
              gb += g;
              const std::ptrdiff_t start =
                  static_cast<std::ptrdiff_t>(t * stride_) -
                  static_cast<std::ptrdiff_t>(padding_);
              for (std::size_t ic = 0; ic < cin_; ++ic) {
                const float* irow = input_.data() + (b * cin_ + ic) * lin;
                float* gwrow = gw + ic * kernel_;
                for (std::size_t k = 0; k < kernel_; ++k) {
                  const std::ptrdiff_t pos =
                      start + static_cast<std::ptrdiff_t>(k);
                  if (pos < 0 || pos >= static_cast<std::ptrdiff_t>(lin)) {
                    continue;
                  }
                  gwrow[k] += g * irow[static_cast<std::size_t>(pos)];
                }
              }
            }
            bias_.grad[oc] += static_cast<float>(gb);
          }
        }
      });
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
