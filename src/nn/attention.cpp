#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/parallel/parallel_for.hpp"
#include "common/telemetry/trace.hpp"
#include "nn/arena.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/reshape.hpp"

namespace repro::nn {

SelfAttention1d::SelfAttention1d(std::size_t channels, Rng& rng,
                                 const std::string& name)
    : SelfAttention1d(
          channels, std::make_unique<Linear>(channels, channels, rng, true, name + ".q"),
          std::make_unique<Linear>(channels, channels, rng, true, name + ".k"),
          std::make_unique<Linear>(channels, channels, rng, true, name + ".v"),
          std::make_unique<Linear>(channels, channels, rng, true, name + ".o"),
          name) {}

SelfAttention1d::SelfAttention1d(std::size_t channels,
                                 std::unique_ptr<Module> proj_q,
                                 std::unique_ptr<Module> proj_k,
                                 std::unique_ptr<Module> proj_v,
                                 std::unique_ptr<Module> proj_out,
                                 const std::string& name)
    : channels_(channels),
      norm_(channels, name + ".norm"),
      q_(std::move(proj_q)),
      k_(std::move(proj_k)),
      v_(std::move(proj_v)),
      o_(std::move(proj_out)) {}

template <class Self>
Tensor SelfAttention1d::graph(Self& self, const Tensor& input) {
  REPRO_SPAN("nn.attention.forward");
  const std::size_t n = input.dim(0), l = input.dim(2);
  const std::size_t ch = self.channels_;
  // Pre-norm over channels, position-major.
  const Tensor rows = ncl_to_nlc(input);  // [N*L, C]
  const Tensor normed = self.norm_.forward(rows);
  Tensor q = self.q_->forward(normed);
  Tensor k = self.k_->forward(normed);
  Tensor v = self.v_->forward(normed);

  const float scale = 1.0f / std::sqrt(static_cast<float>(ch));
  TensorArena::Handle attn = TensorArena::scratch().acquire(n * l * l);
  Tensor ctx({n * l, ch});
  // One batch element per work item: scores and context are GEMMs over
  // that element's [L, C] slices (run inline on the worker with fixed
  // accumulation order), softmax is a scalar pass between them. No
  // zero-skip on attention weights: a == 0 must still propagate
  // 0 * inf = NaN from a poisoned value row.
  parallel::parallel_for(
      0, n, parallel::grain_for(l * l * ch),
      [&](std::size_t bb, std::size_t be) {
        for (std::size_t b = bb; b < be; ++b) {
          const float* qb = q.data() + b * l * ch;
          const float* kb = k.data() + b * l * ch;
          const float* vb = v.data() + b * l * ch;
          float* ab = attn.data() + b * l * l;
          kernels::gemm_nt(l, ch, l, qb, kb, ab);
          for (std::size_t i = 0; i < l; ++i) {
            float* arow = ab + i * l;
            float row_max = -1e30f;
            for (std::size_t j = 0; j < l; ++j) {
              arow[j] *= scale;
              row_max = std::max(row_max, arow[j]);
            }
            double denom = 0.0;
            for (std::size_t j = 0; j < l; ++j) {
              const float e = std::exp(arow[j] - row_max);
              arow[j] = e;
              denom += e;
            }
            for (std::size_t j = 0; j < l; ++j) {
              arow[j] = static_cast<float>(arow[j] / denom);
            }
          }
          kernels::gemm_nn(l, l, ch, ab, vb, ctx.data() + b * l * ch);
        }
      });
  Tensor out_rows = self.o_->forward(ctx);
  // Residual connection.
  out_rows.add(rows);
  if constexpr (!std::is_const_v<Self>) {
    self.q_rows_ = std::move(q);
    self.k_rows_ = std::move(k);
    self.v_rows_ = std::move(v);
    self.attn_ = Tensor({n, l, l});
    std::copy(attn.data(), attn.data() + n * l * l, self.attn_.data());
  }
  return nlc_to_ncl(out_rows, n, l);
}

Tensor SelfAttention1d::forward(const Tensor& input) const {
  return graph(*this, input);
}

Tensor SelfAttention1d::forward(const Tensor& input) {
  return graph(*this, input);
}

Tensor SelfAttention1d::backward(const Tensor& grad_output) {
  REPRO_SPAN("nn.attention.backward");
  const std::size_t n = grad_output.dim(0), l = grad_output.dim(2);
  Tensor grad_rows = ncl_to_nlc(grad_output);  // [N*L, C]
  // Residual: gradient flows both into o_ path and directly to input rows.
  Tensor grad_ctx = o_->backward(grad_rows);   // [N*L, C]

  Tensor grad_q(q_rows_.shape());
  Tensor grad_k(k_rows_.shape());
  Tensor grad_v(v_rows_.shape());
  const float scale = 1.0f / std::sqrt(static_cast<float>(channels_));
  const std::size_t ch = channels_;
  // One batch element per work item, mirroring the forward: the four
  // contractions are GEMMs over that element's [L, C] slices, and the
  // softmax backward is the one scalar pass, in place in dA. No
  // zero-skip: a == 0 must still propagate 0 * inf = NaN.
  parallel::parallel_for(
      0, n, parallel::grain_for(l * l * ch),
      [&](std::size_t bb, std::size_t be) {
        TensorArena::Handle dA_buf = TensorArena::scratch().acquire(l * l);
        float* dA = dA_buf.data();
        for (std::size_t b = bb; b < be; ++b) {
          const float* qb = q_rows_.data() + b * l * ch;
          const float* kb = k_rows_.data() + b * l * ch;
          const float* vb = v_rows_.data() + b * l * ch;
          const float* ab = attn_.data() + b * l * l;
          const float* gcb = grad_ctx.data() + b * l * ch;
          kernels::gemm_tn(l, l, ch, ab, gcb, grad_v.data() + b * l * ch);
          kernels::gemm_nt(l, ch, l, gcb, vb, dA);
          // dS_ij = A_ij * (dA_ij - sum_k dA_ik A_ik), times the score
          // scale (S_ij = scale * q_i . k_j).
          for (std::size_t i = 0; i < l; ++i) {
            const float* arow = ab + i * l;
            float* drow = dA + i * l;
            double dot = 0.0;
            for (std::size_t j = 0; j < l; ++j) {
              dot += static_cast<double>(drow[j]) * arow[j];
            }
            for (std::size_t j = 0; j < l; ++j) {
              drow[j] = arow[j] * (drow[j] - static_cast<float>(dot)) * scale;
            }
          }
          kernels::gemm_nn(l, l, ch, dA, kb, grad_q.data() + b * l * ch);
          kernels::gemm_tn(l, l, ch, dA, qb, grad_k.data() + b * l * ch);
        }
      });

  Tensor grad_normed = q_->backward(grad_q);
  grad_normed.add(k_->backward(grad_k));
  grad_normed.add(v_->backward(grad_v));
  Tensor grad_input_rows = norm_.backward(grad_normed);
  grad_input_rows.add(grad_rows);  // residual path
  return nlc_to_ncl(grad_input_rows, n, l);
}

std::vector<Parameter*> SelfAttention1d::parameters() {
  std::vector<Parameter*> params = norm_.parameters();
  for (Module* m : {q_.get(), k_.get(), v_.get(), o_.get()}) {
    for (Parameter* p : m->parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace repro::nn
