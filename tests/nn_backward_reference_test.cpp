// Conv1d and SelfAttention1d backward passes against direct loop nests,
// at the shapes the served UNet trains on (base 24 channels, latent 40,
// batch 8, 16 packets). The gradchecks run tiny shapes whose GEMMs all
// take the serial path; these are large enough for the kernel to split
// rows across the pool. The references below are per-element loop nests
// that share no code with the im2col + GEMM lowering, so a wrong
// transpose, stride or col2im offset shows up as an O(1) error, while a
// different order of the float sums stays within a relative 1e-4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel/thread_pool.hpp"
#include "common/rng.hpp"
#include "nn/attention.hpp"
#include "nn/conv1d.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "nn/reshape.hpp"

namespace repro::nn {
namespace {

constexpr float kRelTol = 1e-4f;

void randomize(Tensor& t, Rng& rng, float scale = 0.5f) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.gaussian(0.0, scale));
  }
}

/// |got - want| <= kRelTol * max(max |want|, floor), element by element.
/// `floor` sets the scale for a gradient that is analytically zero.
void expect_rel_close(const Tensor& got, const Tensor& want,
                      const std::string& what, float floor = 0.0f) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  const float bound = kRelTol * std::max(want.abs_max(), floor);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= bound)) {
      if (++bad <= 3) {
        ADD_FAILURE() << what << "[" << i << "]: " << got[i] << " vs "
                      << want[i] << " (bound " << bound << ")";
      }
    }
  }
  EXPECT_EQ(bad, 0u) << what;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Restores the pool's lane count when a test ends.
class LaneGuard {
 public:
  LaneGuard() : saved_(parallel::thread_count()) {}
  ~LaneGuard() { parallel::set_thread_count(saved_); }

 private:
  std::size_t saved_;
};

struct Grads {
  Tensor input;
  std::vector<Tensor> params;
};

/// Forward + backward of `module` on (x, g) with zeroed gradients.
Grads run_backward(Module& module, const Tensor& x, const Tensor& g) {
  module.forward(x);
  module.zero_grad();
  Grads out;
  out.input = module.backward(g);
  for (Parameter* p : module.parameters()) out.params.push_back(p->grad);
  return out;
}

// --- Conv1d ---------------------------------------------------------------

/// The direct Conv1d backward: for every (b, oc, t, ic, k) tap,
/// grad_input and grad_weight gain one product; bias sums each batch
/// element's row in double.
Grads reference_conv1d_backward(Conv1d& conv, const Tensor& x,
                                const Tensor& g, std::size_t stride,
                                std::size_t padding) {
  const Tensor& w = conv.weight().value;
  const std::size_t n = x.dim(0), cin = x.dim(1), lin = x.dim(2);
  const std::size_t cout = w.dim(0), kernel = w.dim(2), lout = g.dim(2);
  Grads out;
  out.input = Tensor(x.shape());
  Tensor gw(w.shape());
  Tensor gb({cout});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < cout; ++oc) {
      double bsum = 0.0;
      for (std::size_t t = 0; t < lout; ++t) {
        const float go = g.at3(b, oc, t);
        bsum += go;
        for (std::size_t ic = 0; ic < cin; ++ic) {
          for (std::size_t k = 0; k < kernel; ++k) {
            const std::ptrdiff_t pos =
                static_cast<std::ptrdiff_t>(t * stride + k) -
                static_cast<std::ptrdiff_t>(padding);
            if (pos < 0 || pos >= static_cast<std::ptrdiff_t>(lin)) continue;
            const auto p = static_cast<std::size_t>(pos);
            out.input.at3(b, ic, p) += go * w.at3(oc, ic, k);
            gw.at3(oc, ic, k) += go * x.at3(b, ic, p);
          }
        }
      }
      gb[oc] += static_cast<float>(bsum);
    }
  }
  out.params = {gw, gb};
  return out;
}

void check_conv1d(std::size_t cin, std::size_t cout, std::size_t stride,
                  std::uint64_t seed) {
  LaneGuard guard;
  const std::size_t kernel = 3, padding = 1, batch = 8, len = 16;
  Rng rng(seed);
  Conv1d conv(cin, cout, kernel, rng, stride, padding);
  randomize(conv.bias().value, rng);
  Tensor x({batch, cin, len});
  randomize(x, rng);
  Tensor g({batch, cout, conv.out_length(len)});
  randomize(g, rng, 1.0f);

  parallel::set_thread_count(1);
  const Grads serial = run_backward(conv, x, g);
  parallel::set_thread_count(4);
  const Grads lanes4 = run_backward(conv, x, g);
  const Grads want = reference_conv1d_backward(conv, x, g, stride, padding);

  const std::string shape = std::to_string(cin) + "->" +
                            std::to_string(cout) + " stride " +
                            std::to_string(stride);
  expect_rel_close(serial.input, want.input, shape + " grad_input");
  expect_rel_close(serial.params[0], want.params[0], shape + " grad_weight");
  expect_rel_close(serial.params[1], want.params[1], shape + " grad_bias");
  EXPECT_TRUE(bit_equal(serial.input, lanes4.input)) << shape;
  EXPECT_TRUE(bit_equal(serial.params[0], lanes4.params[0])) << shape;
  EXPECT_TRUE(bit_equal(serial.params[1], lanes4.params[1])) << shape;
}

TEST(BackwardReference, Conv1dIn40Out24Stride1) { check_conv1d(40, 24, 1, 1); }
TEST(BackwardReference, Conv1dIn24Out48Stride2) { check_conv1d(24, 48, 2, 2); }
TEST(BackwardReference, Conv1dIn48Out48Stride2) { check_conv1d(48, 48, 2, 3); }

// --- SelfAttention1d --------------------------------------------------------

/// The attention layer rebuilt from its public parts (pre-norm, four
/// projections, residual) with the score/context contractions and their
/// gradients written as direct loops.
class ReferenceAttention {
 public:
  ReferenceAttention(std::size_t ch, Rng& rng)
      : ch_(ch), q_(ch, ch, rng), k_(ch, ch, rng), v_(ch, ch, rng),
        o_(ch, ch, rng) {}

  /// Same order as SelfAttention1d::parameters().
  std::vector<Parameter*> parameters() {
    std::vector<Parameter*> params = norm_.parameters();
    for (Module* m : {static_cast<Module*>(&q_), static_cast<Module*>(&k_),
                      static_cast<Module*>(&v_), static_cast<Module*>(&o_)}) {
      for (Parameter* p : m->parameters()) params.push_back(p);
    }
    return params;
  }

  Grads run(const Tensor& x, const Tensor& g) {
    for (Parameter* p : parameters()) p->zero_grad();
    const std::size_t n = x.dim(0), l = x.dim(2);
    const Tensor rows = ncl_to_nlc(x);
    const Tensor normed = norm_.forward(rows);
    const Tensor q = q_.forward(normed), k = k_.forward(normed),
                 v = v_.forward(normed);
    const float scale = 1.0f / std::sqrt(static_cast<float>(ch_));
    Tensor attn({n, l, l});
    Tensor ctx({n * l, ch_});
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t i = 0; i < l; ++i) {
        double denom = 0.0;
        float row_max = -1e30f;
        for (std::size_t j = 0; j < l; ++j) {
          double s = 0.0;
          for (std::size_t c = 0; c < ch_; ++c) {
            s += static_cast<double>(q.at2(b * l + i, c)) * k.at2(b * l + j, c);
          }
          attn.at3(b, i, j) = static_cast<float>(s) * scale;
          row_max = std::max(row_max, attn.at3(b, i, j));
        }
        for (std::size_t j = 0; j < l; ++j) {
          attn.at3(b, i, j) = std::exp(attn.at3(b, i, j) - row_max);
          denom += attn.at3(b, i, j);
        }
        for (std::size_t j = 0; j < l; ++j) {
          attn.at3(b, i, j) = static_cast<float>(attn.at3(b, i, j) / denom);
          for (std::size_t c = 0; c < ch_; ++c) {
            ctx.at2(b * l + i, c) += attn.at3(b, i, j) * v.at2(b * l + j, c);
          }
        }
      }
    }
    o_.forward(ctx);

    const Tensor grad_rows = ncl_to_nlc(g);
    const Tensor grad_ctx = o_.backward(grad_rows);
    Tensor gq(q.shape()), gk(k.shape()), gv(v.shape());
    std::vector<float> dA(l);
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t i = 0; i < l; ++i) {
        const std::size_t qi = b * l + i;
        for (std::size_t j = 0; j < l; ++j) {
          const std::size_t kj = b * l + j;
          double d = 0.0;
          for (std::size_t c = 0; c < ch_; ++c) {
            d += static_cast<double>(grad_ctx.at2(qi, c)) * v.at2(kj, c);
            gv.at2(kj, c) += attn.at3(b, i, j) * grad_ctx.at2(qi, c);
          }
          dA[j] = static_cast<float>(d);
        }
        double dot = 0.0;
        for (std::size_t j = 0; j < l; ++j) {
          dot += static_cast<double>(dA[j]) * attn.at3(b, i, j);
        }
        for (std::size_t j = 0; j < l; ++j) {
          const std::size_t kj = b * l + j;
          const float ds =
              attn.at3(b, i, j) * (dA[j] - static_cast<float>(dot)) * scale;
          for (std::size_t c = 0; c < ch_; ++c) {
            gq.at2(qi, c) += ds * k.at2(kj, c);
            gk.at2(kj, c) += ds * q.at2(qi, c);
          }
        }
      }
    }
    Tensor grad_normed = q_.backward(gq);
    grad_normed.add(k_.backward(gk));
    grad_normed.add(v_.backward(gv));
    Tensor grad_input_rows = norm_.backward(grad_normed);
    grad_input_rows.add(grad_rows);
    Grads out;
    out.input = nlc_to_ncl(grad_input_rows, n, l);
    for (Parameter* p : parameters()) out.params.push_back(p->grad);
    return out;
  }

 private:
  std::size_t ch_;
  LayerNorm norm_{ch_};
  Linear q_, k_, v_, o_;
};

TEST(BackwardReference, SelfAttention48AtLength4) {
  LaneGuard guard;
  const std::size_t ch = 48, batch = 8, len = 4;
  Rng rng(4);
  SelfAttention1d attn(ch, rng);
  ReferenceAttention ref(ch, rng);
  const std::vector<Parameter*> params = attn.parameters();
  const std::vector<Parameter*> ref_params = ref.parameters();
  ASSERT_EQ(params.size(), ref_params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    randomize(params[i]->value, rng, 0.3f);
    ref_params[i]->value = params[i]->value;
  }
  Tensor x({batch, ch, len});
  randomize(x, rng);
  Tensor g({batch, ch, len});
  randomize(g, rng, 1.0f);

  parallel::set_thread_count(1);
  const Grads serial = run_backward(attn, x, g);
  parallel::set_thread_count(4);
  const Grads lanes4 = run_backward(attn, x, g);
  const Grads want = ref.run(x, g);

  expect_rel_close(serial.input, want.input, "grad_input");
  EXPECT_TRUE(bit_equal(serial.input, lanes4.input));
  // The key bias shifts every score of a query row by the same amount,
  // which the softmax ignores: its gradient is zero up to rounding, so
  // every tensor is held to the scale of the layer's gradients (>= 1).
  for (std::size_t i = 0; i < params.size(); ++i) {
    expect_rel_close(serial.params[i], want.params[i], params[i]->name, 1.0f);
    EXPECT_TRUE(bit_equal(serial.params[i], lanes4.params[i]))
        << params[i]->name;
  }
}

}  // namespace
}  // namespace repro::nn
