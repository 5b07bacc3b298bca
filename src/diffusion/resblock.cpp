#include "diffusion/resblock.hpp"

namespace repro::diffusion {
namespace {

std::size_t pick_groups(std::size_t channels, std::size_t want) {
  std::size_t g = std::min(want, channels);
  while (g > 1 && channels % g != 0) --g;
  return g;
}

}  // namespace

ResBlock::ResBlock(std::size_t in_channels, std::size_t out_channels,
                   std::size_t temb_dim, std::size_t groups, Rng& rng,
                   const std::string& name)
    : cin_(in_channels),
      cout_(out_channels),
      norm1_(in_channels, pick_groups(in_channels, groups), name + ".norm1"),
      conv1_(in_channels, out_channels, 3, rng, 1, SIZE_MAX, name + ".conv1"),
      temb_proj_(temb_dim, out_channels, rng, true, name + ".temb"),
      norm2_(out_channels, pick_groups(out_channels, groups), name + ".norm2"),
      conv2_(out_channels, out_channels, 3, rng, 1, SIZE_MAX, name + ".conv2") {
  if (cin_ != cout_) {
    skip_ = std::make_unique<nn::Conv1d>(cin_, cout_, 1, rng, 1, 0,
                                         name + ".skip");
  }
}

template <class Self>
nn::Tensor ResBlock::graph(Self& self, const nn::Tensor& x,
                           const nn::Tensor& temb) {
  nn::Tensor h =
      self.conv1_.forward(self.act1_.forward(self.norm1_.forward(x)));
  // FiLM add: per-sample, per-channel bias from the embedding.
  const nn::Tensor tproj =
      self.temb_proj_.forward(self.temb_act_.forward(temb));  // [N, Cout]
  const std::size_t n = h.dim(0), l = h.dim(2), cout = self.cout_;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t c = 0; c < cout; ++c) {
      float* row = h.data() + (b * cout + c) * l;
      const float bias = tproj.at2(b, c);
      for (std::size_t t = 0; t < l; ++t) row[t] += bias;
    }
  }
  nn::Tensor out =
      self.conv2_.forward(self.act2_.forward(self.norm2_.forward(h)));
  if (self.skip_) {
    out.add(self.skip_->forward(x));
  } else {
    out.add(x);
  }
  return out;
}

nn::Tensor ResBlock::forward(const nn::Tensor& x,
                             const nn::Tensor& temb) const {
  return graph(*this, x, temb);
}

nn::Tensor ResBlock::forward(const nn::Tensor& x, const nn::Tensor& temb) {
  return graph(*this, x, temb);
}

nn::Tensor ResBlock::backward(const nn::Tensor& grad_out,
                              nn::Tensor& grad_temb) {
  const std::size_t n = grad_out.dim(0), l = grad_out.dim(2);
  // Through conv2 branch.
  nn::Tensor gh = norm2_.backward(act2_.backward(conv2_.backward(grad_out)));
  // FiLM add: channel-bias gradient reduces over L.
  nn::Tensor gproj({n, cout_});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t c = 0; c < cout_; ++c) {
      const float* row = gh.data() + (b * cout_ + c) * l;
      double acc = 0.0;
      for (std::size_t t = 0; t < l; ++t) acc += row[t];
      gproj.at2(b, c) = static_cast<float>(acc);
    }
  }
  grad_temb.add(temb_act_.backward(temb_proj_.backward(gproj)));
  nn::Tensor gx = norm1_.backward(act1_.backward(conv1_.backward(gh)));
  // Residual path.
  if (skip_) {
    gx.add(skip_->backward(grad_out));
  } else {
    gx.add(grad_out);
  }
  return gx;
}

std::vector<nn::Parameter*> ResBlock::parameters() {
  std::vector<nn::Parameter*> params;
  for (auto* p : norm1_.parameters()) params.push_back(p);
  for (auto* p : conv1_.parameters()) params.push_back(p);
  for (auto* p : temb_proj_.parameters()) params.push_back(p);
  for (auto* p : norm2_.parameters()) params.push_back(p);
  for (auto* p : conv2_.parameters()) params.push_back(p);
  if (skip_) {
    for (auto* p : skip_->parameters()) params.push_back(p);
  }
  return params;
}

void ResBlock::set_trainable(bool trainable) noexcept {
  norm1_.set_trainable(trainable);
  conv1_.set_trainable(trainable);
  temb_proj_.set_trainable(trainable);
  norm2_.set_trainable(trainable);
  conv2_.set_trainable(trainable);
  if (skip_) skip_->set_trainable(trainable);
}

}  // namespace repro::diffusion
