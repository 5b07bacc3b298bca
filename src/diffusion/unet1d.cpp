#include "diffusion/unet1d.hpp"

#include <stdexcept>

#include "nn/lora.hpp"

namespace repro::diffusion {
namespace {

std::unique_ptr<nn::Module> make_proj(std::size_t channels, std::size_t rank,
                                      float alpha, Rng& rng,
                                      const std::string& name) {
  auto base = std::make_unique<nn::Linear>(channels, channels, rng, true, name);
  if (rank == 0) return base;
  return std::make_unique<nn::LoraLinear>(std::move(base), rank, alpha, rng,
                                          name + ".lora");
}

std::unique_ptr<nn::SelfAttention1d> make_attention(const UNetConfig& c,
                                                    Rng& rng) {
  const std::size_t ch = c.base_channels * 2;
  return std::make_unique<nn::SelfAttention1d>(
      ch, make_proj(ch, c.lora_rank, c.lora_alpha, rng, "unet.attn.q"),
      make_proj(ch, c.lora_rank, c.lora_alpha, rng, "unet.attn.k"),
      make_proj(ch, c.lora_rank, c.lora_alpha, rng, "unet.attn.v"),
      make_proj(ch, c.lora_rank, c.lora_alpha, rng, "unet.attn.o"),
      "unet.attn");
}

}  // namespace

UNet1d::UNet1d(const UNetConfig& config, Rng& rng)
    : config_(config),
      time_mlp1_(config.temb_dim, config.temb_dim, rng, true, "unet.time1"),
      time_mlp2_(config.temb_dim, config.temb_dim, rng, true, "unet.time2"),
      class_embedding_(config.num_classes + 1, config.temb_dim, rng,
                       "unet.class_embedding"),
      conv_in_(config.in_channels, config.base_channels, 3, rng, 1, SIZE_MAX,
               "unet.conv_in"),
      res_d1_(config.base_channels, config.base_channels, config.temb_dim,
              config.groups, rng, "unet.res_d1"),
      down1_(config.base_channels, config.base_channels * 2, 3, rng, 2,
             SIZE_MAX, "unet.down1"),
      res_d2_(config.base_channels * 2, config.base_channels * 2,
              config.temb_dim, config.groups, rng, "unet.res_d2"),
      down2_(config.base_channels * 2, config.base_channels * 2, 3, rng, 2,
             SIZE_MAX, "unet.down2"),
      res_m1_(config.base_channels * 2, config.base_channels * 2,
              config.temb_dim, config.groups, rng, "unet.res_m1"),
      attention_(make_attention(config, rng)),
      res_m2_(config.base_channels * 2, config.base_channels * 2,
              config.temb_dim, config.groups, rng, "unet.res_m2"),
      up_conv2_(config.base_channels * 2, config.base_channels * 2, 3, rng, 1,
                SIZE_MAX, "unet.up_conv2"),
      res_u2_(config.base_channels * 4, config.base_channels * 2,
              config.temb_dim, config.groups, rng, "unet.res_u2"),
      up_conv1_(config.base_channels * 2, config.base_channels, 3, rng, 1,
                SIZE_MAX, "unet.up_conv1"),
      res_u1_(config.base_channels * 2, config.base_channels, config.temb_dim,
              config.groups, rng, "unet.res_u1"),
      norm_out_(config.base_channels,
                std::min<std::size_t>(config.groups, config.base_channels),
                "unet.norm_out"),
      conv_out_(config.base_channels, config.in_channels, 3, rng, 1, SIZE_MAX,
                "unet.conv_out") {}

template <class Self>
nn::Tensor UNet1d::embed(Self& self, const std::vector<float>& timesteps,
                         const std::vector<int>& class_ids) {
  const nn::Tensor sin_emb =
      nn::sinusoidal_embedding(timesteps, self.config_.temb_dim);
  nn::Tensor temb = self.time_mlp2_.forward(
      self.time_act_.forward(self.time_mlp1_.forward(sin_emb)));
  nn::Tensor ids({class_ids.size()});
  for (std::size_t i = 0; i < class_ids.size(); ++i) {
    ids[i] = static_cast<float>(class_ids[i]);
  }
  temb.add(self.class_embedding_.forward(ids));
  return temb;
}

void UNet1d::embed_backward(const nn::Tensor& grad_temb) {
  class_embedding_.backward(grad_temb);
  time_mlp1_.backward(
      time_act_.backward(time_mlp2_.backward(grad_temb)));
}

template <class Self>
nn::Tensor UNet1d::graph(Self& self, const nn::Tensor& x,
                         const std::vector<float>& timesteps,
                         const std::vector<int>& class_ids,
                         const ControlResiduals* control) {
  if (x.rank() != 3 || x.dim(1) != self.config_.in_channels) {
    throw std::invalid_argument("UNet1d::forward: bad input " +
                                x.shape_string());
  }
  if (x.dim(2) % 4 != 0) {
    throw std::invalid_argument("UNet1d::forward: L must be divisible by 4");
  }
  const nn::Tensor temb = embed(self, timesteps, class_ids);

  nn::Tensor h = self.conv_in_.forward(x);
  nn::Tensor d1 = self.res_d1_.forward(h, temb);
  nn::Tensor skip1 = d1;
  if (control) skip1.add(control->skip1);

  nn::Tensor d2 = self.res_d2_.forward(self.down1_.forward(d1), temb);
  nn::Tensor skip2 = d2;
  if (control) skip2.add(control->skip2);

  nn::Tensor m = self.res_m1_.forward(self.down2_.forward(d2), temb);
  m = self.attention_->forward(m);
  m = self.res_m2_.forward(m, temb);
  if (control) m.add(control->mid);

  nn::Tensor u2 = self.up_conv2_.forward(upsample2x(m));
  nn::Tensor cat2 = concat_channels(u2, skip2);
  nn::Tensor r2 = self.res_u2_.forward(cat2, temb);

  nn::Tensor u1 = self.up_conv1_.forward(upsample2x(r2));
  nn::Tensor cat1 = concat_channels(u1, skip1);
  nn::Tensor r1 = self.res_u1_.forward(cat1, temb);

  return self.conv_out_.forward(
      self.act_out_.forward(self.norm_out_.forward(r1)));
}

nn::Tensor UNet1d::forward(const nn::Tensor& x,
                           const std::vector<float>& timesteps,
                           const std::vector<int>& class_ids,
                           const ControlResiduals* control) const {
  return graph(*this, x, timesteps, class_ids, control);
}

nn::Tensor UNet1d::forward(const nn::Tensor& x,
                           const std::vector<float>& timesteps,
                           const std::vector<int>& class_ids,
                           const ControlResiduals* control) {
  return graph(*this, x, timesteps, class_ids, control);
}

nn::Tensor UNet1d::backward(const nn::Tensor& grad_eps,
                            ControlResiduals* grad_control) {
  const std::size_t n = grad_eps.dim(0), l = grad_eps.dim(2);
  nn::Tensor grad_temb({n, config_.temb_dim});

  nn::Tensor g =
      norm_out_.backward(act_out_.backward(conv_out_.backward(grad_eps)));
  nn::Tensor gcat1 = res_u1_.backward(g, grad_temb);
  nn::Tensor gu1(nn::Tensor({n, config_.base_channels, l}));
  nn::Tensor gskip1(nn::Tensor({n, config_.base_channels, l}));
  split_channels(gcat1, config_.base_channels, gu1, gskip1);
  nn::Tensor gr2 = upsample2x_backward(up_conv1_.backward(gu1));

  nn::Tensor gcat2 = res_u2_.backward(gr2, grad_temb);
  const std::size_t c2 = config_.base_channels * 2;
  nn::Tensor gu2({n, c2, l / 2});
  nn::Tensor gskip2({n, c2, l / 2});
  split_channels(gcat2, c2, gu2, gskip2);
  nn::Tensor gm = upsample2x_backward(up_conv2_.backward(gu2));

  if (grad_control) grad_control->mid = gm;
  gm = res_m2_.backward(gm, grad_temb);
  gm = attention_->backward(gm);
  nn::Tensor gd2_in = res_m1_.backward(gm, grad_temb);
  nn::Tensor gd2 = down2_.backward(gd2_in);
  gd2.add(gskip2);  // skip2 fed both the decoder concat and down2's input
  if (grad_control) grad_control->skip2 = gskip2;

  nn::Tensor gd1_in = res_d2_.backward(gd2, grad_temb);
  nn::Tensor gd1 = down1_.backward(gd1_in);
  gd1.add(gskip1);
  if (grad_control) grad_control->skip1 = gskip1;

  nn::Tensor gh = res_d1_.backward(gd1, grad_temb);
  nn::Tensor gx = conv_in_.backward(gh);

  embed_backward(grad_temb);
  return gx;
}

std::vector<nn::Parameter*> UNet1d::parameters() {
  std::vector<nn::Parameter*> params;
  auto append = [&params](std::vector<nn::Parameter*> more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  append(time_mlp1_.parameters());
  append(time_mlp2_.parameters());
  append(class_embedding_.parameters());
  append(conv_in_.parameters());
  append(res_d1_.parameters());
  append(down1_.parameters());
  append(res_d2_.parameters());
  append(down2_.parameters());
  append(res_m1_.parameters());
  append(attention_->parameters());
  append(res_m2_.parameters());
  append(up_conv2_.parameters());
  append(res_u2_.parameters());
  append(up_conv1_.parameters());
  append(res_u1_.parameters());
  append(norm_out_.parameters());
  append(conv_out_.parameters());
  return params;
}

std::vector<nn::Parameter*> UNet1d::lora_parameters() {
  std::vector<nn::Parameter*> params;
  for (nn::Parameter* p : attention_->parameters()) {
    // LoRA adapters carry ".A" / ".B" suffixes from LoraLinear.
    if (p->name.size() >= 2 &&
        (p->name.rfind(".A") == p->name.size() - 2 ||
         p->name.rfind(".B") == p->name.size() - 2)) {
      params.push_back(p);
    }
  }
  return params;
}

void UNet1d::freeze_base() noexcept {
  for (nn::Parameter* p : parameters()) p->trainable = false;
  for (nn::Parameter* p : lora_parameters()) p->trainable = true;
  // The class ("word") embedding table stays trainable: the paper's
  // add-on model extends coverage "by allowing the flexible addition of
  // new classes via word embeddings" (§3.1), so new class rows must be
  // learnable while the backbone is frozen.
  class_embedding_.table().trainable = true;
}

void UNet1d::unfreeze_all() noexcept {
  for (nn::Parameter* p : parameters()) p->trainable = true;
}

void UNet1d::zero_grad() {
  for (nn::Parameter* p : parameters()) p->zero_grad();
}

std::size_t UNet1d::parameter_count() {
  std::size_t n = 0;
  for (nn::Parameter* p : parameters()) n += p->value.size();
  return n;
}

nn::Tensor upsample2x(const nn::Tensor& x) {
  const std::size_t n = x.dim(0), c = x.dim(1), l = x.dim(2);
  nn::Tensor out({n, c, l * 2});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* in_row = x.data() + (b * c + ch) * l;
      float* out_row = out.data() + (b * c + ch) * l * 2;
      for (std::size_t t = 0; t < l; ++t) {
        out_row[2 * t] = in_row[t];
        out_row[2 * t + 1] = in_row[t];
      }
    }
  }
  return out;
}

nn::Tensor upsample2x_backward(const nn::Tensor& grad) {
  const std::size_t n = grad.dim(0), c = grad.dim(1), l2 = grad.dim(2);
  const std::size_t l = l2 / 2;
  nn::Tensor out({n, c, l});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* grow = grad.data() + (b * c + ch) * l2;
      float* orow = out.data() + (b * c + ch) * l;
      for (std::size_t t = 0; t < l; ++t) {
        orow[t] = grow[2 * t] + grow[2 * t + 1];
      }
    }
  }
  return out;
}

nn::Tensor concat_channels(const nn::Tensor& a, const nn::Tensor& b) {
  const std::size_t n = a.dim(0), ca = a.dim(1), cb = b.dim(1), l = a.dim(2);
  if (b.dim(0) != n || b.dim(2) != l) {
    throw std::invalid_argument("concat_channels: shape mismatch");
  }
  nn::Tensor out({n, ca + cb, l});
  for (std::size_t bt = 0; bt < n; ++bt) {
    for (std::size_t c = 0; c < ca; ++c) {
      const float* src = a.data() + (bt * ca + c) * l;
      float* dst = out.data() + (bt * (ca + cb) + c) * l;
      for (std::size_t t = 0; t < l; ++t) dst[t] = src[t];
    }
    for (std::size_t c = 0; c < cb; ++c) {
      const float* src = b.data() + (bt * cb + c) * l;
      float* dst = out.data() + (bt * (ca + cb) + ca + c) * l;
      for (std::size_t t = 0; t < l; ++t) dst[t] = src[t];
    }
  }
  return out;
}

void split_channels(const nn::Tensor& grad, std::size_t ca, nn::Tensor& ga,
                    nn::Tensor& gb) {
  const std::size_t n = grad.dim(0), ctot = grad.dim(1), l = grad.dim(2);
  const std::size_t cb = ctot - ca;
  ga = nn::Tensor({n, ca, l});
  gb = nn::Tensor({n, cb, l});
  for (std::size_t bt = 0; bt < n; ++bt) {
    for (std::size_t c = 0; c < ca; ++c) {
      const float* src = grad.data() + (bt * ctot + c) * l;
      float* dst = ga.data() + (bt * ca + c) * l;
      for (std::size_t t = 0; t < l; ++t) dst[t] = src[t];
    }
    for (std::size_t c = 0; c < cb; ++c) {
      const float* src = grad.data() + (bt * ctot + ca + c) * l;
      float* dst = gb.data() + (bt * cb + c) * l;
      for (std::size_t t = 0; t < l; ++t) dst[t] = src[t];
    }
  }
}

}  // namespace repro::diffusion
