#include "diffusion/controlnet.hpp"

namespace repro::diffusion {

ControlNetBranch::ControlNetBranch(const UNetConfig& config, Rng& rng)
    : config_(config),
      time_mlp1_(config.temb_dim, config.temb_dim, rng, true, "ctrl.time1"),
      time_mlp2_(config.temb_dim, config.temb_dim, rng, true, "ctrl.time2"),
      class_embedding_(config.num_classes + 1, config.temb_dim, rng,
                       "ctrl.class_embedding"),
      hint_conv1_(config.hint_channels, config.base_channels, 3, rng, 1,
                  SIZE_MAX, "ctrl.hint1"),
      hint_conv2_(config.base_channels, config.base_channels, 3, rng, 1,
                  SIZE_MAX, "ctrl.hint2"),
      conv_in_(config.in_channels, config.base_channels, 3, rng, 1, SIZE_MAX,
               "ctrl.conv_in"),
      res_d1_(config.base_channels, config.base_channels, config.temb_dim,
              config.groups, rng, "ctrl.res_d1"),
      down1_(config.base_channels, config.base_channels * 2, 3, rng, 2,
             SIZE_MAX, "ctrl.down1"),
      res_d2_(config.base_channels * 2, config.base_channels * 2,
              config.temb_dim, config.groups, rng, "ctrl.res_d2"),
      down2_(config.base_channels * 2, config.base_channels * 2, 3, rng, 2,
             SIZE_MAX, "ctrl.down2"),
      res_m_(config.base_channels * 2, config.base_channels * 2,
             config.temb_dim, config.groups, rng, "ctrl.res_m"),
      zero1_(config.base_channels, config.base_channels, 1, rng, 1, 0,
             "ctrl.zero1"),
      zero2_(config.base_channels * 2, config.base_channels * 2, 1, rng, 1, 0,
             "ctrl.zero2"),
      zero_m_(config.base_channels * 2, config.base_channels * 2, 1, rng, 1,
              0, "ctrl.zero_m") {
  // The defining ControlNet property: fusion starts as a strict no-op.
  zero1_.zero_init();
  zero2_.zero_init();
  zero_m_.zero_init();
}

template <class Self>
ControlResiduals ControlNetBranch::graph(Self& self, const nn::Tensor& x,
                                         const std::vector<float>& timesteps,
                                         const std::vector<int>& class_ids,
                                         const nn::Tensor& hint) {
  const nn::Tensor sin_emb =
      nn::sinusoidal_embedding(timesteps, self.config_.temb_dim);
  nn::Tensor temb = self.time_mlp2_.forward(
      self.time_act_.forward(self.time_mlp1_.forward(sin_emb)));
  nn::Tensor ids({class_ids.size()});
  for (std::size_t i = 0; i < class_ids.size(); ++i) {
    ids[i] = static_cast<float>(class_ids[i]);
  }
  temb.add(self.class_embedding_.forward(ids));

  nn::Tensor h = self.conv_in_.forward(x);
  h.add(self.hint_conv2_.forward(
      self.hint_act_.forward(self.hint_conv1_.forward(hint))));
  nn::Tensor d1 = self.res_d1_.forward(h, temb);
  nn::Tensor d2 = self.res_d2_.forward(self.down1_.forward(d1), temb);
  nn::Tensor m = self.res_m_.forward(self.down2_.forward(d2), temb);

  ControlResiduals out;
  out.skip1 = self.zero1_.forward(d1);
  out.skip2 = self.zero2_.forward(d2);
  out.mid = self.zero_m_.forward(m);
  return out;
}

ControlResiduals ControlNetBranch::forward(const nn::Tensor& x,
                                           const std::vector<float>& timesteps,
                                           const std::vector<int>& class_ids,
                                           const nn::Tensor& hint) const {
  return graph(*this, x, timesteps, class_ids, hint);
}

ControlResiduals ControlNetBranch::forward(const nn::Tensor& x,
                                           const std::vector<float>& timesteps,
                                           const std::vector<int>& class_ids,
                                           const nn::Tensor& hint) {
  return graph(*this, x, timesteps, class_ids, hint);
}

void ControlNetBranch::backward(const ControlResiduals& grad_residuals) {
  nn::Tensor grad_temb({grad_residuals.mid.dim(0), config_.temb_dim});

  nn::Tensor gm = zero_m_.backward(grad_residuals.mid);
  nn::Tensor gd2 = down2_.backward(res_m_.backward(gm, grad_temb));
  gd2.add(zero2_.backward(grad_residuals.skip2));
  nn::Tensor gd1 = down1_.backward(res_d2_.backward(gd2, grad_temb));
  gd1.add(zero1_.backward(grad_residuals.skip1));
  nn::Tensor gh = res_d1_.backward(gd1, grad_temb);
  conv_in_.backward(gh);
  hint_conv1_.backward(hint_act_.backward(hint_conv2_.backward(gh)));

  class_embedding_.backward(grad_temb);
  time_mlp1_.backward(time_act_.backward(time_mlp2_.backward(grad_temb)));
}

std::vector<nn::Parameter*> ControlNetBranch::parameters() {
  std::vector<nn::Parameter*> params;
  auto append = [&params](std::vector<nn::Parameter*> more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  append(time_mlp1_.parameters());
  append(time_mlp2_.parameters());
  append(class_embedding_.parameters());
  append(hint_conv1_.parameters());
  append(hint_conv2_.parameters());
  append(conv_in_.parameters());
  append(res_d1_.parameters());
  append(down1_.parameters());
  append(res_d2_.parameters());
  append(down2_.parameters());
  append(res_m_.parameters());
  append(zero1_.parameters());
  append(zero2_.parameters());
  append(zero_m_.parameters());
  return params;
}

void ControlNetBranch::zero_grad() {
  for (nn::Parameter* p : parameters()) p->zero_grad();
}

nn::Tensor protocol_hint(const net::Flow& flow, std::size_t packets) {
  nn::Tensor hint({1, kHintChannels, packets});
  const net::IpProto dominant =
      flow.packets.empty() ? net::IpProto::kTcp : flow.dominant_protocol();
  for (std::size_t t = 0; t < packets; ++t) {
    const net::IpProto proto =
        t < flow.packets.size() ? flow.packets[t].ip.protocol : dominant;
    std::size_t channel = 0;
    switch (proto) {
      case net::IpProto::kTcp:
        channel = 0;
        break;
      case net::IpProto::kUdp:
        channel = 1;
        break;
      case net::IpProto::kIcmp:
        channel = 2;
        break;
    }
    hint.at3(0, channel, t) = 1.0f;
  }
  return hint;
}

}  // namespace repro::diffusion
