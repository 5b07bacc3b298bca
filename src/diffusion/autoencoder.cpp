#include "diffusion/autoencoder.hpp"

#include <algorithm>
#include <utility>

#include "common/telemetry/trace.hpp"
#include "nn/loss.hpp"

namespace repro::diffusion {

PacketAutoencoder::PacketAutoencoder(const AutoencoderConfig& config, Rng& rng)
    : config_(config),
      weights_(column_weights()),
      enc1_(config.input_dim, config.hidden_dim, rng, true, "ae.enc1"),
      enc2_(config.hidden_dim, config.latent_dim, rng, true, "ae.enc2"),
      dec1_(config.latent_dim, config.hidden_dim, rng, true, "ae.dec1"),
      dec2_(config.hidden_dim, config.input_dim, rng, true, "ae.dec2") {}

std::vector<float> PacketAutoencoder::column_weights() const {
  std::vector<float> weights(config_.input_dim, 1.0f);
  if (!config_.region_weighting ||
      config_.input_dim != nprint::kBitsPerPacket) {
    return weights;
  }
  // Equal total weight per header *field* (option areas count as one
  // field per 32-bit word): under a plain MSE, a 6-bit field like DSCP
  // contributes 0.6% of the loss and is the first thing a narrow
  // bottleneck sacrifices, yet such small fields (DSCP, TTL, protocol,
  // flags) carry most of the class signal. Weights are normalized to
  // mean 1 so loss magnitudes stay comparable.
  const auto& spans = nprint::field_spans();
  const float per_span = static_cast<float>(nprint::kBitsPerPacket) /
                         static_cast<float>(spans.size());
  for (const auto& span : spans) {
    const float w = per_span / static_cast<float>(span.bits);
    for (std::size_t i = 0; i < span.bits; ++i) {
      weights[span.offset + i] = w;
    }
  }
  return weights;
}

template <class Self>
nn::Tensor PacketAutoencoder::encode_graph(Self& self,
                                           const nn::Tensor& rows) {
  return self.enc2_.forward(self.enc_act_.forward(self.enc1_.forward(rows)));
}

template <class Self>
nn::Tensor PacketAutoencoder::decode_graph(Self& self,
                                           const nn::Tensor& latents) {
  return self.dec2_.forward(
      self.dec_act_.forward(self.dec1_.forward(latents)));
}

nn::Tensor PacketAutoencoder::encode(const nn::Tensor& rows) const {
  return encode_graph(*this, rows);
}

nn::Tensor PacketAutoencoder::encode(const nn::Tensor& rows) {
  return encode_graph(*this, rows);
}

nn::Tensor PacketAutoencoder::decode(const nn::Tensor& latents) const {
  return decode_graph(*this, latents);
}

nn::Tensor PacketAutoencoder::decode(const nn::Tensor& latents) {
  return decode_graph(*this, latents);
}

float PacketAutoencoder::train_step(const nn::Tensor& rows,
                                    nn::Adam& optimizer) {
  for (nn::Parameter* p : parameters()) p->zero_grad();
  nn::Tensor recon = decode(encode(rows));
  // Column-weighted MSE: loss = mean(w_j * (recon - x)^2).
  const std::size_t n = rows.dim(0), d = rows.dim(1);
  nn::Tensor grad(rows.shape());
  double loss = 0.0;
  {
    REPRO_SPAN("diffusion.ae.loss");
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        const float diff = recon.at2(i, j) - rows.at2(i, j);
        const float w = weights_[j];
        loss += static_cast<double>(w) * diff * diff;
        grad.at2(i, j) = 2.0f * w * diff / static_cast<float>(n * d);
      }
    }
  }
  nn::Tensor g = dec1_.backward(dec_act_.backward(dec2_.backward(grad)));
  enc1_.backward(enc_act_.backward(enc2_.backward(g)));
  optimizer.step();
  return static_cast<float>(loss / static_cast<double>(n * d));
}

float PacketAutoencoder::train(const nn::Tensor& rows, std::size_t epochs,
                               std::size_t batch_size, float lr, Rng& rng) {
  REPRO_SPAN("diffusion.ae.train");
  const std::size_t n = rows.dim(0);
  const std::size_t d = rows.dim(1);
  nn::Adam::Config cfg;
  cfg.lr = lr;
  nn::Adam optimizer(parameters(), cfg);
  float last_epoch_loss = 0.0f;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const auto perm = rng.permutation(n);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += batch_size) {
      const std::size_t count = std::min(batch_size, n - start);
      nn::Tensor batch({count, d});
      for (std::size_t i = 0; i < count; ++i) {
        const float* src = rows.data() + perm[start + i] * d;
        std::copy(src, src + d, batch.data() + i * d);
      }
      epoch_loss += train_step(batch, optimizer);
      ++batches;
    }
    last_epoch_loss = static_cast<float>(
        epoch_loss / static_cast<double>(std::max<std::size_t>(batches, 1)));
    telemetry::count("diffusion.ae.epochs");
    telemetry::observe("diffusion.ae.epoch_loss", last_epoch_loss);
  }
  return last_epoch_loss;
}

float PacketAutoencoder::reconstruction_loss(const nn::Tensor& rows) const {
  nn::Tensor recon = decode(encode(rows));
  nn::Tensor grad;
  return nn::mse_loss(recon, rows, grad);
}

std::vector<nn::Parameter*> PacketAutoencoder::parameters() {
  std::vector<nn::Parameter*> params;
  for (nn::Linear* layer : {&enc1_, &enc2_, &dec1_, &dec2_}) {
    for (nn::Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

nn::Tensor PacketAutoencoder::encode_matrix(
    const nprint::Matrix& matrix) const {
  REPRO_SPAN("diffusion.ae.encode_matrix");
  const std::size_t l = matrix.rows();
  nn::Tensor rows({l, config_.input_dim});
  std::copy(matrix.data().begin(), matrix.data().end(), rows.data());
  nn::Tensor latents = encode(rows);  // [L, latent]
  nn::Tensor out({1, config_.latent_dim, l});
  for (std::size_t t = 0; t < l; ++t) {
    for (std::size_t c = 0; c < config_.latent_dim; ++c) {
      out.at3(0, c, t) = latents.at2(t, c);
    }
  }
  return out;
}

nprint::Matrix PacketAutoencoder::decode_matrix(
    const nn::Tensor& latent) const {
  return std::move(decode_matrices(latent).front());
}

std::vector<nprint::Matrix> PacketAutoencoder::decode_matrices(
    const nn::Tensor& latents) const {
  REPRO_SPAN("diffusion.ae.decode_matrix");
  const std::size_t n = latents.dim(0);
  const std::size_t l = latents.dim(2);
  nn::Tensor rows({n * l, config_.latent_dim});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t t = 0; t < l; ++t) {
      for (std::size_t c = 0; c < config_.latent_dim; ++c) {
        rows.at2(b * l + t, c) = latents.at3(b, c, t);
      }
    }
  }
  nn::Tensor recon = decode(rows);  // [N*L, input_dim]
  std::vector<nprint::Matrix> out;
  out.reserve(n);
  const std::size_t per = l * config_.input_dim;
  for (std::size_t b = 0; b < n; ++b) {
    nprint::Matrix matrix(l);
    std::copy(recon.data() + b * per, recon.data() + (b + 1) * per,
              matrix.data().begin());
    out.push_back(std::move(matrix));
  }
  return out;
}

}  // namespace repro::diffusion
