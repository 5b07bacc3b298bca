// Per-packet autoencoder: the "pre-trained autoencoder" stage of latent
// diffusion (Stable Diffusion's VAE, scaled down; see DESIGN.md §2).
//
// Each nprint packet row (1088 ternary features) is compressed to a small
// latent vector; the diffusion model then operates on the [latent, L]
// sequence instead of the raw [1088, L] image, "effectively balancing
// detail retention and complexity reduction" (§3.1). The encoder/decoder
// are shared across packet positions (weight tying over the packet axis).
#pragma once

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
#include "nprint/codec.hpp"

namespace repro::diffusion {

struct AutoencoderConfig {
  std::size_t input_dim = nprint::kBitsPerPacket;
  std::size_t hidden_dim = 160;
  std::size_t latent_dim = 16;

  /// Weight the reconstruction loss so each header region (TCP 480 /
  /// UDP 64 / ICMP 64 / IPv4 480 bits) contributes equally. Without
  /// this, the small UDP/ICMP regions are <7% of the plain MSE and the
  /// encoder sacrifices their port/type bits first — exactly the fields
  /// the downstream classifier needs.
  bool region_weighting = true;
};

class PacketAutoencoder {
 public:
  PacketAutoencoder(const AutoencoderConfig& config, Rng& rng);

  const AutoencoderConfig& config() const noexcept { return config_; }

  /// rows: [R, input_dim] -> [R, latent_dim]. The const overloads are
  /// the read-only forwards; the others are the training entries that
  /// record for backward (nn/module.hpp).
  nn::Tensor encode(const nn::Tensor& rows) const;
  nn::Tensor encode(const nn::Tensor& rows);
  /// latents: [R, latent_dim] -> [R, input_dim].
  nn::Tensor decode(const nn::Tensor& latents) const;
  nn::Tensor decode(const nn::Tensor& latents);

  /// One reconstruction-training step on a batch of rows; returns the MSE.
  float train_step(const nn::Tensor& rows, nn::Adam& optimizer);

  /// Trains on all rows for `epochs` passes with the given batch size;
  /// returns the final epoch's mean loss.
  float train(const nn::Tensor& rows, std::size_t epochs,
              std::size_t batch_size, float lr, Rng& rng);

  /// Mean reconstruction MSE over rows (no training).
  float reconstruction_loss(const nn::Tensor& rows) const;

  std::vector<nn::Parameter*> parameters();

  /// Encodes an nprint matrix to a [1, latent, L] tensor (and back).
  nn::Tensor encode_matrix(const nprint::Matrix& matrix) const;
  nprint::Matrix decode_matrix(const nn::Tensor& latent) const;

  /// Batched decode: [N, latent, L] -> N matrices through ONE decoder
  /// pass over all N*L packet rows (amortizes the per-call GEMM cost
  /// that dominates a row-wise decode loop).
  std::vector<nprint::Matrix> decode_matrices(const nn::Tensor& latents) const;

 private:
  /// The encoder and decoder graphs, written once for both overloads.
  template <class Self>
  static nn::Tensor encode_graph(Self& self, const nn::Tensor& rows);
  template <class Self>
  static nn::Tensor decode_graph(Self& self, const nn::Tensor& latents);

  /// Per-column loss weights (mean 1); all-ones when region_weighting is
  /// off or input_dim is not the nprint layout.
  std::vector<float> column_weights() const;

  AutoencoderConfig config_;
  std::vector<float> weights_;
  nn::Linear enc1_;
  nn::SiLU enc_act_;
  nn::Linear enc2_;
  nn::Linear dec1_;
  nn::SiLU dec_act_;
  nn::Linear dec2_;
};

}  // namespace repro::diffusion
