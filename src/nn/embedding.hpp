// Embedding table (word/class embeddings) and the sinusoidal timestep
// encoding used by diffusion models.
#pragma once

#include "common/rng.hpp"
#include "nn/module.hpp"

namespace repro::nn {

/// Lookup table [vocab, dim]. Forward consumes integer ids (cast to float
/// in a [N] tensor) and yields [N, dim]. Backward scatters gradients into
/// the rows selected by the last training forward.
class Embedding : public Module {
 public:
  Embedding(std::size_t vocab, std::size_t dim, Rng& rng,
            const std::string& name = "embedding");

  Tensor forward(const Tensor& ids) const override;
  Tensor forward(const Tensor& ids) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  std::size_t vocab() const noexcept { return vocab_; }
  std::size_t dim() const noexcept { return dim_; }
  Parameter& table() noexcept { return table_; }

 private:
  std::size_t vocab_, dim_;
  Parameter table_;
  std::vector<std::size_t> last_ids_;  // recorded for backward
};

/// Sinusoidal position/timestep encoding: out[2i] = sin(t / 10000^{2i/d}),
/// out[2i+1] = cos(...). `dim` must be even.
Tensor sinusoidal_embedding(const std::vector<float>& timesteps,
                            std::size_t dim);

}  // namespace repro::nn
