#include "nn/embedding.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "nn/init.hpp"

namespace repro::nn {

Embedding::Embedding(std::size_t vocab, std::size_t dim, Rng& rng,
                     const std::string& name)
    : vocab_(vocab), dim_(dim), table_(name, Tensor({vocab, dim})) {
  normal_init(table_.value, 0.02f, rng);
}

Tensor Embedding::forward(const Tensor& ids) const {
  const std::size_t n = ids.size();
  Tensor out({n, dim_});
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::size_t>(ids[i]);
    if (id >= vocab_) {
      throw std::out_of_range("Embedding::forward: id out of range");
    }
    const float* row = table_.value.data() + id * dim_;
    float* orow = out.data() + i * dim_;
    for (std::size_t j = 0; j < dim_; ++j) orow[j] = row[j];
  }
  return out;
}

Tensor Embedding::forward(const Tensor& ids) {
  Tensor out = std::as_const(*this).forward(ids);
  last_ids_.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    last_ids_[i] = static_cast<std::size_t>(ids[i]);
  }
  return out;
}

Tensor Embedding::backward(const Tensor& grad_output) {
  grad_output.require_shape({last_ids_.size(), dim_}, "Embedding::backward");
  for (std::size_t i = 0; i < last_ids_.size(); ++i) {
    float* grow = table_.grad.data() + last_ids_[i] * dim_;
    const float* g = grad_output.data() + i * dim_;
    for (std::size_t j = 0; j < dim_; ++j) grow[j] += g[j];
  }
  // Ids are not differentiable; return an empty gradient.
  return Tensor({last_ids_.size()});
}

std::vector<Parameter*> Embedding::parameters() { return {&table_}; }

Tensor sinusoidal_embedding(const std::vector<float>& timesteps,
                            std::size_t dim) {
  if (dim % 2 != 0) {
    throw std::invalid_argument("sinusoidal_embedding: dim must be even");
  }
  const std::size_t n = timesteps.size();
  const std::size_t half = dim / 2;
  Tensor out({n, dim});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < half; ++j) {
      const double freq =
          std::exp(-std::log(10000.0) * static_cast<double>(j) /
                   static_cast<double>(half));
      const double angle = static_cast<double>(timesteps[i]) * freq;
      out[i * dim + 2 * j] = static_cast<float>(std::sin(angle));
      out[i * dim + 2 * j + 1] = static_cast<float>(std::cos(angle));
    }
  }
  return out;
}

}  // namespace repro::nn
