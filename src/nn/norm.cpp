#include "nn/norm.hpp"

#include <cmath>
#include <stdexcept>

namespace repro::nn {

GroupNorm::GroupNorm(std::size_t channels, std::size_t groups,
                     const std::string& name, float eps)
    : channels_(channels),
      groups_(groups),
      eps_(eps),
      gamma_(name + ".gamma", Tensor::full({channels}, 1.0f)),
      beta_(name + ".beta", Tensor::zeros({channels})) {
  if (groups == 0 || channels % groups != 0) {
    throw std::invalid_argument("GroupNorm: channels must divide by groups");
  }
}

Tensor GroupNorm::forward(const Tensor& input) const {
  return normalize(input, nullptr, nullptr);
}

Tensor GroupNorm::forward(const Tensor& input) {
  return normalize(input, &normalized_, &inv_std_);
}

Tensor GroupNorm::normalize(const Tensor& input, Tensor* normalized,
                            std::vector<float>* inv_std) const {
  if (input.rank() != 3 || input.dim(1) != channels_) {
    throw std::invalid_argument("GroupNorm::forward: bad input " +
                                input.shape_string());
  }
  const std::size_t n = input.dim(0), l = input.dim(2);
  const std::size_t cpg = channels_ / groups_;
  const std::size_t group_size = cpg * l;
  if (normalized != nullptr) *normalized = Tensor(input.shape());
  if (inv_std != nullptr) inv_std->assign(n * groups_, 0.0f);
  Tensor out(input.shape());
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t g = 0; g < groups_; ++g) {
      const std::size_t c0 = g * cpg;
      double sum = 0.0, sq = 0.0;
      for (std::size_t c = c0; c < c0 + cpg; ++c) {
        const float* row = input.data() + (b * channels_ + c) * l;
        for (std::size_t t = 0; t < l; ++t) {
          sum += row[t];
          sq += static_cast<double>(row[t]) * row[t];
        }
      }
      const double mean = sum / static_cast<double>(group_size);
      const double var = sq / static_cast<double>(group_size) - mean * mean;
      const float is = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      if (inv_std != nullptr) (*inv_std)[b * groups_ + g] = is;
      for (std::size_t c = c0; c < c0 + cpg; ++c) {
        const float* row = input.data() + (b * channels_ + c) * l;
        float* nrow = normalized != nullptr
                          ? normalized->data() + (b * channels_ + c) * l
                          : nullptr;
        float* orow = out.data() + (b * channels_ + c) * l;
        for (std::size_t t = 0; t < l; ++t) {
          const float xhat = (row[t] - static_cast<float>(mean)) * is;
          if (nrow != nullptr) nrow[t] = xhat;
          orow[t] = gamma_.value[c] * xhat + beta_.value[c];
        }
      }
    }
  }
  return out;
}

Tensor GroupNorm::backward(const Tensor& grad_output) {
  grad_output.require_shape(normalized_.shape(), "GroupNorm::backward");
  const std::size_t n = normalized_.dim(0), l = normalized_.dim(2);
  const std::size_t cpg = channels_ / groups_;
  const auto m = static_cast<double>(cpg * l);
  Tensor grad_input(normalized_.shape());
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t g = 0; g < groups_; ++g) {
      const std::size_t c0 = g * cpg;
      const float inv_std = inv_std_[b * groups_ + g];
      // dgamma/dbeta and the two reduction terms of the group-norm grad.
      double sum_gy = 0.0, sum_gy_xhat = 0.0;
      for (std::size_t c = c0; c < c0 + cpg; ++c) {
        const float* grow = grad_output.data() + (b * channels_ + c) * l;
        const float* nrow = normalized_.data() + (b * channels_ + c) * l;
        double dg = 0.0, db = 0.0;
        for (std::size_t t = 0; t < l; ++t) {
          dg += static_cast<double>(grow[t]) * nrow[t];
          db += grow[t];
          const double gy = static_cast<double>(grow[t]) * gamma_.value[c];
          sum_gy += gy;
          sum_gy_xhat += gy * nrow[t];
        }
        gamma_.grad[c] += static_cast<float>(dg);
        beta_.grad[c] += static_cast<float>(db);
      }
      for (std::size_t c = c0; c < c0 + cpg; ++c) {
        const float* grow = grad_output.data() + (b * channels_ + c) * l;
        const float* nrow = normalized_.data() + (b * channels_ + c) * l;
        float* irow = grad_input.data() + (b * channels_ + c) * l;
        for (std::size_t t = 0; t < l; ++t) {
          const double gy = static_cast<double>(grow[t]) * gamma_.value[c];
          irow[t] = static_cast<float>(
              inv_std * (gy - sum_gy / m - nrow[t] * sum_gy_xhat / m));
        }
      }
    }
  }
  return grad_input;
}

std::vector<Parameter*> GroupNorm::parameters() { return {&gamma_, &beta_}; }

void GroupNorm::set_trainable(bool trainable) noexcept {
  gamma_.trainable = trainable;
  beta_.trainable = trainable;
}

LayerNorm::LayerNorm(std::size_t dim, const std::string& name, float eps)
    : dim_(dim),
      eps_(eps),
      gamma_(name + ".gamma", Tensor::full({dim}, 1.0f)),
      beta_(name + ".beta", Tensor::zeros({dim})) {}

Tensor LayerNorm::forward(const Tensor& input) const {
  return normalize(input, nullptr, nullptr);
}

Tensor LayerNorm::forward(const Tensor& input) {
  return normalize(input, &normalized_, &inv_std_);
}

Tensor LayerNorm::normalize(const Tensor& input, Tensor* normalized,
                            std::vector<float>* inv_std) const {
  if (input.rank() < 1 || input.shape().back() != dim_) {
    throw std::invalid_argument("LayerNorm::forward: bad input " +
                                input.shape_string());
  }
  const std::size_t rows = input.size() / dim_;
  if (normalized != nullptr) *normalized = Tensor(input.shape());
  if (inv_std != nullptr) inv_std->assign(rows, 0.0f);
  Tensor out(input.shape());
  for (std::size_t r = 0; r < rows; ++r) {
    const float* x = input.data() + r * dim_;
    float* nrow =
        normalized != nullptr ? normalized->data() + r * dim_ : nullptr;
    float* orow = out.data() + r * dim_;
    double sum = 0.0, sq = 0.0;
    for (std::size_t j = 0; j < dim_; ++j) {
      sum += x[j];
      sq += static_cast<double>(x[j]) * x[j];
    }
    const double mean = sum / static_cast<double>(dim_);
    const double var = sq / static_cast<double>(dim_) - mean * mean;
    const float is = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    if (inv_std != nullptr) (*inv_std)[r] = is;
    for (std::size_t j = 0; j < dim_; ++j) {
      const float xhat = (x[j] - static_cast<float>(mean)) * is;
      if (nrow != nullptr) nrow[j] = xhat;
      orow[j] = gamma_.value[j] * xhat + beta_.value[j];
    }
  }
  return out;
}

Tensor LayerNorm::backward(const Tensor& grad_output) {
  grad_output.require_shape(normalized_.shape(), "LayerNorm::backward");
  const std::size_t rows = grad_output.size() / dim_;
  const auto m = static_cast<double>(dim_);
  Tensor grad_input(normalized_.shape());
  for (std::size_t r = 0; r < rows; ++r) {
    const float* grow = grad_output.data() + r * dim_;
    const float* nrow = normalized_.data() + r * dim_;
    float* irow = grad_input.data() + r * dim_;
    double sum_gy = 0.0, sum_gy_xhat = 0.0;
    for (std::size_t j = 0; j < dim_; ++j) {
      gamma_.grad[j] += grow[j] * nrow[j];
      beta_.grad[j] += grow[j];
      const double gy = static_cast<double>(grow[j]) * gamma_.value[j];
      sum_gy += gy;
      sum_gy_xhat += gy * nrow[j];
    }
    for (std::size_t j = 0; j < dim_; ++j) {
      const double gy = static_cast<double>(grow[j]) * gamma_.value[j];
      irow[j] = static_cast<float>(
          inv_std_[r] * (gy - sum_gy / m - nrow[j] * sum_gy_xhat / m));
    }
  }
  return grad_input;
}

std::vector<Parameter*> LayerNorm::parameters() { return {&gamma_, &beta_}; }

void LayerNorm::set_trainable(bool trainable) noexcept {
  gamma_.trainable = trainable;
  beta_.trainable = trainable;
}

}  // namespace repro::nn
