#include "nn/tensor.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "nn/kernels/gemm.hpp"

namespace repro::nn {
namespace {

std::size_t element_count(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(element_count(shape_), 0.0f) {}

Tensor::Tensor(std::vector<std::size_t> shape, float fill)
    : shape_(std::move(shape)), data_(element_count(shape_), fill) {}

Tensor Tensor::reshaped(std::vector<std::size_t> shape) const& {
  if (element_count(shape) != data_.size()) {
    throw std::invalid_argument("Tensor::reshaped: element count mismatch");
  }
  Tensor out;
  out.shape_ = std::move(shape);
  out.data_ = data_;
  return out;
}

Tensor Tensor::reshaped(std::vector<std::size_t> shape) && {
  reshape_inplace(std::move(shape));
  return std::move(*this);
}

void Tensor::reshape_inplace(std::vector<std::size_t> shape) {
  if (element_count(shape) != data_.size()) {
    throw std::invalid_argument(
        "Tensor::reshape_inplace: element count mismatch");
  }
  shape_ = std::move(shape);
}

void Tensor::fill(float value) noexcept {
  for (float& v : data_) v = value;
}

void Tensor::add(const Tensor& other) {
  require_shape(other.shape_, "Tensor::add");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::add_scaled(const Tensor& other, float s) {
  require_shape(other.shape_, "Tensor::add_scaled");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += s * other.data_[i];
  }
}

void Tensor::scale(float s) noexcept {
  for (float& v : data_) v *= s;
}

float Tensor::sum() const noexcept {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::mean() const noexcept {
  return data_.empty() ? 0.0f : sum() / static_cast<float>(data_.size());
}

float Tensor::abs_max() const noexcept {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

float Tensor::l2_norm() const noexcept {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

void Tensor::require_shape(const std::vector<std::size_t>& shape,
                           const char* what) const {
  if (shape_ != shape) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch");
  }
}

std::string Tensor::shape_string() const {
  std::string s = "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(shape_[i]);
  }
  return s + "]";
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.add(b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.add_scaled(b, -1.0f);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  a.require_shape(b.shape(), "mul");
  Tensor out = a;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] *= b[i];
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: incompatible shapes " +
                                a.shape_string() + " x " + b.shape_string());
  }
  const std::size_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  Tensor c({n, m});
  kernels::gemm_nn(n, k, m, a.data(), b.data(), c.data());
  return c;
}

}  // namespace repro::nn
