// Dense float tensor with row-major contiguous storage.
//
// The deep-learning substrate is deliberately minimal: fixed-topology
// networks with hand-written backward passes (no tape autograd), which
// keeps every gradient explicit and testable against finite differences
// (see tests/nn_gradcheck_test.cpp). Shapes used across the library:
// [N, D] for dense layers, [N, C, L] for 1-D convolutions over the packet
// axis of a flow image.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace repro::nn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::vector<std::size_t> shape, float fill);

  static Tensor zeros(std::vector<std::size_t> shape) {
    return Tensor(std::move(shape), 0.0f);
  }
  static Tensor full(std::vector<std::size_t> shape, float value) {
    return Tensor(std::move(shape), value);
  }

  const std::vector<std::size_t>& shape() const noexcept { return shape_; }
  std::size_t rank() const noexcept { return shape_.size(); }
  std::size_t size() const noexcept { return data_.size(); }
  std::size_t dim(std::size_t axis) const { return shape_.at(axis); }
  bool empty() const noexcept { return data_.empty(); }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  std::vector<float>& vec() noexcept { return data_; }
  const std::vector<float>& vec() const noexcept { return data_; }

  float& operator[](std::size_t i) noexcept { return data_[i]; }
  float operator[](std::size_t i) const noexcept { return data_[i]; }

  // Indexed access for the common ranks (debug-checked via at()).
  float& at2(std::size_t i, std::size_t j) noexcept {
    return data_[i * shape_[1] + j];
  }
  float at2(std::size_t i, std::size_t j) const noexcept {
    return data_[i * shape_[1] + j];
  }
  float& at3(std::size_t i, std::size_t j, std::size_t k) noexcept {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float at3(std::size_t i, std::size_t j, std::size_t k) const noexcept {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }

  /// Returns a copy with a new shape of equal element count.
  Tensor reshaped(std::vector<std::size_t> shape) const&;
  /// Rvalue overload: steals the data vector instead of deep-copying it,
  /// so `std::move(t).reshaped(...)` and reshapes of temporaries are
  /// allocation-free.
  Tensor reshaped(std::vector<std::size_t> shape) &&;
  /// Rebinds this tensor's shape in place (no data copy or move).
  void reshape_inplace(std::vector<std::size_t> shape);

  /// In-place element-wise helpers.
  void fill(float value) noexcept;
  void add(const Tensor& other);            // this += other
  void add_scaled(const Tensor& other, float s);  // this += s * other
  void scale(float s) noexcept;             // this *= s

  /// Reductions.
  float sum() const noexcept;
  float mean() const noexcept;
  float abs_max() const noexcept;
  float l2_norm() const noexcept;

  /// Throws std::invalid_argument unless shapes match exactly.
  void require_shape(const std::vector<std::size_t>& shape,
                     const char* what) const;

  std::string shape_string() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// y = a + b (same shape).
Tensor add(const Tensor& a, const Tensor& b);
/// y = a - b (same shape).
Tensor sub(const Tensor& a, const Tensor& b);
/// y = a * b element-wise (same shape).
Tensor mul(const Tensor& a, const Tensor& b);

/// C[N,M] = A[N,K] @ B[K,M]. The transposed shapes are the kernels'
/// gemm_nt / gemm_tn (nn/kernels/gemm.hpp).
Tensor matmul(const Tensor& a, const Tensor& b);

}  // namespace repro::nn
