// Layout shuffles between the convolutional [N, C, L] layout and the
// position-major [N*L, C] layout dense layers consume. Both are copies;
// at the model sizes used here the copies are negligible next to the
// matmuls.
#pragma once

#include "nn/tensor.hpp"

namespace repro::nn {

/// [N, C, L] -> [N*L, C].
inline Tensor ncl_to_nlc(const Tensor& x) {
  const std::size_t n = x.dim(0), c = x.dim(1), l = x.dim(2);
  Tensor out({n * l, c});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* row = x.data() + (b * c + ch) * l;
      for (std::size_t t = 0; t < l; ++t) {
        out[(b * l + t) * c + ch] = row[t];
      }
    }
  }
  return out;
}

/// [N*L, C] -> [N, C, L].
inline Tensor nlc_to_ncl(const Tensor& x, std::size_t n, std::size_t l) {
  const std::size_t c = x.dim(1);
  Tensor out({n, c, l});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t t = 0; t < l; ++t) {
      const float* row = x.data() + (b * l + t) * c;
      for (std::size_t ch = 0; ch < c; ++ch) {
        out[(b * c + ch) * l + t] = row[ch];
      }
    }
  }
  return out;
}

}  // namespace repro::nn
