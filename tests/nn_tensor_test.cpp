#include "nn/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "nn/kernels/gemm.hpp"
#include "nn/reshape.hpp"

namespace repro::nn {
namespace {

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(1), 3u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FullFill) {
  Tensor t = Tensor::full({2, 2}, 3.5f);
  EXPECT_EQ(t[3], 3.5f);
  t.fill(-1.0f);
  EXPECT_EQ(t[0], -1.0f);
}

TEST(Tensor, IndexedAccess) {
  Tensor t({2, 3});
  t.at2(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  Tensor u({2, 3, 4});
  u.at3(1, 2, 3) = 9.0f;
  EXPECT_EQ(u[23], 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3});
  for (std::size_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_EQ(r[5], 5.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, RvalueReshapedStealsStorage) {
  Tensor t({2, 3});
  for (std::size_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  const float* before = t.data();
  const Tensor r = std::move(t).reshaped({6});
  // The rvalue overload must move the buffer, not deep-copy it.
  EXPECT_EQ(r.data(), before);
  EXPECT_EQ(r.rank(), 1u);
  EXPECT_EQ(r[5], 5.0f);
}

TEST(Tensor, ReshapeInplace) {
  Tensor t({2, 3});
  for (std::size_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  const float* before = t.data();
  t.reshape_inplace({3, 2});
  EXPECT_EQ(t.data(), before);
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t.at2(2, 1), 5.0f);
  EXPECT_THROW(t.reshape_inplace({7}), std::invalid_argument);
}

TEST(Tensor, ArithmeticHelpers) {
  Tensor a = Tensor::full({3}, 2.0f);
  Tensor b = Tensor::full({3}, 5.0f);
  a.add(b);
  EXPECT_EQ(a[0], 7.0f);
  a.add_scaled(b, -0.2f);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
  a.scale(0.5f);
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  EXPECT_THROW(a.add(Tensor({4})), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t({4});
  t[0] = 1.0f;
  t[1] = -5.0f;
  t[2] = 2.0f;
  t[3] = 2.0f;
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 5.0f);
  EXPECT_FLOAT_EQ(t.l2_norm(), std::sqrt(34.0f));
}

TEST(Tensor, MatmulKnownValues) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  for (std::size_t i = 0; i < 6; ++i) a[i] = static_cast<float>(i + 1);
  for (std::size_t i = 0; i < 6; ++i) b[i] = static_cast<float>(i + 7);
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at2(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at2(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 1), 154.0f);
}

TEST(Tensor, MatmulTransposedVariantsAgree) {
  Tensor a({3, 4});
  Tensor b({4, 5});
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i % 7) - 3.0f;
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(i % 5) - 2.0f;
  const Tensor c = matmul(a, b);

  // gemm_nt(a, b^T stored) == matmul(a, b)
  Tensor bt({5, 4});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) bt.at2(j, i) = b.at2(i, j);
  }
  Tensor c2({3, 5});
  kernels::gemm_nt(3, 4, 5, a.data(), bt.data(), c2.data());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c2[i], c[i], 1e-5);
  }

  // gemm_tn(a, a b) == a^T (a b), checked against an explicit transpose.
  Tensor at({4, 3});
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) at.at2(j, i) = a.at2(i, j);
  }
  Tensor c3({4, 5});
  kernels::gemm_tn(3, 4, 5, a.data(), c.data(), c3.data());
  const Tensor c3_ref = matmul(at, c);
  for (std::size_t i = 0; i < c3.size(); ++i) {
    EXPECT_NEAR(c3[i], c3_ref[i], 1e-4);
  }
}

TEST(Tensor, MatmulShapeErrors) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({2, 3})), std::invalid_argument);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a = Tensor::full({2}, 3.0f);
  Tensor b = Tensor::full({2}, 2.0f);
  EXPECT_FLOAT_EQ(add(a, b)[0], 5.0f);
  EXPECT_FLOAT_EQ(sub(a, b)[0], 1.0f);
  EXPECT_FLOAT_EQ(mul(a, b)[0], 6.0f);
}

TEST(Reshape, NclNlcInverse) {
  Tensor x({2, 3, 4});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  const Tensor rows = ncl_to_nlc(x);
  EXPECT_EQ(rows.dim(0), 8u);
  EXPECT_EQ(rows.dim(1), 3u);
  // Position (n=1, l=2) channel 1 == x[1, 1, 2].
  EXPECT_EQ(rows.at2(1 * 4 + 2, 1), x.at3(1, 1, 2));
  const Tensor back = nlc_to_ncl(rows, 2, 4);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(back[i], x[i]);
  }
}

}  // namespace
}  // namespace repro::nn
