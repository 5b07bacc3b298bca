// GEMM kernel layer (src/nn/kernels/gemm.hpp): every shape adapter —
// gemm_nn (tensor matmul), gemm_nt and gemm_tn — checked against a naive
// double-accumulation reference over odd sizes that exercise the kMr row
// tails and kNr panel tails, plus the strided-view, accumulate-mode,
// IEEE-special (0 * inf must stay NaN) and arena-reuse contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "nn/arena.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/tensor.hpp"

namespace repro::nn {
namespace {

std::vector<float> random_vec(std::size_t size, Rng& rng) {
  std::vector<float> v(size);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

/// Naive reference: C[i,j] (+)= sum_p A(i,p) * B(p,j) with double
/// accumulation, against arbitrary strides.
void ref_gemm(std::size_t m, std::size_t n, std::size_t k, kernels::AView a,
              kernels::BView b, std::vector<float>& c, std::size_t ldc,
              kernels::Accumulate acc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        sum += static_cast<double>(a.data[i * a.row_stride + p * a.k_stride]) *
               static_cast<double>(b.data[p * b.k_stride + j * b.col_stride]);
      }
      float& dst = c[i * ldc + j];
      dst = (acc == kernels::Accumulate::kAdd ? dst : 0.0f) +
            static_cast<float>(sum);
    }
  }
}

void expect_close(const std::vector<float>& got, const std::vector<float>& want,
                  const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-3f) << what << " at " << i;
  }
}

// Sizes straddle the kMr = 4 row tiles (1..5) and kNr = 16 panels
// (15/16/17), with odd k so nothing divides evenly.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 15, 16, 17, 33};

TEST(Kernels, GemmNnMatchesReferenceOverTails) {
  Rng rng(7);
  for (std::size_t m : kSizes) {
    for (std::size_t n : {std::size_t{1}, std::size_t{15}, std::size_t{16},
                          std::size_t{17}, std::size_t{40}}) {
      const std::size_t k = 13;
      const auto a = random_vec(m * k, rng);
      const auto b = random_vec(k * n, rng);
      std::vector<float> got(m * n, 0.5f), want(m * n, 0.5f);
      kernels::gemm_nn(m, k, n, a.data(), b.data(), got.data(),
                       kernels::Accumulate::kOverwrite);
      ref_gemm(m, n, k, {a.data(), k, 1}, {b.data(), n, 1}, want, n,
               kernels::Accumulate::kOverwrite);
      expect_close(got, want, "gemm_nn");
    }
  }
}

TEST(Kernels, GemmNtAndTnMatchReference) {
  Rng rng(11);
  for (std::size_t n : {std::size_t{3}, std::size_t{17}}) {
    for (std::size_t k : {std::size_t{5}, std::size_t{19}}) {
      const std::size_t d = 21;  // shared inner dimension
      const auto a = random_vec(n * d, rng);
      const auto b = random_vec(k * d, rng);
      // nt: C[n,k] = A[n,d] * B[k,d]^T
      std::vector<float> got(n * k), want(n * k);
      kernels::gemm_nt(n, d, k, a.data(), b.data(), got.data(),
                       kernels::Accumulate::kOverwrite);
      ref_gemm(n, k, d, {a.data(), d, 1}, {b.data(), 1, d}, want, k,
               kernels::Accumulate::kOverwrite);
      expect_close(got, want, "gemm_nt");
      // tn: C[d,k] = A2[n,d]^T * B2[n,k]
      const auto b2 = random_vec(n * k, rng);
      std::vector<float> got2(d * k), want2(d * k);
      kernels::gemm_tn(n, d, k, a.data(), b2.data(), got2.data(),
                       kernels::Accumulate::kOverwrite);
      ref_gemm(d, k, n, {a.data(), 1, d}, {b2.data(), k, 1}, want2, k,
               kernels::Accumulate::kOverwrite);
      expect_close(got2, want2, "gemm_tn");
    }
  }
}

TEST(Kernels, AccumulateAddFoldsIntoDestination) {
  Rng rng(13);
  const std::size_t m = 6, k = 9, n = 18;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> got(m * n, 2.0f), want(m * n, 2.0f);
  kernels::gemm_nn(m, k, n, a.data(), b.data(), got.data(),
                   kernels::Accumulate::kAdd);
  ref_gemm(m, n, k, {a.data(), k, 1}, {b.data(), n, 1}, want, n,
           kernels::Accumulate::kAdd);
  expect_close(got, want, "gemm_nn kAdd");
}

TEST(Kernels, StridedViewsAndWideLdc) {
  Rng rng(17);
  const std::size_t m = 5, k = 7, n = 19, ldc = 32;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> got(m * ldc, 0.0f), want(m * ldc, 0.0f);
  // A transposed in memory ([k, m], k_stride = m), C with padding cols.
  std::vector<float> at(k * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
  }
  const kernels::AView av{at.data(), 1, m};
  const kernels::BView bv{b.data(), n, 1};
  kernels::gemm(m, n, k, av, bv, got.data(), ldc,
                kernels::Accumulate::kOverwrite);
  ref_gemm(m, n, k, av, bv, want, ldc, kernels::Accumulate::kOverwrite);
  expect_close(got, want, "strided gemm");
  // Padding columns beyond n must be untouched (still zero).
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = n; j < ldc; ++j) {
      EXPECT_EQ(got[i * ldc + j], 0.0f) << "ldc padding clobbered";
    }
  }
}

TEST(Kernels, DegenerateDimensions) {
  std::vector<float> a(8, 1.0f), b(8, 1.0f), c(4, 3.0f);
  // k == 0, kOverwrite: rows must be zeroed.
  kernels::gemm_nn(2, 0, 2, a.data(), b.data(), c.data(),
                   kernels::Accumulate::kOverwrite);
  for (float x : c) EXPECT_EQ(x, 0.0f);
  // k == 0, kAdd: destination untouched.
  std::vector<float> c2(4, 3.0f);
  kernels::gemm_nn(2, 0, 2, a.data(), b.data(), c2.data(),
                   kernels::Accumulate::kAdd);
  for (float x : c2) EXPECT_EQ(x, 3.0f);
  // m == 0 / n == 0: no-ops, must not crash.
  kernels::gemm_nn(0, 4, 2, a.data(), b.data(), c.data(),
                   kernels::Accumulate::kOverwrite);
  kernels::gemm_nn(2, 4, 0, a.data(), b.data(), c.data(),
                   kernels::Accumulate::kOverwrite);
}

// Regression for the zero-skip bug: the old matmul and A^T-B product skipped
// a == 0.0f products, silently dropping 0 * inf = NaN and turning
// exploded activations into plausible-looking numbers.
TEST(Kernels, ZeroTimesInfPropagatesNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  {
    Tensor a({1, 2});
    a[0] = 0.0f;
    a[1] = 1.0f;
    Tensor b({2, 1});
    b[0] = inf;
    b[1] = 1.0f;
    const Tensor c = matmul(a, b);
    EXPECT_TRUE(std::isnan(c[0])) << "matmul dropped 0 * inf";
  }
  {
    Tensor a({2, 1});
    a[0] = 0.0f;
    a[1] = 1.0f;
    Tensor b({2, 1});
    b[0] = inf;
    b[1] = 1.0f;
    float c = 0.0f;  // [1, 1] = sum over the 2 rows of a^T b
    kernels::gemm_tn(2, 1, 1, a.data(), b.data(), &c);
    EXPECT_TRUE(std::isnan(c)) << "gemm_tn dropped 0 * inf";
  }
  {
    Tensor a({1, 2});
    a[0] = 0.0f;
    a[1] = 1.0f;
    Tensor b({1, 2});
    b[0] = qnan;
    b[1] = 1.0f;
    float c = 0.0f;  // [1, 1] = a b^T
    kernels::gemm_nt(1, 2, 1, a.data(), b.data(), &c);
    EXPECT_TRUE(std::isnan(c)) << "gemm_nt dropped 0 * NaN";
  }
}

TEST(Kernels, MatmulShapeMismatchStillThrows) {
  Tensor a({2, 3});
  Tensor b({4, 5});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  Tensor one({3});
  EXPECT_THROW(matmul(one, b), std::invalid_argument);
}

TEST(Kernels, ArenaReusesBuffersAcrossCalls) {
  TensorArena arena;
  {
    TensorArena::Handle h = arena.acquire(64);
    ASSERT_TRUE(h);
    EXPECT_EQ(h.size(), 64u);
    h.data()[0] = 1.0f;
  }
  const auto after_first = arena.stats();
  EXPECT_EQ(after_first.allocs, 1u);
  EXPECT_EQ(after_first.free_buffers, 1u);
  // Same-or-smaller request must reuse, not allocate.
  for (int i = 0; i < 5; ++i) {
    TensorArena::Handle h = arena.acquire(32);
    EXPECT_TRUE(h);
  }
  const auto after = arena.stats();
  EXPECT_EQ(after.allocs, 1u);
  EXPECT_EQ(after.reuses, 5u);
  EXPECT_GT(after.reuses, after.allocs)
      << "steady-state acquires must come from the free list";
  arena.trim();
  EXPECT_EQ(arena.stats().free_buffers, 0u);
}

TEST(Kernels, RepeatedGemmHitsArenaFreeList) {
  TensorArena& arena = TensorArena::scratch();
  Rng rng(23);
  const std::size_t m = 8, k = 24, n = 24;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> c(m * n);
  kernels::gemm_nn(m, k, n, a.data(), b.data(), c.data(),
                   kernels::Accumulate::kOverwrite);  // warm the free list
  const auto before = arena.stats();
  for (int i = 0; i < 10; ++i) {
    kernels::gemm_nn(m, k, n, a.data(), b.data(), c.data(),
                     kernels::Accumulate::kOverwrite);
  }
  const auto after = arena.stats();
  EXPECT_EQ(after.allocs, before.allocs)
      << "steady-state gemm must not allocate";
  EXPECT_GE(after.reuses, before.reuses + 10);
}

}  // namespace
}  // namespace repro::nn
