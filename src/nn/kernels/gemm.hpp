// Blocked, register-tiled GEMM kernels — the single compute core every
// matmul-shaped hot path (tensor matmul, Linear,
// LoRA, Conv1d-as-im2col, attention scores/context) routes through.
//
// Design (see DESIGN.md "Inference performance"):
//   * The B operand is packed once per call into zero-padded column
//     panels of kNr floats (k-major inside a panel), so the micro-kernel
//     streams B contiguously regardless of the caller's layout (normal,
//     transposed, or strided). Packing buffers come from the scratch
//     TensorArena and are reused across calls.
//   * The inner micro-kernel accumulates a kMr x kNr register tile with
//     fully unrolled row/column loops. Column lanes are independent, so
//     the compiler can vectorize across them without reassociating any
//     per-element sum.
//   * REPRO_SIMD_WIDTH (compile-time, default 1 = portable scalar code)
//     widens the micro-kernel's column lanes with GCC/Clang vector
//     extensions. Any width produces bit-identical results: lanes never
//     share an accumulator, and each C element is always summed in
//     ascending-k order.
//
// Determinism contract: for a fixed kernel configuration (kMr/kNr,
// REPRO_SIMD_WIDTH, compiler flags), every output element is the
// ascending-k sum of its products, combined with the destination value
// in one final store (kOverwrite) or add (kAdd). That order is
// independent of the thread count and of how rows are chunked across
// the pool, so results are bit-identical at any REPRO_THREADS.
#pragma once

#include <cstddef>

namespace repro::nn::kernels {

#ifndef REPRO_SIMD_WIDTH
#define REPRO_SIMD_WIDTH 1
#endif

/// Register-tile height (rows of C per micro-kernel invocation).
inline constexpr std::size_t kMr = 4;
/// Register-tile width (columns of C per packed B panel).
inline constexpr std::size_t kNr = 16;

static_assert(REPRO_SIMD_WIDTH >= 1 && kNr % REPRO_SIMD_WIDTH == 0,
              "REPRO_SIMD_WIDTH must divide the kNr panel width");

/// Whether the kernel writes C (kOverwrite) or accumulates into it
/// (kAdd — used to fold gradient accumulation into the GEMM itself).
enum class Accumulate { kOverwrite, kAdd };

/// Strided view of the left operand: element (i, p) of the logical
/// [M, K] matrix lives at data[i * row_stride + p * k_stride]. Covers
/// normal (row_stride = lda, k_stride = 1) and transposed
/// (row_stride = 1, k_stride = lda) access without copying A.
struct AView {
  const float* data;
  std::size_t row_stride;
  std::size_t k_stride;
};

/// Strided view of the right operand: element (p, j) of the logical
/// [K, N] matrix lives at data[p * k_stride + j * col_stride]. The
/// kernel packs this into panels, so any stride combination runs at the
/// same inner-loop speed.
struct BView {
  const float* data;
  std::size_t k_stride;
  std::size_t col_stride;
};

/// C[M, N] (row-major, leading dimension ldc) = or += A[M, K] * B[K, N].
/// C must not alias A or B. Parallelizes over row blocks of C through
/// the global thread pool; see the determinism contract above.
void gemm(std::size_t m, std::size_t n, std::size_t k, AView a, BView b,
          float* c, std::size_t ldc, Accumulate acc);

// --- Shape adapters for the three tensor-level products. ---

/// C[n, m] = A[n, k] * B[k, m] (both row-major).
inline void gemm_nn(std::size_t n, std::size_t k, std::size_t m,
                    const float* a, const float* b, float* c,
                    Accumulate acc = Accumulate::kOverwrite) {
  gemm(n, m, k, AView{a, k, 1}, BView{b, m, 1}, c, m, acc);
}

/// C[n, k] = A[n, m] * B[k, m]^T (dot-product shape; both row-major).
inline void gemm_nt(std::size_t n, std::size_t m, std::size_t k,
                    const float* a, const float* b, float* c,
                    Accumulate acc = Accumulate::kOverwrite) {
  gemm(n, k, m, AView{a, m, 1}, BView{b, 1, m}, c, k, acc);
}

/// C[k, m] = A[n, k]^T * B[n, m] (outer-product shape; both row-major).
inline void gemm_tn(std::size_t n, std::size_t k, std::size_t m,
                    const float* a, const float* b, float* c,
                    Accumulate acc = Accumulate::kOverwrite) {
  gemm(k, m, n, AView{a, 1, k}, BView{b, m, 1}, c, m, acc);
}

}  // namespace repro::nn::kernels
