#pragma once
// Vectorized tiled GEMM backend (DESIGN.md §4i "Vectorized kernels").
//
// Drop-in alternative to the default kernels in gemm.hpp, selected at
// runtime via LS_CONV_IMPL=simd. Register tile Mr x Nr = 4x16: A is read
// unpacked through four raw row pointers (a strided element walk the
// microkernel absorbs), B is packed once per call into 16-column strips in
// the caller's scratch slot — except full-width nn strips, which are read
// directly from the operand. gemm_nt computes C^T so B streams
// k-contiguously and the writeback transposes; gemm_tn folds the A
// transpose into the row stride. The inner loop is written for the
// compiler's vectorizer (`#pragma omp simd` under -fopenmp-simd), with
// AVX2+FMA function-multi-versioned clones selected once by cpuid where
// the toolchain supports them (microkernel_isa()).
//
// Determinism contract (same as gemm.hpp): every output element is one
// flat ascending-k reduction with a single writeback; vector lanes run
// along output dimensions only, never across k. Tile and task boundaries
// are compile-time constants, and parallelism only partitions rows/columns
// of C — never k — so results are bit-identical for any thread count.
//
// Numerics vs the default kernels: those fold 4 k terms into one rounding
// chain per step, so simd and default outputs agree only to
// float tolerance (~5e-8*K relative; the parity suite in
// tests/nn/gemm_simd_test.cpp pins 1e-5 + 3e-7*K). Within the simd
// backend, the sparse variants are bit-exact against the dense variants on
// the same pruned weights (compared with ==): skipped work only ever
// removes contributions that are exact +/-0.0 from the same reduction
// chain.
//
// Sparse panel skipping: dead (producer, consumer) blocks skip BOTH the
// packing and the compute of the covered panel region. Packing covers the
// union of live producer spans across consumers — exactly the rows
// im2col_masked fills — so the gemm_nn_sparse B operand may contain
// garbage in rows whose whole producer panel is dead for every consumer;
// those rows are never read (not even at unroll boundaries, unlike the
// scalar kernel).

#include <cstddef>

#include "nn/gemm.hpp"

namespace ls::nn::simd {

/// True when the microkernel was compiled with `#pragma omp simd` active
/// (-fopenmp-simd found). The packed kernels are correct either way; the
/// runtime dispatch (default_backend) falls back to the scalar backend
/// when the pragma is unavailable, honoring the "no silent slow path"
/// rule for LS_CONV_IMPL=simd.
bool vectorized();

/// The instruction set the microkernel dispatches to at runtime: "avx2+fma"
/// when the cpuid-selected clones are in use, "portable" for the baseline
/// build target. Benches record it so perf gates only bind where the vector
/// clones actually run.
const char* microkernel_isa();

/// Backend selection shared by Conv2D and FullyConnected.
enum class GemmBackend { kScalar, kSimd };

/// Resolves LS_CONV_IMPL once: "simd" selects kSimd (when vectorized()),
/// anything else — including "naive", which only affects the conv loop
/// nest — selects kScalar.
GemmBackend default_backend();

// Entry points mirror ls::nn::gemm exactly; see gemm.hpp for the operand
// and BlockMask conventions.

/// C(MxN) = A(MxK) * B(KxN)   [+= when accumulate]
void gemm_nn(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel = false);

/// C(MxN) = A^T * B where A is stored (KxM).
void gemm_tn(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel = false);

/// C(MxN) = A * B^T where B is stored (NxK).
void gemm_nt(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel = false);

/// Block-sparse gemm_nn: A = weights, rows of C partitioned by
/// mask.out_bounds (consumers), reduction by mask.k_bounds (producers).
void gemm_nn_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel,
                    const gemm::BlockMask& mask);

/// Block-sparse gemm_nt: B = weights, columns of C partitioned by
/// mask.out_bounds (consumers), reduction by mask.k_bounds (producers).
void gemm_nt_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel,
                    const gemm::BlockMask& mask);

/// Block-sparse gemm_tn: B = weights (KxN), the reduction dimension K is
/// the consumer partition (mask.out_bounds over K) and columns of C are
/// producer panels (mask.k_bounds over N).
void gemm_tn_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel,
                    const gemm::BlockMask& mask);

}  // namespace ls::nn::simd
