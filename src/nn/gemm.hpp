#pragma once
// Register-tiled GEMM kernels + im2col/im2row packing for the conv and FC
// paths (DESIGN.md "Performance architecture" and §4i). These are the
// repo's only GEMM kernels.
//
// All three variants share the determinism contract the parity and
// partitioned-inference bit-exactness suites rely on: for every output
// element C[i][j] the reduction over k runs in ascending k order with a
// fixed grouping, independent of tiling and of how many threads the pool
// splits the work across. Parallelism only ever partitions rows and
// columns of C, never the k dimension, so a given (shape, input) pair
// produces bit-identical output for any thread count.
//
// Leading dimensions are element strides of the row-major operands, as in
// BLAS. `accumulate == false` overwrites C, `true` adds into it.
//
// The kernels are built three times — the portable x86-64 baseline, AVX2
// and AVX-512F, each on its own register width — and each entry point runs
// the widest clone the host supports, picked once by cpuid (kernel_isa()).
// The clones compute every output element with the same operations in the
// same order and gemm.cpp is compiled without FP contraction, so every
// host produces the portable build's bits (DESIGN.md "Bit-semantics
// contract").

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ls::nn::gemm {

/// The instruction set the entry points dispatch to, chosen once by cpuid:
/// "avx512f", "avx2" or "portable". Benches record it so a gate on the
/// clones' speed only binds where they run.
const char* kernel_isa();

namespace testing {
/// While `on`, every entry point in this header runs the portable clone
/// instead of the cpuid-selected one, process-wide. Tests use it to pin
/// both builds to the same bits; bench_kernel_micro times the portable
/// build with it. Flip it only while no GEMM is running.
void use_portable_kernels(bool on);
}  // namespace testing

/// C(MxN) = A(MxK) * B(KxN)   [+= when accumulate]
void gemm_nn(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel = false);

/// C(MxN) = A^T * B where A is stored (KxM): C[i][j] += sum_k A[k][i]*B[k][j]
void gemm_tn(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel = false);

/// C(MxN) = A * B^T where B is stored (NxK): C[i][j] += dot(A[i][:], B[j][:])
void gemm_nt(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel = false);

// ---------------------------------------------------------------------------
// Block-sparse variants (DESIGN.md "Sparse execution").
//
// The weight operand of each variant is partitioned into a parts x parts
// grid of (producer panel, consumer panel) blocks; zero[p * parts + c] != 0
// declares block (p, c) all-zero *in memory* — the kernels trust the caller
// (nn::BlockSparsity scans and caches the bitmap). Work that only touches
// all-zero weights is skipped.
//
// Bit-exactness contract: the sparse kernels replicate the dense kernels'
// per-element accumulation structure (ascending k, the same absolute
// 4-aligned groups) and only skip a group when every k in it lies in panels
// pruned for that element's consumer. A skipped group's contribution in
// the dense kernel is a sum of products with exact 0.0f weights, i.e.
// +/-0.0, and x + (+/-0.0) == x for every finite x — so the sparse and
// dense paths agree to the last bit, up to the sign of exact zeros
// (outputs compare equal under ==; see tests/nn/sparse_parity_test.cpp).
// B rows no consumer reduces over are never read.
// ---------------------------------------------------------------------------

/// Block-zero descriptor shared by the sparse kernels. Bounds are cumulative
/// (parts + 1 entries, ascending, possibly with empty panels); the grid is
/// indexed zero[p * parts + c] with p the producer panel and c the consumer
/// panel. Which matrix dimension each bound array partitions depends on the
/// variant — see each function.
struct BlockMask {
  std::size_t parts = 0;
  const std::size_t* k_bounds = nullptr;    ///< producer panels
  const std::size_t* out_bounds = nullptr;  ///< consumer panels
  const std::uint8_t* zero = nullptr;       ///< parts x parts, (p, c)
};

/// gemm_nn with A = weights (M x K): rows of C are consumer panels
/// (mask.out_bounds over M, so out_bounds[parts] == M) and the reduction
/// dimension is producer panels (mask.k_bounds over K). Used by the conv
/// im2col forward: k-panels whose weight block is all-zero for a given
/// output-channel row are skipped.
void gemm_nn_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel, const BlockMask& mask);

/// gemm_nt with B = weights (N x K): columns of C are consumer panels
/// (mask.out_bounds over N) and the reduction dimension is producer panels
/// (mask.k_bounds over K). Used by the FC forward.
void gemm_nt_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel, const BlockMask& mask);

/// gemm_tn with B = weights (K x N): here the *reduction* dimension is the
/// consumer partition (mask.out_bounds over K — the weight rows) and the
/// columns of C are producer panels (mask.k_bounds over N). Used by the conv
/// backward data-gradient GEMM: for each consumer row k, only the live
/// producer column intervals are touched. Skipping is exact because this
/// kernel's per-element accumulation is flat ascending-k.
void gemm_tn_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel, const BlockMask& mask);

/// Geometry of one conv im2col/im2row packing: a single sample's single
/// channel group, NCHW layout.
struct PackShape {
  std::size_t channels = 0;  ///< input channels in this group
  std::size_t H = 0, W = 0;  ///< input spatial dims
  std::size_t OH = 0, OW = 0;
  std::size_t K = 0;  ///< square kernel
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t patch() const { return channels * K * K; }  ///< ck2
  std::size_t cols() const { return OH * OW; }            ///< output pixels
};

/// Packs `in` (channels*H*W floats, one sample/group) into `col`
/// (patch() x cols()): col[(c*K+kh)*K+kw][oh*OW+ow], zero-filling padding.
/// Row order (c, kh, kw) matches the naive loop nest's accumulation order.
void im2col(const PackShape& s, const float* in, float* col);

/// im2col that skips packing input channels whose entire weight-block
/// column is pruned (`channel_skip[c] != 0`). Skipped channels' col rows
/// are left untouched *except* the rows a 4-aligned group of
/// gemm_nn_sparse could still read (group straddling a live/dead boundary,
/// or the K%4 tail): those are zero-filled so the sparse GEMM never
/// multiplies garbage. On ConvNet-expt's convs im2col is 15-22% of
/// im2col plus the forward GEMM (single thread, 4-vCPU AVX-512 host), so
/// fully pruned columns skip that share too.
void im2col_masked(const PackShape& s, const float* in, float* col,
                   const std::uint8_t* channel_skip);

/// Transposed packing of a column range into the GEMM's 16-lane strips.
/// The im2row matrix is (cols() x patch()), im2row[oh*OW+ow][(c*K+kh)*K+kw],
/// zero in padding. pack() writes its columns [j0, j0 + n) as strips():
/// strip i holds columns j0 + 16i .. j0 + 16i + 15 as a cols() x 16 block
/// (row stride 16, one pixel per row) at out + i * cols() * 16, so a
/// full strip is a B operand gemm_nn reads in place. pack() may write up
/// to size() floats; lanes past column j0 + n are unspecified. The
/// per-column offsets are built once per range; pack() then runs once per
/// sample. Used by the conv weight gradient, where each dW tile packs only
/// its columns.
class Im2rowCols {
 public:
  static constexpr std::size_t kLanes = 16;

  Im2rowCols(const PackShape& s, std::size_t j0, std::size_t n);
  std::size_t strips() const { return first_.size() - 1; }
  std::size_t size() const { return strips() * s_.cols() * kLanes + kPiece; }
  void pack(const float* in, float* out) const;

 private:
  static constexpr std::size_t kPiece = 4;  ///< floats per copy
  struct Piece {
    std::size_t lane;  ///< first lane in the strip
    std::size_t off;   ///< its first tap's offset in the padded sample
  };
  PackShape s_;
  std::vector<Piece> pieces_;      ///< per strip, ascending lanes
  std::vector<std::size_t> first_;  ///< strips() + 1 indices into pieces_
};

/// Scatter-adds `row` (the full im2row layout, cols() x patch()) into
/// `in_grad` (channels*H*W floats). Inverse of im2row for gradients;
/// padding cells are dropped.
void row2im_add(const PackShape& s, const float* row, float* in_grad);

}  // namespace ls::nn::gemm
