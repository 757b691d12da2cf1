// Contract suite for the GEMM kernels (nn/gemm.hpp):
//   * every entry point is bit-identical (memcmp) to a reference copy of
//     the untiled kernels the register tiles replaced, at every tile edge;
//   * sparse output equals dense output on the same pruned operand;
//   * outputs are byte-identical for every thread count;
//   * B rows no consumer reduces over (the rows im2col_masked leaves
//     unfilled) are never read — poisoned with NaN here.
// The GemmSimd* suite names predate the single backend; the tests kept
// their names when the simd backend's tiles became the only kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "nn/block_sparsity.hpp"
#include "nn/gemm.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  return v;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct Mask {
  std::size_t parts = 0;
  std::vector<std::size_t> k_bounds, out_bounds;
  std::vector<std::uint8_t> zero;
  gemm::BlockMask view() const {
    return {parts, k_bounds.data(), out_bounds.data(), zero.data()};
  }
};

// Weight operand stored (out_extent x red_extent) with row stride `ld`;
// marks the requested (producer, consumer) blocks zero and zeroes the
// matching weight spans so the bitmap is truthful.
Mask prune_blocks(std::vector<float>& w, std::size_t ld,
                  std::size_t out_extent, std::size_t red_extent,
                  std::size_t parts,
                  const std::vector<std::pair<std::size_t, std::size_t>>& pc) {
  Mask m;
  m.parts = parts;
  m.out_bounds = balanced_bounds(out_extent, parts);
  m.k_bounds = balanced_bounds(red_extent, parts);
  m.zero.assign(parts * parts, 0);
  for (const auto& [p, c] : pc) {
    m.zero[p * parts + c] = 1;
    for (std::size_t i = m.out_bounds[c]; i < m.out_bounds[c + 1]; ++i) {
      std::fill(w.begin() + i * ld + m.k_bounds[p],
                w.begin() + i * ld + m.k_bounds[p + 1], 0.0f);
    }
  }
  return m;
}

Mask prune_blocks(std::vector<float>& w, std::size_t out_extent,
                  std::size_t red_extent, std::size_t parts,
                  const std::vector<std::pair<std::size_t, std::size_t>>& pc) {
  return prune_blocks(w, red_extent, out_extent, red_extent, parts, pc);
}

// Each block dead with probability 1/2.
Mask random_mask(std::vector<float>& w, std::size_t ld,
                 std::size_t out_extent, std::size_t red_extent,
                 util::Rng& rng) {
  const std::size_t parts = 1 + rng.uniform_index(6);
  std::vector<std::pair<std::size_t, std::size_t>> dead;
  for (std::size_t p = 0; p < parts; ++p) {
    for (std::size_t c = 0; c < parts; ++c) {
      if (rng.uniform() < 0.5) dead.emplace_back(p, c);
    }
  }
  return prune_blocks(w, ld, out_extent, red_extent, parts, dead);
}

// ---------------------------------------------------------------------------
// Reference: the untiled portable kernels the register tiles replaced, one
// output row (nn, tn) or element (nt) at a time. Their per-element
// operation order is the bit contract.
// ---------------------------------------------------------------------------
namespace ref {

std::vector<std::uint32_t> owners(const std::size_t* bounds,
                                  std::size_t parts, std::size_t n) {
  std::vector<std::uint32_t> owner(n, 0);
  for (std::size_t c = 0; c < parts; ++c) {
    for (std::size_t i = bounds[c]; i < bounds[c + 1] && i < n; ++i) {
      owner[i] = static_cast<std::uint32_t>(c);
    }
  }
  return owner;
}

// live[c * groups + m]: 4-aligned group m meets a producer live for c.
std::vector<std::uint8_t> group_live(const gemm::BlockMask& mask,
                                     std::size_t K) {
  const std::size_t groups = (K + 3) / 4;
  std::vector<std::uint8_t> live(mask.parts * groups, 0);
  for (std::size_t c = 0; c < mask.parts; ++c) {
    for (std::size_t p = 0; p < mask.parts; ++p) {
      const std::size_t lo = mask.k_bounds[p], hi = mask.k_bounds[p + 1];
      if (mask.zero[p * mask.parts + c] || lo >= hi) continue;
      for (std::size_t m = lo / 4; m <= (hi - 1) / 4; ++m) {
        live[c * groups + m] = 1;
      }
    }
  }
  return live;
}

// nn: C += ((a0*b0 + a1*b1) + a2*b2) + a3*b3 per live group, then the tail.
void nn(std::size_t M, std::size_t N, std::size_t K, const float* A,
        std::size_t lda, const float* B, std::size_t ldb, float* C,
        std::size_t ldc, bool accumulate, const gemm::BlockMask* mask) {
  const std::size_t groups = (K + 3) / 4;
  const auto live = mask ? group_live(*mask, K) : std::vector<std::uint8_t>();
  const auto owner = mask ? owners(mask->out_bounds, mask->parts, M)
                          : std::vector<std::uint32_t>(M, 0);
  for (std::size_t i = 0; i < M; ++i) {
    const float* a_row = A + i * lda;
    float* c_row = C + i * ldc;
    if (!accumulate) std::fill(c_row, c_row + N, 0.0f);
    const auto on = [&](std::size_t k) {
      return !mask || live[owner[i] * groups + k / 4];
    };
    std::size_t k = 0;
    for (; k + 4 <= K; k += 4) {
      if (!on(k)) continue;
      const float a0 = a_row[k], a1 = a_row[k + 1];
      const float a2 = a_row[k + 2], a3 = a_row[k + 3];
      const float* b0 = B + k * ldb;
      const float* b1 = b0 + ldb;
      const float* b2 = b1 + ldb;
      const float* b3 = b2 + ldb;
      for (std::size_t j = 0; j < N; ++j) {
        c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
    }
    for (; k < K; ++k) {
      if (!on(k)) continue;
      const float a = a_row[k];
      const float* b = B + k * ldb;
      for (std::size_t j = 0; j < N; ++j) c_row[j] += a * b[j];
    }
  }
}

// tn: C += a*b per k ascending, over the (producer(j), consumer(k)) blocks
// that are live.
void tn(std::size_t M, std::size_t N, std::size_t K, const float* A,
        std::size_t lda, const float* B, std::size_t ldb, float* C,
        std::size_t ldc, bool accumulate, const gemm::BlockMask* mask) {
  const auto k_owner = mask ? owners(mask->out_bounds, mask->parts, K)
                            : std::vector<std::uint32_t>(K, 0);
  const auto j_owner = mask ? owners(mask->k_bounds, mask->parts, N)
                            : std::vector<std::uint32_t>(N, 0);
  for (std::size_t i = 0; i < M; ++i) {
    if (!accumulate) std::fill(C + i * ldc, C + i * ldc + N, 0.0f);
  }
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t i = 0; i < M; ++i) {
      const float a = A[k * lda + i];
      for (std::size_t j = 0; j < N; ++j) {
        if (mask && mask->zero[j_owner[j] * mask->parts + k_owner[k]]) {
          continue;
        }
        C[i * ldc + j] += a * B[k * ldb + j];
      }
    }
  }
}

// nt: four strided partial sums and a tail over the live groups.
void nt(std::size_t M, std::size_t N, std::size_t K, const float* A,
        std::size_t lda, const float* B, std::size_t ldb, float* C,
        std::size_t ldc, bool accumulate, const gemm::BlockMask* mask) {
  const std::size_t groups = (K + 3) / 4;
  const auto live = mask ? group_live(*mask, K) : std::vector<std::uint8_t>();
  const auto owner = mask ? owners(mask->out_bounds, mask->parts, N)
                          : std::vector<std::uint32_t>(N, 0);
  for (std::size_t i = 0; i < M; ++i) {
    const float* a_row = A + i * lda;
    for (std::size_t j = 0; j < N; ++j) {
      const float* b_row = B + j * ldb;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      float tail = 0.0f;
      std::size_t k = 0;
      for (; k + 4 <= K; k += 4) {
        if (mask && !live[owner[j] * groups + k / 4]) continue;
        acc0 += a_row[k] * b_row[k];
        acc1 += a_row[k + 1] * b_row[k + 1];
        acc2 += a_row[k + 2] * b_row[k + 2];
        acc3 += a_row[k + 3] * b_row[k + 3];
      }
      for (; k < K; ++k) {
        if (mask && !live[owner[j] * groups + k / 4]) continue;
        tail += a_row[k] * b_row[k];
      }
      const float sum = ((acc0 + acc1) + (acc2 + acc3)) + tail;
      float& c = C[i * ldc + j];
      c = accumulate ? c + sum : sum;
    }
  }
}

}  // namespace ref

struct Dims {
  std::size_t M, N, K;
};

// Tile edges: M around the 4-row tile and the 64-row task block, N off the
// 16-lane strip and past the 128-column block, K with every K % 4 and past
// 128.
std::vector<Dims> edge_shapes() {
  std::vector<Dims> shapes;
  const std::size_t Ns[] = {1, 15, 17, 33, 130};
  const std::size_t Ks[] = {1, 3, 6, 129, 134};
  std::size_t n = 0, k = 0;
  for (const std::size_t M : {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 65}) {
    for (int rep = 0; rep < 2; ++rep) {
      shapes.push_back({M, Ns[n++ % 5], Ks[k++ % 5]});
    }
  }
  return shapes;
}

// The dW GEMMs Conv2D::gemm_backward issues: a tile of rows x cols (whole
// 16-lane strips, or the ragged last one) reducing over ohw pixels, with
// the tile's im2row columns packed at ld == cols.
const Dims kDwShapes[] = {
    {16, 16, 1024}, {16, 11, 1024}, {8, 32, 256}, {13, 16, 49},
    {10, 48, 25},   {32, 64, 64},   {9, 27, 121},
};

enum class Op { kNn, kTn, kNt };

// Runs entry point `op` (sparse when `sparse`) and its reference on one
// shape with padded leading dimensions; returns whether the bits agree.
::testing::AssertionResult matches_reference(Op op, bool sparse,
                                             const Dims& d, bool accumulate,
                                             std::size_t pad,
                                             std::uint64_t seed) {
  const std::size_t M = d.M, N = d.N, K = d.K;
  util::Rng rng(seed);
  // Stored operand shapes (rows x cols) per op.
  const std::size_t a_rows = op == Op::kTn ? K : M;
  const std::size_t a_cols = op == Op::kTn ? M : K;
  const std::size_t b_rows = op == Op::kNt ? N : K;
  const std::size_t b_cols = op == Op::kNt ? K : N;
  const std::size_t lda = a_cols + pad, ldb = b_cols + pad, ldc = N + pad;
  std::vector<float> A = random_vec(a_rows * lda, seed + 1);
  std::vector<float> B = random_vec(b_rows * ldb, seed + 2);
  std::vector<float> C0 = random_vec(M * ldc, seed + 3);
  Mask mask;
  if (sparse) {
    // The weight operand: A for nn (M x K), B for tn (K x N) and nt (N x K).
    if (op == Op::kNn) mask = random_mask(A, lda, M, K, rng);
    if (op == Op::kTn) mask = random_mask(B, ldb, K, N, rng);
    if (op == Op::kNt) mask = random_mask(B, ldb, N, K, rng);
    // Probes that only an exact skip leaves alone: an infinite activation
    // (0 * inf is NaN where a pruned term is computed instead of skipped)
    // and -0 in C (an added +0 term flips it where nothing is live).
    const std::size_t k0 = seed % K;
    if (op == Op::kNn) B[k0 * ldb + seed % N] = INFINITY;
    if (op == Op::kTn) A[k0 * lda + seed % M] = INFINITY;
    if (op == Op::kNt) A[seed % M * lda + k0] = INFINITY;
    for (std::size_t e = 0; e < C0.size(); e += 5) C0[e] = -0.0f;
  }
  const gemm::BlockMask view = mask.view();
  std::vector<float> want = C0, got = C0;
  switch (op) {
    case Op::kNn:
      ref::nn(M, N, K, A.data(), lda, B.data(), ldb, want.data(), ldc,
              accumulate, sparse ? &view : nullptr);
      if (sparse) {
        gemm::gemm_nn_sparse(M, N, K, A.data(), lda, B.data(), ldb,
                             got.data(), ldc, accumulate, true, view);
      } else {
        gemm::gemm_nn(M, N, K, A.data(), lda, B.data(), ldb, got.data(), ldc,
                      accumulate, true);
      }
      break;
    case Op::kTn:
      ref::tn(M, N, K, A.data(), lda, B.data(), ldb, want.data(), ldc,
              accumulate, sparse ? &view : nullptr);
      if (sparse) {
        gemm::gemm_tn_sparse(M, N, K, A.data(), lda, B.data(), ldb,
                             got.data(), ldc, accumulate, true, view);
      } else {
        gemm::gemm_tn(M, N, K, A.data(), lda, B.data(), ldb, got.data(), ldc,
                      accumulate, true);
      }
      break;
    case Op::kNt:
      ref::nt(M, N, K, A.data(), lda, B.data(), ldb, want.data(), ldc,
              accumulate, sparse ? &view : nullptr);
      if (sparse) {
        gemm::gemm_nt_sparse(M, N, K, A.data(), lda, B.data(), ldb,
                             got.data(), ldc, accumulate, true, view);
      } else {
        gemm::gemm_nt(M, N, K, A.data(), lda, B.data(), ldb, got.data(), ldc,
                      accumulate, true);
      }
      break;
  }
  if (same_bits(want, got)) return ::testing::AssertionSuccess();
  const char* names[] = {"nn", "tn", "nt"};
  return ::testing::AssertionFailure()
         << names[static_cast<int>(op)] << (sparse ? "_sparse" : "")
         << " M=" << M << " N=" << N << " K=" << K << " pad=" << pad
         << " accumulate=" << accumulate;
}

class Gemm : public ::testing::TestWithParam<bool> {
 protected:
  // The parameter pins the portable clone: both tables must give the
  // reference's bits.
  void SetUp() override { gemm::testing::use_portable_kernels(GetParam()); }
  void TearDown() override { gemm::testing::use_portable_kernels(false); }
};

TEST_P(Gemm, TileEdgesMatchUntiledReference) {
  std::uint64_t seed = 100;
  for (const Dims& d : edge_shapes()) {
    for (const Op op : {Op::kNn, Op::kTn, Op::kNt}) {
      for (const bool sparse : {false, true}) {
        for (const bool accumulate : {false, true}) {
          const std::size_t pad = seed % 3 == 0 ? 0 : seed % 5;
          EXPECT_TRUE(matches_reference(op, sparse, d, accumulate, pad,
                                        seed += 10));
        }
      }
    }
  }
}

TEST_P(Gemm, DwStripShapesMatchUntiledReference) {
  std::uint64_t seed = 7000;
  for (const Dims& d : kDwShapes) {
    for (const bool accumulate : {false, true}) {
      EXPECT_TRUE(
          matches_reference(Op::kNn, false, d, accumulate, 0, seed += 10));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tables, Gemm, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Portable"
                                                         : "Dispatched");
                         });

TEST(GemmSimd, AccumulateAddsIntoPriorOutput) {
  const Dims d{13, 37, 29};
  const auto A = random_vec(d.M * d.K, 7);
  const auto B = random_vec(d.K * d.N, 8);
  const auto C0 = random_vec(d.M * d.N, 9);
  std::vector<float> once(C0), twice(C0);
  gemm::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N, once.data(),
                d.N, /*accumulate=*/true, false);
  gemm::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N, twice.data(),
                d.N, /*accumulate=*/true, false);
  gemm::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N, twice.data(),
                d.N, /*accumulate=*/true, false);
  for (std::size_t i = 0; i < once.size(); ++i) {
    // twice - once == once - C0 up to one rounding step of the second add.
    const float inc = once[i] - C0[i];
    EXPECT_NEAR(twice[i], once[i] + inc, 1e-4f + 1e-3f * std::fabs(inc));
  }
  // accumulate=false must overwrite, not add.
  std::vector<float> fresh(C0), zero_based(d.M * d.N, 0.0f);
  gemm::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N, fresh.data(),
                d.N, /*accumulate=*/false, false);
  gemm::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N,
                zero_based.data(), d.N, /*accumulate=*/true, false);
  EXPECT_TRUE(same_bits(fresh, zero_based));
}

// Sparse vs dense on the same pruned operand: the same bits, per variant.

TEST(GemmSimd, SparseNnExactlyMatchesDenseSimd) {
  const std::size_t M = 24, N = 70, K = 45, parts = 4;
  auto A = random_vec(M * K, 10);  // weights (M x K)
  const auto B = random_vec(K * N, 11);
  const Mask m = prune_blocks(A, M, K, parts, {{0, 1}, {2, 1}, {3, 0}, {1, 3}});
  std::vector<float> dense(M * N), sparse(M * N);
  gemm::gemm_nn(M, N, K, A.data(), K, B.data(), N, dense.data(), N, false,
                false);
  gemm::gemm_nn_sparse(M, N, K, A.data(), K, B.data(), N, sparse.data(), N,
                       false, false, m.view());
  EXPECT_TRUE(same_bits(dense, sparse));
}

TEST(GemmSimd, SparseNtExactlyMatchesDenseSimd) {
  const std::size_t M = 9, N = 40, K = 33, parts = 3;
  const auto A = random_vec(M * K, 12);
  auto B = random_vec(N * K, 13);  // weights (N x K)
  const Mask m = prune_blocks(B, N, K, parts, {{0, 2}, {1, 0}, {2, 2}});
  std::vector<float> dense(M * N), sparse(M * N);
  gemm::gemm_nt(M, N, K, A.data(), K, B.data(), K, dense.data(), N, false,
                false);
  gemm::gemm_nt_sparse(M, N, K, A.data(), K, B.data(), K, sparse.data(), N,
                       false, false, m.view());
  EXPECT_TRUE(same_bits(dense, sparse));
}

TEST(GemmSimd, SparseTnExactlyMatchesDenseSimd) {
  // tn: B = weights (K x N), out_bounds partition K, k_bounds partition N.
  const std::size_t M = 18, N = 52, K = 28, parts = 4;
  const auto A = random_vec(K * M, 14);  // stored (K x M)
  auto B = random_vec(K * N, 15);
  const Mask m =
      prune_blocks(B, K, N, parts, {{0, 0}, {1, 3}, {3, 3}, {2, 1}});
  std::vector<float> dense(M * N), sparse(M * N);
  gemm::gemm_tn(M, N, K, A.data(), M, B.data(), N, dense.data(), N, false,
                false);
  gemm::gemm_tn_sparse(M, N, K, A.data(), M, B.data(), N, sparse.data(), N,
                       false, false, m.view());
  EXPECT_TRUE(same_bits(dense, sparse));
}

TEST(GemmSimd, FullyPrunedConsumerYieldsZeroRows) {
  const std::size_t M = 16, N = 20, K = 24, parts = 2;
  auto A = random_vec(M * K, 16);
  const auto B = random_vec(K * N, 17);
  // Consumer 0 loses every producer: its C rows must be exactly zero.
  const Mask m = prune_blocks(A, M, K, parts, {{0, 0}, {1, 0}});
  std::vector<float> sparse(M * N, -1.0f);
  gemm::gemm_nn_sparse(M, N, K, A.data(), K, B.data(), N, sparse.data(), N,
                       /*accumulate=*/false, false, m.view());
  for (std::size_t i = m.out_bounds[0]; i < m.out_bounds[1]; ++i) {
    for (std::size_t j = 0; j < N; ++j) {
      ASSERT_EQ(sparse[i * N + j], 0.0f) << "row " << i << " col " << j;
    }
  }
}

TEST(GemmSimd, DeadPanelGarbageRowsNeverRead) {
  // im2col_masked's contract: in a producer panel dead for ALL consumers it
  // zero-fills only the rows a 4-aligned group meeting a live panel still
  // reads, and leaves the rest unfilled. Poison those with NaN — any read,
  // packed or in place, would reach C — and compare against a clean copy.
  const std::size_t M = 20, N = 37, K = 42, parts = 4;
  auto A = random_vec(M * K, 18);
  const auto B_clean = random_vec(K * N, 19);
  const Mask m = prune_blocks(
      A, M, K, parts, {{1, 0}, {1, 1}, {1, 2}, {1, 3}, {3, 0}, {3, 2}});
  // Producer panel 1 is dead for every consumer.
  const std::size_t r0 = m.k_bounds[1], r1 = m.k_bounds[2];
  const std::size_t up = (r0 + 3) / 4 * 4, down = r1 / 4 * 4;
  ASSERT_LT(up, down) << "the dead panel must hold unfilled rows";
  std::vector<float> B(B_clean);
  for (std::size_t k = r0; k < r1; ++k) {
    const bool unfilled = k >= up && k < down;
    for (std::size_t j = 0; j < N; ++j) {
      B[k * N + j] = unfilled ? std::nanf("") : 0.0f;
    }
  }
  std::vector<float> clean(B_clean);
  for (std::size_t k = r0; k < r1; ++k) {
    std::fill(clean.begin() + k * N, clean.begin() + (k + 1) * N, 0.0f);
  }
  for (const bool parallel : {false, true}) {
    std::vector<float> want(M * N), got(M * N);
    gemm::gemm_nn_sparse(M, N, K, A.data(), K, clean.data(), N, want.data(),
                         N, false, parallel, m.view());
    gemm::gemm_nn_sparse(M, N, K, A.data(), K, B.data(), N, got.data(), N,
                         false, parallel, m.view());
    EXPECT_TRUE(same_bits(want, got)) << "parallel " << parallel;
  }
}

class GemmSimdThreads : public ::testing::Test {
 protected:
  void TearDown() override { util::ThreadPool::set_num_threads(0); }
};

TEST_F(GemmSimdThreads, BitIdenticalForAnyThreadCount) {
  const std::size_t M = 96, N = 200, K = 67, parts = 4;
  auto W = random_vec(M * K, 20);     // nn weights (M x K)
  const auto X = random_vec(K * N, 21);
  auto Wt = random_vec(N * K, 22);    // nt weights (N x K)
  const auto At = random_vec(K * M, 23);  // tn A stored (K x M)
  auto Wk = random_vec(K * N, 24);    // tn weights (K x N)
  const Mask m_nn = prune_blocks(W, M, K, parts, {{0, 3}, {2, 0}});
  const Mask m_nt = prune_blocks(Wt, N, K, parts, {{1, 1}, {3, 2}});
  const Mask m_tn = prune_blocks(Wk, K, N, parts, {{2, 3}, {0, 1}});
  std::vector<std::vector<float>> base;
  for (const std::size_t t : {1u, 3u, 4u}) {
    util::ThreadPool::set_num_threads(t);
    std::vector<std::vector<float>> out(6, std::vector<float>(M * N));
    gemm::gemm_nn(M, N, K, W.data(), K, X.data(), N, out[0].data(), N, false,
                  true);
    gemm::gemm_nn_sparse(M, N, K, W.data(), K, X.data(), N, out[1].data(), N,
                         false, true, m_nn.view());
    gemm::gemm_nt(M, N, K, W.data(), K, Wt.data(), K, out[2].data(), N,
                  false, true);
    gemm::gemm_nt_sparse(M, N, K, W.data(), K, Wt.data(), K, out[3].data(),
                         N, false, true, m_nt.view());
    gemm::gemm_tn(M, N, K, At.data(), M, Wk.data(), N, out[4].data(), N,
                  false, true);
    gemm::gemm_tn_sparse(M, N, K, At.data(), M, Wk.data(), N, out[5].data(),
                         N, false, true, m_tn.view());
    if (base.empty()) {
      base = out;
      continue;
    }
    for (std::size_t e = 0; e < out.size(); ++e) {
      EXPECT_TRUE(same_bits(base[e], out[e]))
          << "entry point " << e << " with " << t << " threads";
    }
  }
}

}  // namespace
}  // namespace ls::nn
