// Pins the bits of the default GEMM kernels. The six entry points of
// nn/gemm.hpp run over seeded shapes that cover K % 4 tails, M below the
// 16-row parallel chunk, N below one 16-lane vector, K and N past the
// cache blocks, padded leading dimensions, accumulate on and off, the
// parallel path on and off, and random block masks for the sparse forms.
// A 64-bit FNV-1a hash of every output must equal the hash the portable
// (SSE2 baseline) build produced before the kernels were cloned per ISA.
// It must hold both for the cpuid-selected clones and for the portable
// clone: a clone that contracts a * b + c into an FMA, or a kernel that
// regroups a reduction, changes the hash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nn/block_sparsity.hpp"
#include "nn/gemm.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

// Hash of the portable build's outputs, from the kernels as they were
// before the ISA clones (SSE2, no FMA).
constexpr std::uint64_t kGoldenHash = 0x1e4ebb22856746c8ull;

struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::vector<float>& v) {
    for (const float x : v) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &x, sizeof bits);
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
};

std::vector<float> random_vec(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  return v;
}

// Random block mask over a weight operand stored (out_extent x red_extent)
// with row stride `ld`; zeroes the pruned blocks so the bitmap is truthful.
struct Mask {
  std::size_t parts = 0;
  std::vector<std::size_t> k_bounds, out_bounds;
  std::vector<std::uint8_t> zero;
  gemm::BlockMask view() const {
    return {parts, k_bounds.data(), out_bounds.data(), zero.data()};
  }
};

Mask random_mask(std::vector<float>& w, std::size_t ld,
                 std::size_t out_extent, std::size_t red_extent,
                 util::Rng& rng) {
  Mask m;
  m.parts = 1 + rng.uniform_index(6);
  m.out_bounds = balanced_bounds(out_extent, m.parts);
  m.k_bounds = balanced_bounds(red_extent, m.parts);
  m.zero.assign(m.parts * m.parts, 0);
  for (std::size_t p = 0; p < m.parts; ++p) {
    for (std::size_t c = 0; c < m.parts; ++c) {
      if (rng.uniform() >= 0.5) continue;
      m.zero[p * m.parts + c] = 1;
      for (std::size_t i = m.out_bounds[c]; i < m.out_bounds[c + 1]; ++i) {
        float* row = w.data() + i * ld;
        std::fill(row + m.k_bounds[p], row + m.k_bounds[p + 1], 0.0f);
      }
    }
  }
  return m;
}

struct Shape3 {
  std::size_t M, N, K;
};

std::vector<Shape3> golden_shapes() {
  std::vector<Shape3> shapes = {
      {1, 1, 1},     {3, 5, 7},     {15, 15, 2},   {16, 16, 4},
      {17, 3, 9},    {5, 17, 130},  {40, 33, 67},  {20, 530, 131},
      {33, 21, 258}, {64, 64, 288},
  };
  util::Rng rng(2024);
  for (int i = 0; i < 14; ++i) {
    shapes.push_back({1 + rng.uniform_index(40), 1 + rng.uniform_index(40),
                      1 + rng.uniform_index(150)});
  }
  return shapes;
}

// Runs every entry point over golden_shapes() and hashes the outputs.
std::uint64_t golden_hash() {
  Hasher hash;
  util::Rng rng(7);
  for (const Shape3& s : golden_shapes()) {
    const std::size_t M = s.M, N = s.N, K = s.K;
    for (const bool accumulate : {false, true}) {
      for (const bool parallel : {false, true}) {
        const std::size_t pad = rng.uniform_index(4);
        const std::size_t ldc = N + pad;
        const std::vector<float> c0 = random_vec(M * ldc, rng);

        // nn: A (M x K), B (K x N).
        {
          std::vector<float> A = random_vec(M * (K + pad), rng);
          const std::vector<float> B = random_vec(K * (N + pad), rng);
          std::vector<float> C = c0;
          gemm::gemm_nn(M, N, K, A.data(), K + pad, B.data(), N + pad,
                        C.data(), ldc, accumulate, parallel);
          hash.add(C);
          const Mask m = random_mask(A, K + pad, M, K, rng);
          C = c0;
          gemm::gemm_nn_sparse(M, N, K, A.data(), K + pad, B.data(), N + pad,
                               C.data(), ldc, accumulate, parallel, m.view());
          hash.add(C);
        }
        // tn: A stored (K x M), B (K x N); B is the sparse weight operand
        // with K as the consumer partition.
        {
          const std::vector<float> A = random_vec(K * (M + pad), rng);
          std::vector<float> B = random_vec(K * (N + pad), rng);
          std::vector<float> C = c0;
          gemm::gemm_tn(M, N, K, A.data(), M + pad, B.data(), N + pad,
                        C.data(), ldc, accumulate, parallel);
          hash.add(C);
          const Mask m = random_mask(B, N + pad, K, N, rng);
          C = c0;
          gemm::gemm_tn_sparse(M, N, K, A.data(), M + pad, B.data(), N + pad,
                               C.data(), ldc, accumulate, parallel, m.view());
          hash.add(C);
        }
        // nt: A (M x K), B stored (N x K).
        {
          const std::vector<float> A = random_vec(M * (K + pad), rng);
          std::vector<float> B = random_vec(N * (K + pad), rng);
          std::vector<float> C = c0;
          gemm::gemm_nt(M, N, K, A.data(), K + pad, B.data(), K + pad,
                        C.data(), ldc, accumulate, parallel);
          hash.add(C);
          const Mask m = random_mask(B, K + pad, N, K, rng);
          C = c0;
          gemm::gemm_nt_sparse(M, N, K, A.data(), K + pad, B.data(), K + pad,
                               C.data(), ldc, accumulate, parallel, m.view());
          hash.add(C);
        }
      }
    }
  }
  return hash.h;
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

TEST(GemmGolden, DispatchedClonesMatchPortableBuild) {
  EXPECT_EQ(hex(golden_hash()), hex(kGoldenHash))
      << "isa " << gemm::kernel_isa();
}

TEST(GemmGolden, PortableCloneMatchesPortableBuild) {
  gemm::testing::use_portable_kernels(true);
  const std::uint64_t h = golden_hash();
  gemm::testing::use_portable_kernels(false);
  EXPECT_EQ(hex(h), hex(kGoldenHash));
}

}  // namespace
}  // namespace ls::nn
