// Block-sparse execution parity suite (DESIGN.md "Sparse execution").
//
// The contract under test is *bit-identical* output: the sparse kernels
// only skip work whose dense contribution is a sum of exact-zero products,
// so dense and sparse paths must agree to the last bit (up to the sign of
// exact zeros — max_abs_diff treats -0 and +0 as equal). Covers the raw
// GEMM kernels, im2col channel skipping, the Conv2D/FullyConnected fast
// paths on LeNet/AlexNet-shaped networks at P in {4, 16}, the no-blocks-
// zero and all-blocks-zero edge cases, and the weight-version invalidation
// contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "core/weight_groups.hpp"
#include "nn/block_sparsity.hpp"
#include "nn/conv2d.hpp"
#include "nn/fc.hpp"
#include "nn/gemm.hpp"
#include "nn/model_zoo.hpp"
#include "nn/network.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(BalancedBounds, MatchesCoreBalancedRanges) {
  for (const auto& [units, parts] :
       {std::pair<std::size_t, std::size_t>{16, 4},
        {16, 16},
        {10, 4},
        {7, 3},
        {3, 16},
        {1, 1},
        {0, 4}}) {
    const auto bounds = balanced_bounds(units, parts);
    const auto ranges = core::balanced_ranges(units, parts);
    ASSERT_EQ(bounds.size(), parts + 1);
    ASSERT_EQ(ranges.size(), parts);
    for (std::size_t p = 0; p < parts; ++p) {
      EXPECT_EQ(bounds[p], ranges[p].begin) << units << "/" << parts;
      EXPECT_EQ(bounds[p + 1], ranges[p].end) << units << "/" << parts;
    }
  }
}

// --- Raw kernel parity ------------------------------------------------------

struct KernelMask {
  std::vector<std::size_t> k_bounds, out_bounds;
  std::vector<std::uint8_t> zero;
  gemm::BlockMask mask() const {
    return {out_bounds.size() - 1, k_bounds.data(), out_bounds.data(),
            zero.data()};
  }
};

// Builds a parts x parts mask with ~`frac` zero blocks and zeroes the
// corresponding spans of the row-major (out_extent x red_extent) weight
// matrix `w`, where rows are partitioned by out_bounds and columns by
// k_bounds.
KernelMask make_mask_and_prune(std::vector<float>& w, std::size_t out_extent,
                               std::size_t red_extent, std::size_t parts,
                               double frac, std::uint64_t seed) {
  KernelMask km;
  km.k_bounds = balanced_bounds(red_extent, parts);
  km.out_bounds = balanced_bounds(out_extent, parts);
  km.zero.assign(parts * parts, 0);
  util::Rng rng(seed);
  for (std::size_t p = 0; p < parts; ++p) {
    for (std::size_t c = 0; c < parts; ++c) {
      if (!rng.bernoulli(frac)) continue;
      km.zero[p * parts + c] = 1;
      for (std::size_t i = km.out_bounds[c]; i < km.out_bounds[c + 1]; ++i) {
        for (std::size_t k = km.k_bounds[p]; k < km.k_bounds[p + 1]; ++k) {
          w[i * red_extent + k] = 0.0f;
        }
      }
    }
  }
  return km;
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

TEST(SparseGemmParity, NnBitIdentical) {
  // Unaligned K and M so 4-groups straddle panel boundaries, both serial
  // and pool-parallel row chunking.
  for (const bool parallel : {false, true}) {
    const std::size_t M = parallel ? 67 : 10, N = 33, K = 37, parts = 3;
    auto A = random_vec(M * K, 1);
    const auto B = random_vec(K * N, 2);
    const KernelMask km = make_mask_and_prune(A, M, K, parts, 0.5, 3);
    std::vector<float> c_dense(M * N), c_sparse(M * N);
    gemm::gemm_nn(M, N, K, A.data(), K, B.data(), N, c_dense.data(), N,
                  false, parallel);
    gemm::gemm_nn_sparse(M, N, K, A.data(), K, B.data(), N, c_sparse.data(),
                         N, false, parallel, km.mask());
    for (std::size_t i = 0; i < M * N; ++i) {
      ASSERT_EQ(c_dense[i], c_sparse[i]) << "parallel=" << parallel << " i="
                                         << i;
    }
  }
}

TEST(SparseGemmParity, NtBitIdentical) {
  for (const bool parallel : {false, true}) {
    const std::size_t M = 9, N = parallel ? 67 : 21, K = 41, parts = 4;
    const auto A = random_vec(M * K, 4);
    auto B = random_vec(N * K, 5);  // weights, N x K
    const KernelMask km = make_mask_and_prune(B, N, K, parts, 0.5, 6);
    std::vector<float> c_dense(M * N), c_sparse(M * N);
    gemm::gemm_nt(M, N, K, A.data(), K, B.data(), K, c_dense.data(), N,
                  false, parallel);
    gemm::gemm_nt_sparse(M, N, K, A.data(), K, B.data(), K, c_sparse.data(),
                         N, false, parallel, km.mask());
    for (std::size_t i = 0; i < M * N; ++i) {
      ASSERT_EQ(c_dense[i], c_sparse[i]) << "parallel=" << parallel;
    }
  }
}

TEST(SparseGemmParity, TnBitIdentical) {
  // B (K x N) is the weight: reduction dim K is the consumer partition,
  // columns N are producer panels.
  for (const bool parallel : {false, true}) {
    const std::size_t M = parallel ? 67 : 13, N = 29, K = 23, parts = 3;
    const auto A = random_vec(K * M, 7);
    auto B = random_vec(K * N, 8);
    // Prune with out_bounds over K (rows of B) and k_bounds over N.
    KernelMask km;
    km.k_bounds = balanced_bounds(N, parts);
    km.out_bounds = balanced_bounds(K, parts);
    km.zero.assign(parts * parts, 0);
    util::Rng rng(9);
    for (std::size_t p = 0; p < parts; ++p) {
      for (std::size_t c = 0; c < parts; ++c) {
        if (!rng.bernoulli(0.5)) continue;
        km.zero[p * parts + c] = 1;
        for (std::size_t k = km.out_bounds[c]; k < km.out_bounds[c + 1];
             ++k) {
          for (std::size_t j = km.k_bounds[p]; j < km.k_bounds[p + 1]; ++j) {
            B[k * N + j] = 0.0f;
          }
        }
      }
    }
    std::vector<float> c_dense(M * N), c_sparse(M * N);
    gemm::gemm_tn(M, N, K, A.data(), M, B.data(), N, c_dense.data(), N,
                  false, parallel);
    gemm::gemm_tn_sparse(M, N, K, A.data(), M, B.data(), N, c_sparse.data(),
                         N, false, parallel, km.mask());
    for (std::size_t i = 0; i < M * N; ++i) {
      ASSERT_EQ(c_dense[i], c_sparse[i]) << "parallel=" << parallel;
    }
  }
}

TEST(SparseGemmParity, AccumulateMode) {
  const std::size_t M = 12, N = 17, K = 20, parts = 4;
  auto A = random_vec(M * K, 10);
  const auto B = random_vec(K * N, 11);
  const KernelMask km = make_mask_and_prune(A, M, K, parts, 0.6, 12);
  auto c_dense = random_vec(M * N, 13);
  auto c_sparse = c_dense;
  gemm::gemm_nn(M, N, K, A.data(), K, B.data(), N, c_dense.data(), N, true,
                false);
  gemm::gemm_nn_sparse(M, N, K, A.data(), K, B.data(), N, c_sparse.data(), N,
                       true, false, km.mask());
  for (std::size_t i = 0; i < M * N; ++i) {
    ASSERT_EQ(c_dense[i], c_sparse[i]);
  }
}

// --- im2col channel skipping -----------------------------------------------

TEST(Im2colMasked, PacksLiveRowsAndZeroesBoundaries) {
  gemm::PackShape s;
  s.channels = 5;
  s.H = s.W = 6;
  s.OH = s.OW = 4;
  s.K = 3;  // k2 = 9: runs land on unaligned row boundaries
  s.stride = 1;
  s.pad = 0;
  const auto in = random_vec(s.channels * s.H * s.W, 20);
  const std::size_t rows = s.patch(), cols = s.cols();

  std::vector<float> ref(rows * cols);
  gemm::im2col(s, in.data(), ref.data());

  // Skip channels 1,2 (col rows [9, 27)) and 4 (rows [36, 45)).
  const std::vector<std::uint8_t> skip = {0, 1, 1, 0, 1};
  const float kSentinel = 777.0f;
  std::vector<float> col(rows * cols, kSentinel);
  gemm::im2col_masked(s, in.data(), col.data(), skip.data());

  auto row_state = [&](std::size_t r) -> char {
    // 'l' live (must match ref), 'z' boundary zero, 'g' garbage (untouched)
    if (r < 9 || (r >= 27 && r < 36)) return 'l';
    if ((r >= 9 && r < 12) || (r >= 24 && r < 27) || r == 44) return 'z';
    return 'g';
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) {
      const float v = col[r * cols + j];
      switch (row_state(r)) {
        case 'l':
          ASSERT_EQ(v, ref[r * cols + j]) << "row " << r;
          break;
        case 'z':
          ASSERT_EQ(v, 0.0f) << "row " << r;
          break;
        default:
          ASSERT_EQ(v, kSentinel) << "row " << r;  // interior not written
      }
    }
  }
}

// --- Layer / network level --------------------------------------------------

// Kills the same deterministic selection of blocks in every group set:
// ~frac of all (p, c) blocks, plus (when whole_columns) every block of the
// first producer panel so the im2col channel-skip path engages.
void kill_pattern(std::vector<core::LayerGroupSet>& sets, double frac,
                  bool whole_columns, std::uint64_t seed) {
  util::Rng rng(seed);
  for (core::LayerGroupSet& set : sets) {
    for (std::size_t p = 0; p < set.cores; ++p) {
      for (std::size_t c = 0; c < set.cores; ++c) {
        if (set.block(p, c).empty()) continue;
        const bool kill = (whole_columns && p == 0) || rng.bernoulli(frac);
        if (kill) set.kill_block(p, c);
      }
    }
  }
}

void expect_params_identical(Network& a, Network& b, const char* what) {
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(pa[i]->grad, pb[i]->grad), 0.0f)
        << what << ": " << pa[i]->name;
  }
}

// Every layer's full backward(), so the network's input gradient is
// compared too (Network::backward skips it).
Tensor full_backward(Network& net, Tensor g) {
  for (std::size_t i = net.num_layers(); i-- > 0;) g = net.layer(i).backward(g);
  return g;
}

// Dense reference and armed network share seeds and kill pattern; forward
// and backward must agree bit for bit.
void run_network_parity(const NetSpec& spec, std::size_t parts, double frac,
                        bool whole_columns) {
  SCOPED_TRACE(spec.name + " P=" + std::to_string(parts) +
               " frac=" + std::to_string(frac));
  util::Rng rng_a(321), rng_b(321), rng_in(654);
  Network dense = build_network(spec, rng_a);
  Network sparse = build_network(spec, rng_b);
  const std::size_t armed = enable_block_sparsity(sparse, spec, parts);
  ASSERT_GT(armed, 0u);

  auto dense_sets = core::build_group_sets(dense, spec, parts);
  auto sparse_sets = core::build_group_sets(sparse, spec, parts);
  kill_pattern(dense_sets, frac, whole_columns, 99);
  kill_pattern(sparse_sets, frac, whole_columns, 99);

  const Tensor in = Tensor::uniform(
      Shape{2, spec.input.c, spec.input.h, spec.input.w}, -1.f, 1.f, rng_in);
  const Tensor out_d = dense.forward(in, /*training=*/true);
  const Tensor out_s = sparse.forward(in, /*training=*/true);
  ASSERT_EQ(out_d.shape(), out_s.shape());
  EXPECT_EQ(tensor::max_abs_diff(out_d, out_s), 0.0f) << "forward";

  util::Rng rng_go(42);
  const Tensor grad = Tensor::uniform(out_d.shape(), -1.f, 1.f, rng_go);
  const Tensor din_d = full_backward(dense, grad);
  const Tensor din_s = full_backward(sparse, grad);
  EXPECT_EQ(tensor::max_abs_diff(din_d, din_s), 0.0f) << "input gradient";
  expect_params_identical(dense, sparse, "gradients");
}

TEST(SparseNetworkParity, LeNetPartitions) {
  for (const std::size_t parts : {4u, 16u}) {
    run_network_parity(lenet_expt_spec(), parts, 0.5, false);
    run_network_parity(lenet_expt_spec(), parts, 0.5, true);
  }
}

TEST(SparseNetworkParity, AlexNetPartitions) {
  for (const std::size_t parts : {4u, 16u}) {
    run_network_parity(caffenet_expt_spec(), parts, 0.5, true);
  }
}

TEST(SparseNetworkParity, NoBlocksZeroEdgeCase) {
  // Freshly initialized weights: nothing pruned, sparse path must
  // disengage and match exactly.
  run_network_parity(lenet_expt_spec(), 4, 0.0, false);
}

TEST(SparseNetworkParity, AllBlocksZeroEdgeCase) {
  run_network_parity(lenet_expt_spec(), 4, 1.0, false);
  run_network_parity(lenet_expt_spec(), 16, 1.0, true);
}

// --- Cache invalidation -----------------------------------------------------

TEST(BlockSparsityCache, RescanOnVersionBump) {
  util::Rng rng(7);
  Conv2DConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 8;
  cfg.kernel = 3;
  Conv2D conv("c", cfg, rng);
  conv.set_sparsity_partition(4);
  ASSERT_NE(conv.sparsity(), nullptr);

  BlockSparsity probe(4, 8, 8, 9);
  EXPECT_FALSE(probe.map(conv.weight()).engaged());

  // Zero producer panel 0 / consumer 0 block by hand, then bump — the
  // cached bitmap must pick it up on the next map() call.
  const std::size_t cin = 8, k2 = 9;
  for (std::size_t oc = 0; oc < 2; ++oc) {    // consumer 0 owns oc 0..1
    for (std::size_t ic = 0; ic < 2; ++ic) {  // producer 0 owns ic 0..1
      for (std::size_t e = 0; e < k2; ++e) {
        conv.weight().value[(oc * cin + ic) * k2 + e] = 0.0f;
      }
    }
  }
  // Without a bump the stale map is served — that is the documented
  // contract (direct pokes must bump).
  EXPECT_FALSE(probe.map(conv.weight()).engaged());
  conv.weight().bump();
  const BlockMap& m = probe.map(conv.weight());
  EXPECT_TRUE(m.engaged());
  EXPECT_EQ(m.zero_blocks, 1u);
  EXPECT_EQ(m.zero_weight_elems, 2 * 2 * k2);
}

TEST(BlockSparsityCache, FcInUnitsValidated) {
  util::Rng rng(7);
  FullyConnected fc("f", 24, 10, rng);
  EXPECT_NO_THROW(fc.set_sparsity_partition(4, 8));   // 24 = 8 * 3
  EXPECT_ANY_THROW(fc.set_sparsity_partition(4, 7));  // 24 % 7 != 0
}

}  // namespace
}  // namespace ls::nn
