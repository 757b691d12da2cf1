// Pins the scratch-arena contract: after a warmup call at a given shape,
// steady-state conv forward/backward and packing GEMM calls perform zero
// scratch reallocations (the grow-only buffers are already large enough),
// and repeated calls never grow the footprint. A regression here means a
// kernel went back to per-call allocation churn.

#include "nn/scratch.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "tensor/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

class ScratchArena : public ::testing::Test {
 protected:
  // Everything on the calling thread so thread_stats() sees all activity.
  void SetUp() override { util::ThreadPool::set_num_threads(1); }
  void TearDown() override { util::ThreadPool::set_num_threads(0); }
};

TEST_F(ScratchArena, BufferGrowsMonotonically) {
  const auto before = scratch::thread_stats();
  float* big = scratch::buffer(scratch::Slot::kIm2col, 1024);
  ASSERT_NE(big, nullptr);
  const auto grown = scratch::thread_stats();
  EXPECT_GE(grown.bytes, before.bytes);
  // Shrinking or equal requests reuse the same allocation.
  float* again = scratch::buffer(scratch::Slot::kIm2col, 512);
  EXPECT_EQ(big, again);
  float* same = scratch::buffer(scratch::Slot::kIm2col, 1024);
  EXPECT_EQ(big, same);
  const auto after = scratch::thread_stats();
  EXPECT_EQ(grown.reallocs, after.reallocs);
  EXPECT_EQ(grown.bytes, after.bytes);
}

TEST_F(ScratchArena, SlotsAreDistinct) {
  float* a = scratch::buffer(scratch::Slot::kIm2col, 64);
  float* b = scratch::buffer(scratch::Slot::kIm2row, 64);
  float* c = scratch::buffer(scratch::Slot::kPackB, 64);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

TEST_F(ScratchArena, ConvSteadyStateDoesNotReallocate) {
  util::Rng rng(11);
  Conv2DConfig cc;
  cc.in_channels = 3;
  cc.out_channels = 8;
  cc.kernel = 3;
  cc.stride = 1;
  cc.pad = 1;
  Conv2D conv("c", cc, rng);
  tensor::Tensor in(tensor::Shape{2, 3, 12, 12});
  util::Rng fill(12);
  for (std::size_t i = 0; i < in.numel(); ++i) {
    in.data()[i] = static_cast<float>(fill.uniform() - 0.5);
  }
  // Warmup: forward + backward at the steady shape.
  tensor::Tensor out = conv.forward(in, /*training=*/true);
  conv.backward(out);
  const auto warm = scratch::thread_stats();
  for (int it = 0; it < 5; ++it) {
    tensor::Tensor o = conv.forward(in, /*training=*/true);
    conv.backward(o);
  }
  const auto after = scratch::thread_stats();
  EXPECT_EQ(warm.reallocs, after.reallocs)
      << "conv steady state reallocated scratch";
  EXPECT_EQ(warm.bytes, after.bytes);
}

TEST_F(ScratchArena, SimdGemmSteadyStateDoesNotReallocate) {
  const std::size_t M = 32, N = 50, K = 40;
  std::vector<float> A(M * K, 0.5f), B(N * K, 0.25f), C(M * N);
  // nt packs its A strips into the scratch slot — warm it, then loop.
  gemm::gemm_nt(M, N, K, A.data(), K, B.data(), K, C.data(), N, false, false);
  const auto warm = scratch::thread_stats();
  for (int it = 0; it < 5; ++it) {
    gemm::gemm_nt(M, N, K, A.data(), K, B.data(), K, C.data(), N, false,
                  false);
  }
  const auto after = scratch::thread_stats();
  EXPECT_EQ(warm.reallocs, after.reallocs)
      << "gemm steady state reallocated scratch";
  EXPECT_EQ(warm.bytes, after.bytes);
}

}  // namespace
}  // namespace ls::nn
