#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/pool.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

TEST(Pool2D, MaxPoolKnownValues) {
  Pool2D pool("p", PoolKind::kMax, 2, 2);
  const Tensor in = Tensor::from_data(
      Shape{1, 1, 4, 4},
      {1, 2, 5, 6, 3, 4, 7, 8, -1, -2, 0, 0, -3, -4, 0, 9});
  const Tensor out = pool.forward(in, false);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 1), 8.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 0), -1.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 9.0f);
}

TEST(Pool2D, AvgPoolKnownValues) {
  Pool2D pool("p", PoolKind::kAvg, 2, 2);
  const Tensor in = Tensor::from_data(Shape{1, 1, 2, 4},
                                      {1, 3, 0, 8, 5, 7, 4, 4});
  const Tensor out = pool.forward(in, false);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 1), 4.0f);
}

TEST(Pool2D, OverlappingStride) {
  Pool2D pool("p", PoolKind::kMax, 3, 2);
  EXPECT_EQ(pool.output_shape(Shape{1, 2, 7, 7}), Shape({1, 2, 3, 3}));
}

TEST(Pool2D, MaxBackwardRoutesToArgmax) {
  Pool2D pool("p", PoolKind::kMax, 2, 2);
  const Tensor in = Tensor::from_data(Shape{1, 1, 2, 2}, {1, 9, 3, 4});
  pool.forward(in, true);
  const Tensor grad = Tensor::from_data(Shape{1, 1, 1, 1}, {5.0f});
  const Tensor gi = pool.backward(grad);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 5.0f);
  EXPECT_FLOAT_EQ(gi[2], 0.0f);
  EXPECT_FLOAT_EQ(gi[3], 0.0f);
}

TEST(Pool2D, AvgBackwardSpreadsUniformly) {
  Pool2D pool("p", PoolKind::kAvg, 2, 2);
  const Tensor in = Tensor::from_data(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  pool.forward(in, true);
  const Tensor gi = pool.backward(Tensor::from_data(Shape{1, 1, 1, 1}, {4.f}));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(gi[i], 1.0f);
}

TEST(Pool2D, GradientSumConserved) {
  util::Rng rng(4);
  for (PoolKind kind : {PoolKind::kMax, PoolKind::kAvg}) {
    Pool2D pool("p", kind, 2, 2);
    Tensor in = Tensor::uniform(Shape{2, 3, 6, 6}, -1.f, 1.f, rng);
    const Tensor out = pool.forward(in, true);
    Tensor grad = Tensor::uniform(out.shape(), 0.f, 1.f, rng);
    const Tensor gi = pool.backward(grad);
    // Non-overlapping windows: upstream gradient mass is conserved.
    EXPECT_NEAR(gi.sum(), grad.sum(), 1e-3);
  }
}

TEST(Pool2D, RejectsBadWindow) {
  EXPECT_THROW(Pool2D("p", PoolKind::kMax, 0, 1), std::invalid_argument);
  Pool2D pool("p", PoolKind::kMax, 5, 5);
  EXPECT_THROW(pool.output_shape(Shape{1, 1, 4, 4}), std::invalid_argument);
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu("r");
  const Tensor in = Tensor::from_data(Shape{4}, {-2, -0.5f, 0, 3});
  const Tensor out = relu.forward(in, false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 0.0f);
  EXPECT_FLOAT_EQ(out[3], 3.0f);
}

TEST(ReLU, BackwardMasksByInputSign) {
  ReLU relu("r");
  const Tensor in = Tensor::from_data(Shape{4}, {-2, -0.5f, 0.1f, 3});
  relu.forward(in, true);
  const Tensor gi = relu.backward(Tensor::full(Shape{4}, 2.0f));
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 0.0f);
  EXPECT_FLOAT_EQ(gi[2], 2.0f);
  EXPECT_FLOAT_EQ(gi[3], 2.0f);
}

TEST(Pool2D, BackwardRejectsMismatchedGradShape) {
  for (PoolKind kind : {PoolKind::kMax, PoolKind::kAvg}) {
    Pool2D pool("pool7", kind, 2, 2);
    pool.forward(Tensor(Shape{2, 3, 4, 4}), true);
    // Larger, smaller and reshaped gradients all throw, naming the layer.
    for (const Shape& bad : {Shape{2, 3, 4, 4}, Shape{1, 3, 2, 2},
                             Shape{2, 3, 4, 1}, Shape{24}}) {
      try {
        pool.backward(Tensor(bad));
        ADD_FAILURE() << "no throw for " << bad.to_string();
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("pool7"), std::string::npos);
      }
    }
    EXPECT_NO_THROW(pool.backward(Tensor(Shape{2, 3, 2, 2})));
  }
}

TEST(ReLU, BackwardRejectsMismatchedGradShape) {
  ReLU relu("relu7");
  relu.forward(Tensor(Shape{2, 3, 4, 4}), true);
  for (const Shape& bad :
       {Shape{2, 3, 4, 5}, Shape{2, 3, 4, 3}, Shape{2, 48}}) {
    EXPECT_THROW(relu.backward(Tensor(bad)), std::invalid_argument);
  }
  try {
    relu.backward(Tensor(Shape{4, 3, 4, 4}));
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("relu7"), std::string::npos);
  }
  EXPECT_NO_THROW(relu.backward(Tensor(Shape{2, 3, 4, 4})));
}

TEST(ReLU, OutputShapeIdentity) {
  ReLU relu("r");
  EXPECT_EQ(relu.output_shape(Shape{2, 3, 4, 5}), Shape({2, 3, 4, 5}));
}

TEST(Flatten, ForwardBackwardRoundTrip) {
  Flatten flat("f");
  util::Rng rng(1);
  Tensor in = Tensor::uniform(Shape{2, 3, 4, 5}, -1.f, 1.f, rng);
  const Tensor out = flat.forward(in, true);
  EXPECT_EQ(out.shape(), Shape({2, 60}));
  const Tensor gi = flat.backward(out);
  EXPECT_EQ(gi.shape(), in.shape());
  EXPECT_LT(tensor::max_abs_diff(gi, in), 1e-7f);
}

// ---------------------------------------------------------------------------
// PoolReluExact: the fanned-out ReLU and Pool2D against serial loops written
// here, compared with memcmp at several pool sizes. Inputs take few distinct
// values (max-pool ties) plus -0.0, NaN and -inf.

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

Tensor awkward_values(const Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(shape);
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {-0.0f, 0.0f, std::nanf(""), -inf};
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const double u = rng.uniform();
    t[i] = u < 0.1 ? specials[static_cast<std::size_t>(u * 40)]
                   : std::round(static_cast<float>(u) * 6.0f) - 3.0f;
  }
  return t;
}

struct PoolRef {
  Tensor out, grad_in;
};

// Scan order (n, c, oh, ow, kh, kw); strict > keeps the first maximum, and a
// window with nothing above -inf routes its gradient to its first cell.
PoolRef serial_pool(PoolKind kind, std::size_t win, std::size_t stride,
                    const Tensor& in, const Tensor& grad_out) {
  const std::size_t N = in.shape()[0], C = in.shape()[1];
  const std::size_t H = in.shape()[2], W = in.shape()[3];
  const std::size_t OH = grad_out.shape()[2], OW = grad_out.shape()[3];
  PoolRef r{Tensor(grad_out.shape()), Tensor(in.shape(), 0.0f)};
  std::size_t o = 0;
  for (std::size_t n = 0; n < N; ++n) {
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t oh = 0; oh < OH; ++oh) {
        for (std::size_t ow = 0; ow < OW; ++ow, ++o) {
          const std::size_t first = ((n * C + c) * H + oh * stride) * W +
                                    ow * stride;
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = first;
          float acc = 0.0f;
          for (std::size_t kh = 0; kh < win; ++kh) {
            for (std::size_t kw = 0; kw < win; ++kw) {
              const std::size_t idx = first + kh * W + kw;
              acc += in[idx];
              if (in[idx] > best) {
                best = in[idx];
                best_idx = idx;
              }
            }
          }
          if (kind == PoolKind::kMax) {
            r.out[o] = best;
            r.grad_in[best_idx] += grad_out[o];
            continue;
          }
          r.out[o] = acc / static_cast<float>(win * win);
          const float g = grad_out[o] * (1.0f / static_cast<float>(win * win));
          for (std::size_t kh = 0; kh < win; ++kh) {
            for (std::size_t kw = 0; kw < win; ++kw) {
              r.grad_in[first + kh * W + kw] += g;
            }
          }
        }
      }
    }
  }
  return r;
}

class PoolReluExact : public ::testing::Test {
 protected:
  void TearDown() override { util::ThreadPool::set_num_threads(0); }
};

TEST_F(PoolReluExact, PoolMatchesSerialScanBitForBit) {
  struct Case {
    PoolKind kind;
    std::size_t win, stride;
    Shape in;
  };
  const Case cases[] = {
      {PoolKind::kMax, 2, 2, Shape{4, 5, 12, 10}},  // ConvNet-style
      {PoolKind::kMax, 3, 2, Shape{3, 4, 11, 13}},  // stride < window
      {PoolKind::kMax, 3, 1, Shape{2, 3, 9, 9}},    // heavy overlap
      {PoolKind::kAvg, 2, 2, Shape{4, 5, 12, 10}},
      {PoolKind::kAvg, 3, 2, Shape{3, 4, 11, 13}},
      {PoolKind::kMax, 2, 3, Shape{2, 3, 8, 8}},    // stride > window
  };
  for (const Case& c : cases) {
    Pool2D pool("p", c.kind, c.win, c.stride);
    Tensor in = awkward_values(c.in, 11);
    // Windows with nothing above -inf: all NaN in plane 1, all -inf in
    // plane 2 (each its window at output (1, 1)).
    const std::size_t H = c.in[2], W = c.in[3];
    for (std::size_t kh = 0; kh < c.win; ++kh) {
      for (std::size_t kw = 0; kw < c.win; ++kw) {
        const std::size_t cell = (c.stride + kh) * W + c.stride + kw;
        in[1 * H * W + cell] = std::nanf("");
        in[2 * H * W + cell] = -std::numeric_limits<float>::infinity();
      }
    }
    const Tensor grad = awkward_values(pool.output_shape(c.in), 12);
    const PoolRef want = serial_pool(c.kind, c.win, c.stride, in, grad);
    for (const std::size_t threads : {1u, 3u, 4u}) {
      SCOPED_TRACE(std::string(c.kind == PoolKind::kMax ? "max" : "avg") +
                   " win " + std::to_string(c.win) + " stride " +
                   std::to_string(c.stride) + " pool " +
                   std::to_string(threads));
      util::ThreadPool::set_num_threads(threads);
      EXPECT_TRUE(same_bits(pool.forward(in, true), want.out)) << "forward";
      EXPECT_TRUE(same_bits(pool.backward(grad), want.grad_in)) << "backward";
      // An inference forward gives the same output and keeps the training
      // forward's routing.
      EXPECT_TRUE(same_bits(pool.forward(in, false), want.out));
      EXPECT_TRUE(same_bits(pool.backward(grad), want.grad_in));
    }
  }
}

TEST_F(PoolReluExact, ReluMatchesSerialLoopBitForBit) {
  // More than one fan-out chunk, with a ragged last chunk.
  const Shape shape{3, 5, 37, 41};
  const Tensor in = awkward_values(shape, 21);
  const Tensor grad = awkward_values(shape, 22);
  Tensor want_out(shape), want_grad(shape);
  for (std::size_t i = 0; i < in.numel(); ++i) {
    want_out[i] = in[i] < 0.0f ? 0.0f : in[i];
    want_grad[i] = in[i] <= 0.0f ? 0.0f : grad[i];
  }
  ReLU relu("r");
  for (const std::size_t threads : {1u, 3u, 4u}) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    util::ThreadPool::set_num_threads(threads);
    EXPECT_TRUE(same_bits(relu.forward(in, true), want_out)) << "forward";
    EXPECT_TRUE(same_bits(relu.backward(grad), want_grad)) << "backward";
    EXPECT_TRUE(same_bits(relu.forward(in, false), want_out));
  }
}

}  // namespace
}  // namespace ls::nn
