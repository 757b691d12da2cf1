// Pins Conv2D's GEMM backward bit-identical to the serial per-sample loop:
// for every sample, then every group, pack im2row, accumulate dW with one
// gemm_nn, add the bias sums, compute dRow with gemm_tn (sparse when armed)
// and scatter it with row2im_add. The sample-parallel kernel must only
// change which thread computes an element, never its arithmetic, so
// grad_in, weight.grad and bias.grad are compared with memcmp at several
// pool sizes. backward_params(), the first layer's input-gradient-free
// backward, must leave the same weight and bias gradients.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nn/block_sparsity.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "tensor/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

struct ExactCase {
  std::string name;
  std::size_t N, cin, H, W;
  std::size_t cout, k, stride, pad, groups;
  std::size_t sparse_parts = 0;  ///< 0 = dense; else armed with dead blocks
};

const std::vector<ExactCase> kCases = {
    // The parity suite's shapes (tests/nn/conv_gemm_parity_test.cpp).
    {"lenet_c1", 2, 1, 28, 28, 16, 5, 1, 0, 1},
    {"lenet_c2", 2, 16, 12, 12, 32, 5, 1, 0, 1},
    {"strided", 3, 3, 15, 15, 8, 3, 2, 1, 1},
    {"padded", 2, 4, 9, 9, 6, 3, 1, 2, 1},
    {"grouped", 2, 8, 11, 11, 12, 3, 1, 1, 4},
    {"grouped_strided", 1, 6, 13, 10, 6, 5, 2, 2, 3},
    {"one_by_one", 2, 5, 7, 7, 9, 1, 1, 0, 1},
    {"odd_everything", 1, 3, 17, 11, 7, 3, 3, 1, 1},
    {"single_pixel_out", 1, 2, 5, 5, 4, 5, 1, 0, 2},
    // ConvNet-expt conv1-3 at the trainer's batch.
    {"convnet_conv1", 32, 3, 32, 32, 16, 5, 1, 2, 1},
    {"convnet_conv2", 32, 16, 16, 16, 32, 3, 1, 1, 1},
    {"convnet_conv3", 32, 32, 8, 8, 64, 3, 1, 1, 1},
    // ohw % 4 != 0, with row counts that leave a ragged last dW tile.
    {"ohw25_cout20", 5, 4, 7, 7, 20, 3, 1, 0, 1},
    {"ohw49_cout13", 6, 6, 9, 9, 13, 3, 1, 0, 1},
    // Grouped with >= 8 output channels per group (tiled rows per group).
    {"grouped_cout_g20", 4, 8, 10, 10, 40, 3, 1, 1, 2},
    // A large image: 4096 pixels per packed column.
    {"big_pack", 2, 3, 64, 64, 8, 5, 1, 2, 1},
    // Block-sparse armed with dead blocks (the data-gradient GEMM skips
    // them; the weight gradient stays dense).
    {"sparse_p4", 8, 16, 12, 12, 32, 3, 1, 1, 1, 4},
    {"sparse_convnet_conv2", 32, 16, 16, 16, 32, 3, 1, 1, 1, 4},
};

Conv2DConfig make_cfg(const ExactCase& c) {
  Conv2DConfig cfg;
  cfg.in_channels = c.cin;
  cfg.out_channels = c.cout;
  cfg.kernel = c.k;
  cfg.stride = c.stride;
  cfg.pad = c.pad;
  cfg.groups = c.groups;
  return cfg;
}

// Zeroes every (p, c) block with (p + 2c) % 3 == 0: a mix of dead blocks
// that leaves every consumer some live producers.
void kill_blocks(Param& w, const ExactCase& c) {
  const auto kb = balanced_bounds(c.cin, c.sparse_parts);
  const auto ob = balanced_bounds(c.cout, c.sparse_parts);
  const std::size_t kk = c.k * c.k;
  const std::size_t row_elems = c.cin * kk;
  for (std::size_t p = 0; p < c.sparse_parts; ++p) {
    for (std::size_t q = 0; q < c.sparse_parts; ++q) {
      if ((p + 2 * q) % 3 != 0) continue;
      for (std::size_t o = ob[q]; o < ob[q + 1]; ++o) {
        float* row = w.value.data() + o * row_elems;
        std::fill(row + kb[p] * kk, row + kb[p + 1] * kk, 0.0f);
      }
    }
  }
  w.bump();
}

struct Grads {
  Tensor grad_in;
  Tensor weight_grad;
  Tensor bias_grad;
};

// One sample/group's im2row matrix (ohw x ck2), zero in padding.
void im2row(const gemm::PackShape& s, const float* in, float* row) {
  std::size_t i = 0;
  for (std::size_t oh = 0; oh < s.OH; ++oh) {
    for (std::size_t ow = 0; ow < s.OW; ++ow) {
      for (std::size_t c = 0; c < s.channels; ++c) {
        for (std::size_t kh = 0; kh < s.K; ++kh) {
          for (std::size_t kw = 0; kw < s.K; ++kw, ++i) {
            const std::size_t ih = oh * s.stride + kh;
            const std::size_t iw = ow * s.stride + kw;
            const bool inside = ih >= s.pad && ih < s.H + s.pad &&
                                iw >= s.pad && iw < s.W + s.pad;
            row[i] = inside
                         ? in[(c * s.H + ih - s.pad) * s.W + iw - s.pad]
                         : 0.0f;
          }
        }
      }
    }
  }
}

// The serial per-sample backward the sample-parallel kernel replaced.
Grads serial_reference(const Conv2DConfig& cfg, const Tensor& in,
                       const Tensor& grad_out, const Tensor& weight,
                       Grads g0, const gemm::BlockMask* mask) {
  const std::size_t N = in.shape()[0];
  const std::size_t C = cfg.in_channels, OC = cfg.out_channels;
  const std::size_t H = in.shape()[2], W = in.shape()[3];
  const std::size_t cin_g = C / cfg.groups, cout_g = OC / cfg.groups;
  gemm::PackShape ps;
  ps.channels = cin_g;
  ps.H = H;
  ps.W = W;
  ps.OH = grad_out.shape()[2];
  ps.OW = grad_out.shape()[3];
  ps.K = cfg.kernel;
  ps.stride = cfg.stride;
  ps.pad = cfg.pad;
  const std::size_t ck2 = ps.patch(), ohw = ps.cols();
  std::vector<float> row(ohw * ck2), drow(ohw * ck2);
  const float* w_base = weight.data();
  float* wg_base = g0.weight_grad.data();
  for (std::size_t n = 0; n < N; ++n) {
    for (std::size_t g = 0; g < cfg.groups; ++g) {
      im2row(ps, in.data() + (n * C + g * cin_g) * H * W, row.data());
      const float* go_g = grad_out.data() + (n * OC + g * cout_g) * ohw;
      float* wg_g = wg_base + g * cout_g * ck2;
      const float* w_g = w_base + g * cout_g * ck2;
      gemm::gemm_nn(cout_g, ck2, ohw, go_g, ohw, row.data(), ck2, wg_g, ck2,
                    true, true);
      if (cfg.bias) {
        for (std::size_t ocg = 0; ocg < cout_g; ++ocg) {
          float acc = 0.0f;
          for (std::size_t s = 0; s < ohw; ++s) acc += go_g[ocg * ohw + s];
          g0.bias_grad[g * cout_g + ocg] += acc;
        }
      }
      if (mask != nullptr) {
        gemm::gemm_tn_sparse(ohw, ck2, cout_g, go_g, ohw, w_g, ck2,
                             drow.data(), ck2, false, true, *mask);
      } else {
        gemm::gemm_tn(ohw, ck2, cout_g, go_g, ohw, w_g, ck2, drow.data(), ck2,
                      false, true);
      }
      gemm::row2im_add(ps, drow.data(),
                       g0.grad_in.data() + (n * C + g * cin_g) * H * W);
    }
  }
  return g0;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

class ConvBackwardExact : public ::testing::Test {
 protected:
  void TearDown() override { util::ThreadPool::set_num_threads(0); }
};

TEST_F(ConvBackwardExact, MatchesSerialSampleLoopBitForBit) {
  for (const ExactCase& c : kCases) {
    SCOPED_TRACE(c.name);
    util::Rng rng_w(99), rng_in(7), rng_go(13), rng_g0(5);
    Conv2D conv("c", make_cfg(c), rng_w);
    if (c.sparse_parts > 0) {
      conv.set_sparsity_partition(c.sparse_parts);
      kill_blocks(conv.weight(), c);
    }
    const Tensor in =
        Tensor::uniform(Shape{c.N, c.cin, c.H, c.W}, -1.f, 1.f, rng_in);
    const Shape out_shape = conv.output_shape(in.shape());
    const Tensor grad_out = Tensor::uniform(out_shape, -1.f, 1.f, rng_go);
    // Non-zero starting gradients so accumulation is exercised.
    const Tensor dw0 =
        Tensor::uniform(conv.weight().value.shape(), -1.f, 1.f, rng_g0);
    const Tensor db0 =
        Tensor::uniform(conv.bias().value.shape(), -1.f, 1.f, rng_g0);

    // The reference uses the same dead-block bitmap the layer resolves.
    gemm::BlockMask mask;
    std::unique_ptr<BlockSparsity> sparsity;
    if (c.sparse_parts > 0) {
      sparsity = std::make_unique<BlockSparsity>(c.sparse_parts, c.cin,
                                                 c.cout, c.k * c.k);
      const BlockMap& map = sparsity->map(conv.weight());
      ASSERT_TRUE(map.engaged());
      mask = map.mask();
    }
    const bool armed = c.sparse_parts > 0;
    const Grads want = serial_reference(
        conv.config(), in, grad_out, conv.weight().value,
        {Tensor(in.shape(), 0.0f), dw0, db0}, armed ? &mask : nullptr);

    for (const std::size_t threads : {1u, 3u, 4u}) {
      SCOPED_TRACE("pool " + std::to_string(threads));
      util::ThreadPool::set_num_threads(threads);
      conv.weight().grad = dw0;
      conv.bias().grad = db0;
      conv.forward(in, /*training=*/true);
      const Tensor grad_in = conv.backward(grad_out);
      EXPECT_TRUE(same_bits(grad_in, want.grad_in)) << "grad_in";
      EXPECT_TRUE(same_bits(conv.weight().grad, want.weight_grad))
          << "weight.grad";
      EXPECT_TRUE(same_bits(conv.bias().grad, want.bias_grad))
          << "bias.grad";

      conv.weight().grad = dw0;
      conv.bias().grad = db0;
      conv.forward(in, /*training=*/true);
      conv.backward_params(grad_out);
      EXPECT_TRUE(same_bits(conv.weight().grad, want.weight_grad))
          << "weight.grad without input gradient";
      EXPECT_TRUE(same_bits(conv.bias().grad, want.bias_grad))
          << "bias.grad without input gradient";
    }
  }
}

}  // namespace
}  // namespace ls::nn
