// Parity suite: the im2col+GEMM conv kernel must match the direct loop nest
// below within 1e-4 (forward output, input gradient, weight/bias gradients)
// across strides, padding, groups, and odd spatial shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

struct ParityCase {
  std::string name;
  std::size_t N, cin, H, W;
  std::size_t cout, k, stride, pad, groups;
};

const std::vector<ParityCase> kCases = {
    {"lenet_c1", 2, 1, 28, 28, 16, 5, 1, 0, 1},
    {"lenet_c2", 2, 16, 12, 12, 32, 5, 1, 0, 1},
    {"strided", 3, 3, 15, 15, 8, 3, 2, 1, 1},
    {"padded", 2, 4, 9, 9, 6, 3, 1, 2, 1},
    {"grouped", 2, 8, 11, 11, 12, 3, 1, 1, 4},
    {"grouped_strided", 1, 6, 13, 10, 6, 5, 2, 2, 3},
    {"one_by_one", 2, 5, 7, 7, 9, 1, 1, 0, 1},
    {"odd_everything", 1, 3, 17, 11, 7, 3, 3, 1, 1},
    {"single_pixel_out", 1, 2, 5, 5, 4, 5, 1, 0, 2},
};

Conv2DConfig make_cfg(const ParityCase& c) {
  Conv2DConfig cfg;
  cfg.in_channels = c.cin;
  cfg.out_channels = c.cout;
  cfg.kernel = c.k;
  cfg.stride = c.stride;
  cfg.pad = c.pad;
  cfg.groups = c.groups;
  return cfg;
}

float max_diff(const tensor::Tensor& a, const tensor::Tensor& b) {
  return tensor::max_abs_diff(a, b);
}

// The direct 7-deep loop nest over (n, g, oc, oh, ow, ic, kh, kw): the
// oracle the GEMM path is checked against.
struct Naive {
  const Conv2DConfig& cfg;
  const Tensor& weight;  ///< {Cout, Cin/groups, K, K}

  std::size_t out_dim(std::size_t in) const {
    return (in + 2 * cfg.pad - cfg.kernel) / cfg.stride + 1;
  }

  // Calls fn(out, in, w) with the flat offsets of every in-bounds tap.
  template <class Fn>
  void for_taps(std::size_t N, std::size_t H, std::size_t W, Fn&& fn) const {
    const std::size_t K = cfg.kernel, OH = out_dim(H), OW = out_dim(W);
    const std::size_t cin_g = cfg.in_channels / cfg.groups;
    const std::size_t cout_g = cfg.out_channels / cfg.groups;
    for (std::size_t n = 0; n < N; ++n) {
      for (std::size_t oc = 0; oc < cfg.out_channels; ++oc) {
        const std::size_t g = oc / cout_g;
        for (std::size_t oh = 0; oh < OH; ++oh) {
          for (std::size_t ow = 0; ow < OW; ++ow) {
            const std::size_t o =
                ((n * cfg.out_channels + oc) * OH + oh) * OW + ow;
            for (std::size_t icg = 0; icg < cin_g; ++icg) {
              const std::size_t ic = g * cin_g + icg;
              for (std::size_t kh = 0; kh < K; ++kh) {
                for (std::size_t kw = 0; kw < K; ++kw) {
                  const std::size_t ih = oh * cfg.stride + kh;
                  const std::size_t iw = ow * cfg.stride + kw;
                  if (ih < cfg.pad || ih >= H + cfg.pad || iw < cfg.pad ||
                      iw >= W + cfg.pad) {
                    continue;
                  }
                  fn(o,
                     ((n * cfg.in_channels + ic) * H + ih - cfg.pad) * W +
                         iw - cfg.pad,
                     ((oc * cin_g + icg) * K + kh) * K + kw);
                }
              }
            }
          }
        }
      }
    }
  }

  Tensor forward(const Tensor& in, const Tensor& bias) const {
    const std::size_t N = in.shape()[0], H = in.shape()[2], W = in.shape()[3];
    Tensor out(Shape{N, cfg.out_channels, out_dim(H), out_dim(W)}, 0.0f);
    for (std::size_t o = 0; o < out.numel(); ++o) {
      out.data()[o] = bias[o / (out_dim(H) * out_dim(W)) % cfg.out_channels];
    }
    for_taps(N, H, W,
             [&](std::size_t o, std::size_t x, std::size_t w) {
               out.data()[o] += in.data()[x] * weight.data()[w];
             });
    return out;
  }

  // Input, weight and bias gradients of a fixed upstream gradient.
  void backward(const Tensor& in, const Tensor& grad_out, Tensor& grad_in,
                Tensor& grad_w, Tensor& grad_b) const {
    const std::size_t N = in.shape()[0], H = in.shape()[2], W = in.shape()[3];
    grad_in = Tensor(in.shape(), 0.0f);
    grad_w = Tensor(weight.shape(), 0.0f);
    grad_b = Tensor(Shape{cfg.out_channels}, 0.0f);
    const std::size_t ohw = out_dim(H) * out_dim(W);
    for (std::size_t o = 0; o < grad_out.numel(); ++o) {
      grad_b[o / ohw % cfg.out_channels] += grad_out.data()[o];
    }
    for_taps(N, H, W,
             [&](std::size_t o, std::size_t x, std::size_t w) {
               const float go = grad_out.data()[o];
               grad_w.data()[w] += go * in.data()[x];
               grad_in.data()[x] += go * weight.data()[w];
             });
  }
};

TEST(ConvGemmParity, ForwardAndBackwardMatchNaive) {
  constexpr float kTol = 1e-4f;
  for (const ParityCase& c : kCases) {
    SCOPED_TRACE(c.name);
    util::Rng rng_w(99), rng_in(7);
    const Conv2DConfig cfg = make_cfg(c);
    Conv2D conv("g", cfg, rng_w);
    const Naive naive{cfg, conv.weight().value};

    const Tensor in =
        Tensor::uniform(Shape{c.N, c.cin, c.H, c.W}, -1.f, 1.f, rng_in);
    const Tensor out_g = conv.forward(in, /*training=*/true);
    const Tensor out_n = naive.forward(in, conv.bias().value);
    ASSERT_EQ(out_g.shape(), out_n.shape());
    EXPECT_LT(max_diff(out_g, out_n), kTol);

    // Backward from a fixed upstream gradient.
    util::Rng rng_go(13);
    const Tensor grad_out =
        Tensor::uniform(out_g.shape(), -1.f, 1.f, rng_go);
    const Tensor din_g = conv.backward(grad_out);
    Tensor din_n, dw_n, db_n;
    naive.backward(in, grad_out, din_n, dw_n, db_n);
    EXPECT_LT(max_diff(din_g, din_n), kTol) << "input gradient";
    EXPECT_LT(max_diff(conv.weight().grad, dw_n), kTol) << "weight gradient";
    EXPECT_LT(max_diff(conv.bias().grad, db_n), kTol) << "bias gradient";
  }
}

}  // namespace
}  // namespace ls::nn
