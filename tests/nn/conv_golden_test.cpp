// Pins the bits of Conv2D's forward, data gradient and parameter gradients
// over a seeded grid of conv geometries: kernel 1, 3, 5 and 7; stride 1, 2
// and 4; every pad from 0 to K - 1; non-square inputs whose output width is
// 1, 3, 8 or 17; groups 1 and 2; and, for groups 1, a block mask armed with
// dead input channels (so im2col_masked skips channels and zeroes the rows
// a straddling 4-aligned group still reads). A 64-bit FNV-1a hash of every
// output must equal the hash the packers produced before they were
// rewritten to copy contiguous runs, under both the cpuid-selected GEMM
// clones and the portable one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "nn/block_sparsity.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

// Hash of the outputs of the per-element packing loops (im2col with a
// bounds test per element, the per-pixel im2row gather, and row2im_add
// looping over output pixels).
constexpr std::uint64_t kConvGoldenHash = 0x3b47b823bba4e4c1ull;

struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const Tensor& t) {
    for (std::size_t i = 0; i < t.numel(); ++i) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, t.data() + i, sizeof bits);
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
};

void fill_random(Tensor& t, util::Rng& rng) {
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
}

// Zeroes producer panel 1 (input channels 2 and 3) for every consumer, so
// those channels are skipped by im2col_masked, plus block (2, 0).
void kill_blocks(Conv2D& conv) {
  Param& w = conv.weight();
  const std::size_t cout = w.value.shape()[0];
  const std::size_t k2 = w.value.shape()[2] * w.value.shape()[3];
  const std::size_t ck2 = w.value.shape()[1] * k2;
  const auto zero = [&](std::size_t o, std::size_t c) {
    std::fill(w.value.data() + o * ck2 + c * k2,
              w.value.data() + o * ck2 + (c + 1) * k2, 0.0f);
  };
  for (std::size_t o = 0; o < cout; ++o) {
    zero(o, 2);
    zero(o, 3);
  }
  for (std::size_t o = 0; o < 2; ++o) {
    zero(o, 4);
    zero(o, 5);
  }
  w.bump();
}

std::uint64_t conv_golden_hash() {
  Hasher hash;
  util::Rng rng(35);
  const std::size_t kCin = 6, kCout = 4, kN = 2;
  for (const std::size_t K : {1, 3, 5, 7}) {
    for (std::size_t pad = 0; pad < K; ++pad) {
      for (const std::size_t stride : {1, 2, 4}) {
        for (const std::size_t OW : {1, 3, 8, 17}) {
          // W + 2 pad - K = (OW - 1) stride + slack, slack < stride.
          const std::size_t span =
              (OW - 1) * stride + rng.uniform_index(stride);
          if (span + K < 2 * pad + 1) continue;  // no W >= 1 gives this OW
          const std::size_t W = span + K - 2 * pad;
          std::size_t H = 1 + rng.uniform_index(3 * K + 6);
          if (H + 2 * pad < K) H = K - 2 * pad;
          if (H == W) ++H;
          for (const int variant : {0, 1, 2}) {  // groups 1, 2, masked
            Conv2DConfig cfg;
            cfg.in_channels = kCin;
            cfg.out_channels = kCout;
            cfg.kernel = K;
            cfg.stride = stride;
            cfg.pad = pad;
            cfg.groups = variant == 1 ? 2 : 1;
            Conv2D conv("golden", cfg, rng);
            fill_random(conv.bias().value, rng);
            if (variant == 2) {
              conv.set_sparsity_partition(3);
              kill_blocks(conv);
            }
            Tensor in(Shape{kN, kCin, H, W});
            fill_random(in, rng);
            const Tensor out = conv.forward(in, /*training=*/true);
            EXPECT_EQ(out.shape()[3], OW);
            hash.add(out);
            Tensor grad_out(out.shape());
            fill_random(grad_out, rng);
            hash.add(conv.backward(grad_out));
            conv.weight().grad.fill(0.0f);
            conv.bias().grad.fill(0.0f);
            conv.backward_params(grad_out);
            hash.add(conv.weight().grad);
            hash.add(conv.bias().grad);
          }
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

TEST(ConvGolden, DispatchedKernelsMatchPerElementPackers) {
  EXPECT_EQ(hex(conv_golden_hash()), hex(kConvGoldenHash))
      << "isa " << gemm::kernel_isa();
}

TEST(ConvGolden, PortableKernelsMatchPerElementPackers) {
  gemm::testing::use_portable_kernels(true);
  const std::uint64_t h = conv_golden_hash();
  gemm::testing::use_portable_kernels(false);
  EXPECT_EQ(hex(h), hex(kConvGoldenHash));
}

}  // namespace
}  // namespace ls::nn
