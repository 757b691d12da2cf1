// Pins the conv packers of nn/gemm.hpp to per-element reference loops:
// im2col with a bounds test per element, im2col_masked's skipped channels
// (left untouched except the rows a straddling 4-aligned group reads),
// im2row gathered one pixel and one column at a time, and row2im_add
// looping over output pixels. Every comparison is a memcmp, so a packer
// that reorders row2im_add's additions or writes -0 for padding fails.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nn/gemm.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

using gemm::PackShape;

// Input coordinate of output position o at tap k, or -1 in padding.
std::ptrdiff_t tap(std::size_t o, std::size_t k, const PackShape& s,
                   std::size_t extent) {
  const std::ptrdiff_t i = static_cast<std::ptrdiff_t>(o * s.stride + k) -
                           static_cast<std::ptrdiff_t>(s.pad);
  return i < static_cast<std::ptrdiff_t>(extent) ? i : -1;
}

float im2row_at(const PackShape& s, const float* in, std::size_t pixel,
                std::size_t j) {
  const std::size_t k2 = s.K * s.K;
  const std::ptrdiff_t ih = tap(pixel / s.OW, j % k2 / s.K, s, s.H);
  const std::ptrdiff_t iw = tap(pixel % s.OW, j % s.K, s, s.W);
  if (ih < 0 || iw < 0) return 0.0f;
  return in[(j / k2 * s.H + static_cast<std::size_t>(ih)) * s.W +
            static_cast<std::size_t>(iw)];
}

void ref_im2col(const PackShape& s, const float* in, float* col,
                const std::uint8_t* skip) {
  for (std::size_t j = 0; j < s.patch(); ++j) {
    if (skip != nullptr && skip[j / (s.K * s.K)]) continue;
    for (std::size_t p = 0; p < s.cols(); ++p) {
      col[j * s.cols() + p] = im2row_at(s, in, p, j);
    }
  }
}

// im2col_masked's boundary rows: in a maximal skipped channel run, the rows
// before the first 4-aligned row and from the last 4-aligned row on.
void ref_zero_boundary_rows(const PackShape& s, float* col,
                            const std::uint8_t* skip) {
  const std::size_t k2 = s.K * s.K;
  for (std::size_t c = 0; c < s.channels;) {
    if (!skip[c]) {
      ++c;
      continue;
    }
    std::size_t b = c;
    while (b < s.channels && skip[b]) ++b;
    for (std::size_t r = c * k2; r < b * k2; ++r) {
      if (r < ((c * k2 + 3) & ~std::size_t{3}) ||
          r >= (b * k2 & ~std::size_t{3})) {
        std::memset(col + r * s.cols(), 0, s.cols() * sizeof(float));
      }
    }
    c = b;
  }
}

void ref_row2im_add(const PackShape& s, const float* row, float* in_grad) {
  const std::size_t k2 = s.K * s.K;
  for (std::size_t p = 0; p < s.cols(); ++p) {
    for (std::size_t j = 0; j < s.patch(); ++j) {
      const std::ptrdiff_t ih = tap(p / s.OW, j % k2 / s.K, s, s.H);
      const std::ptrdiff_t iw = tap(p % s.OW, j % s.K, s, s.W);
      if (ih < 0 || iw < 0) continue;
      in_grad[(j / k2 * s.H + static_cast<std::size_t>(ih)) * s.W +
              static_cast<std::size_t>(iw)] += row[p * s.patch() + j];
    }
  }
}

std::vector<float> random_vec(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  return v;
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

PackShape shape(std::size_t channels, std::size_t H, std::size_t W,
                std::size_t K, std::size_t stride, std::size_t pad) {
  PackShape s;
  s.channels = channels;
  s.H = H;
  s.W = W;
  s.K = K;
  s.stride = stride;
  s.pad = pad;
  s.OH = (H + 2 * pad - K) / stride + 1;
  s.OW = (W + 2 * pad - K) / stride + 1;
  return s;
}

std::vector<PackShape> shapes() {
  // Planes of fewer than 8 floats per remaining row, then a seeded grid.
  std::vector<PackShape> out = {shape(1, 3, 3, 2, 1, 0),
                                shape(2, 2, 3, 1, 1, 0),
                                shape(3, 4, 2, 3, 1, 1),
                                shape(1, 2, 9, 2, 1, 0)};
  util::Rng rng(11);
  for (const std::size_t K : {1, 2, 3, 5, 7}) {
    for (const std::size_t stride : {1, 2, 3, 4}) {
      for (std::size_t pad = 0; pad < K; ++pad) {
        const std::size_t channels = 1 + rng.uniform_index(4);
        std::size_t H = K + rng.uniform_index(9) - pad;
        const std::size_t W = H + 1 + rng.uniform_index(12);
        if (H + 2 * pad < K) H = K - 2 * pad;
        out.push_back(shape(channels, H, W, K, stride, pad));
      }
    }
  }
  return out;
}

std::string name(const PackShape& s) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "C%zu H%zu W%zu K%zu stride %zu pad %zu",
                s.channels, s.H, s.W, s.K, s.stride, s.pad);
  return buf;
}

TEST(Packers, MatchReferenceLoops) {
  util::Rng rng(3);
  const float poison = -1234.5f;
  for (const PackShape& s : shapes()) {
    SCOPED_TRACE(name(s));
    const std::vector<float> in = random_vec(s.channels * s.H * s.W, rng);
    const std::size_t col_n = s.patch() * s.cols();

    // 16 guard floats after each output catch a write past its end.
    std::vector<float> col(col_n + 16, poison), want(col_n + 16, poison);
    gemm::im2col(s, in.data(), col.data());
    ref_im2col(s, in.data(), want.data(), nullptr);
    EXPECT_TRUE(same_bits(col.data(), want.data(), col.size())) << "im2col";

    std::vector<std::uint8_t> skip(s.channels);
    for (std::uint8_t& x : skip) x = rng.uniform() < 0.5 ? 1 : 0;
    col.assign(col.size(), poison);
    want.assign(want.size(), poison);
    gemm::im2col_masked(s, in.data(), col.data(), skip.data());
    ref_im2col(s, in.data(), want.data(), skip.data());
    ref_zero_boundary_rows(s, want.data(), skip.data());
    EXPECT_TRUE(same_bits(col.data(), want.data(), col.size()))
        << "im2col_masked";

    // Every width at every strip offset (and two unaligned ones): the
    // strips hold im2row's columns, and pack() writes nothing past size().
    std::vector<std::size_t> offsets = {1, 5};
    for (std::size_t j0 = 0; j0 < s.patch(); j0 += 16) offsets.push_back(j0);
    for (const std::size_t j0 : offsets) {
      for (std::size_t n = 1; j0 + n <= s.patch(); ++n) {
        const gemm::Im2rowCols packer(s, j0, n);
        ASSERT_EQ(packer.strips(), (n + 15) / 16);
        std::vector<float> strips(packer.size() + 16, poison);
        packer.pack(in.data(), strips.data());
        bool ok = true;
        for (std::size_t t = 0; t < n; ++t) {
          const float* strip = strips.data() + t / 16 * s.cols() * 16;
          for (std::size_t p = 0; p < s.cols(); ++p) {
            const float want_v = im2row_at(s, in.data(), p, j0 + t);
            ok = ok && same_bits(&strip[p * 16 + t % 16], &want_v, 1);
          }
        }
        for (std::size_t i = packer.size(); i < strips.size(); ++i) {
          ok = ok && strips[i] == poison;
        }
        EXPECT_TRUE(ok) << "Im2rowCols j0 " << j0 << " n " << n;
      }
    }

    const std::vector<float> row = random_vec(s.cols() * s.patch(), rng);
    std::vector<float> grad = random_vec(s.channels * s.H * s.W + 16, rng);
    std::vector<float> grad_want = grad;
    gemm::row2im_add(s, row.data(), grad.data());
    ref_row2im_add(s, row.data(), grad_want.data());
    EXPECT_TRUE(same_bits(grad.data(), grad_want.data(), grad.size()))
        << "row2im_add";
  }
}

}  // namespace
}  // namespace ls::nn
