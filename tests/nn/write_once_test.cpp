// Write-once training tensors (DESIGN.md §4b): layer outputs and gradients
// are allocated without a fill and written once by the pool tasks that
// produce them, and conv backward runs its dW tiles and its (sample, group)
// data-gradient tasks in one fan-out.
//
//   * Checked builds poison Tensor::uninit with quiet NaN, so an element a
//     kernel forgets to write trips Network::forward's all_finite guard.
//   * Conv2D::backward and backward_params leave bit-identical weight and
//     bias gradients at every pool size, and every result matches the
//     1-thread run, for dense, sparse-armed and grouped convs, across a
//     short batch that reallocates the cached input and back.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "nn/conv2d.hpp"
#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "tensor/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Allocates its output without a fill and then writes all but the last
// element, as a kernel with an off-by-one bound would.
class SkipsLastElement final : public Layer {
 public:
  Tensor forward(const Tensor& in, bool) override {
    Tensor out = Tensor::uninit(in.shape());
    std::memcpy(out.data(), in.data(), (in.numel() - 1) * sizeof(float));
    return out;
  }
  Tensor backward(const Tensor& grad) override { return grad; }
  const std::string& name() const override { return name_; }
  Shape output_shape(const Shape& in) const override { return in; }

 private:
  std::string name_ = "skips_last";
};

class WriteOnce : public ::testing::Test {
 protected:
  void TearDown() override { util::ThreadPool::set_num_threads(0); }
};

TEST_F(WriteOnce, UninitIsPoisonedInCheckedBuilds) {
  if constexpr (!check::kEnabled) {
    GTEST_SKIP() << "Tensor::uninit is filled with NaN only under LS_CHECKS";
  }
  const Tensor t = Tensor::uninit(Shape{3, 5, 7});
  ASSERT_EQ(t.numel(), 105u);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    ASSERT_TRUE(std::isnan(t[i])) << "element " << i;
  }
  // The pooled layers may run on worker threads: re-execute, don't fork.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Network net("lazy_net");
  net.emplace<SkipsLastElement>();
  const Tensor in(Shape{2, 4}, 1.0f);
  EXPECT_DEATH(net.forward(in), "non-finite activations out of layer");
}

struct ConvCase {
  std::string name;
  std::size_t cin, cout, groups, sparse_parts;
};

// grad_in, weight.grad and bias.grad of one backward, plus the weight and
// bias gradients of backward_params on the same batch, each from the same
// non-zero starting gradients.
struct StepResult {
  Tensor grad_in, wg, bg, wg_params, bg_params;
};

StepResult step(Conv2D& conv, const Tensor& in, const Tensor& grad_out,
                const Tensor& wg0, const Tensor& bg0) {
  StepResult r;
  conv.weight().grad = wg0;
  conv.bias().grad = bg0;
  conv.forward(in, /*training=*/true);
  r.grad_in = conv.backward(grad_out);
  r.wg = conv.weight().grad;
  r.bg = conv.bias().grad;
  conv.weight().grad = wg0;
  conv.bias().grad = bg0;
  conv.forward(in, /*training=*/true);
  conv.backward_params(grad_out);
  r.wg_params = conv.weight().grad;
  r.bg_params = conv.bias().grad;
  return r;
}

TEST_F(WriteOnce, MergedBackwardIsThreadAndBatchInvariant) {
  const ConvCase cases[] = {
      {"dense", 6, 16, 1, 0},
      {"sparse_p4", 16, 16, 1, 4},
      {"grouped_g2", 8, 16, 2, 0},
      {"grouped_g4", 8, 24, 4, 0},
  };
  // Full, short (the cached input is reallocated), then full again.
  const std::size_t batches[] = {8, 3, 8};
  for (const ConvCase& c : cases) {
    SCOPED_TRACE(c.name);
    Conv2DConfig cfg;
    cfg.in_channels = c.cin;
    cfg.out_channels = c.cout;
    cfg.kernel = 3;
    cfg.pad = 1;
    cfg.groups = c.groups;
    util::Rng rng(41);
    Conv2D conv("conv", cfg, rng);
    if (c.sparse_parts > 0) {
      conv.set_sparsity_partition(c.sparse_parts);
      // Panels are 4 channels wide: kill the (p=0, c=0) and (p=1, c=2)
      // blocks of the {cout, cin, 3, 3} weight.
      for (std::size_t oc = 0; oc < 4; ++oc) {
        float* row = conv.weight().value.data() + oc * c.cin * 9;
        std::fill(row, row + 4 * 9, 0.0f);
        row = conv.weight().value.data() + (8 + oc) * c.cin * 9;
        std::fill(row + 4 * 9, row + 8 * 9, 0.0f);
      }
      conv.weight().bump();
    }
    const Tensor wg0 =
        Tensor::uniform(conv.weight().value.shape(), -1.f, 1.f, rng);
    const Tensor bg0 = Tensor::uniform(conv.bias().value.shape(), -1.f, 1.f,
                                       rng);
    std::vector<Tensor> ins, grads;
    for (std::size_t b = 0; b < std::size(batches); ++b) {
      // The third batch repeats the first one's data.
      util::Rng data_rng(b == 2 ? 100 : 100 + b);
      ins.push_back(Tensor::uniform(Shape{batches[b], c.cin, 10, 9}, -1.f,
                                    1.f, data_rng));
      grads.push_back(Tensor::uniform(conv.output_shape(ins.back().shape()),
                                      -1.f, 1.f, data_rng));
    }

    std::vector<StepResult> want;
    for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE("pool " + std::to_string(threads));
      util::ThreadPool::set_num_threads(threads);
      for (std::size_t b = 0; b < std::size(batches); ++b) {
        SCOPED_TRACE("batch " + std::to_string(b));
        const StepResult r = step(conv, ins[b], grads[b], wg0, bg0);
        EXPECT_TRUE(same_bits(r.wg_params, r.wg)) << "weight.grad";
        EXPECT_TRUE(same_bits(r.bg_params, r.bg)) << "bias.grad";
        EXPECT_TRUE(r.grad_in.all_finite()) << "grad_in";
        if (threads == 1) {
          want.push_back(r);
          continue;
        }
        EXPECT_TRUE(same_bits(r.grad_in, want[b].grad_in)) << "grad_in";
        EXPECT_TRUE(same_bits(r.wg, want[b].wg)) << "weight.grad";
        EXPECT_TRUE(same_bits(r.bg, want[b].bg)) << "bias.grad";
      }
    }
    // Back at full size after the short batch, the layer matches its own
    // first step bit for bit, and its short step matches a fresh layer's.
    EXPECT_TRUE(same_bits(want[2].grad_in, want[0].grad_in));
    EXPECT_TRUE(same_bits(want[2].wg, want[0].wg));
    EXPECT_TRUE(same_bits(want[2].bg, want[0].bg));
    util::Rng fresh_rng(41);
    Conv2D fresh("conv", cfg, fresh_rng);
    fresh.weight().value = conv.weight().value;
    fresh.weight().bump();
    if (c.sparse_parts > 0) fresh.set_sparsity_partition(c.sparse_parts);
    const StepResult short_alone = step(fresh, ins[1], grads[1], wg0, bg0);
    EXPECT_TRUE(same_bits(short_alone.grad_in, want[1].grad_in));
    EXPECT_TRUE(same_bits(short_alone.wg, want[1].wg));
    EXPECT_TRUE(same_bits(short_alone.bg, want[1].bg));
  }
}

}  // namespace
}  // namespace ls::nn
