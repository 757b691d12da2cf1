#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "nn/activations.hpp"
#include "nn/fc.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

Network tiny_net(util::Rng& rng) {
  Network net("tiny");
  net.emplace<FullyConnected>("fc1", 4, 6, rng);
  net.emplace<ReLU>("relu1");
  net.emplace<FullyConnected>("fc2", 6, 3, rng);
  return net;
}

TEST(Network, ForwardShape) {
  util::Rng rng(1);
  Network net = tiny_net(rng);
  const Tensor out = net.forward(Tensor(Shape{5, 4}));
  EXPECT_EQ(out.shape(), Shape({5, 3}));
  EXPECT_EQ(net.num_layers(), 3u);
}

TEST(Network, ParamsCollectsAllLayers) {
  util::Rng rng(1);
  Network net = tiny_net(rng);
  EXPECT_EQ(net.params().size(), 4u);  // two fc layers x (w, b)
  EXPECT_EQ(net.num_params(), 4u * 6 + 6 + 6u * 3 + 3);
}

TEST(Network, LayerByName) {
  util::Rng rng(1);
  Network net = tiny_net(rng);
  EXPECT_EQ(net.layer_by_name("fc2").name(), "fc2");
  EXPECT_THROW(net.layer_by_name("nope"), std::invalid_argument);
}

TEST(Network, ZeroGradClearsGradients) {
  util::Rng rng(1);
  Network net = tiny_net(rng);
  const Tensor out = net.forward(Tensor::full(Shape{2, 4}, 1.0f), true);
  net.backward(Tensor::full(out.shape(), 1.0f));
  bool any_nonzero = false;
  for (Param* p : net.params()) {
    if (p->grad.max_abs() > 0.0f) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
  net.zero_grad();
  for (Param* p : net.params()) EXPECT_EQ(p->grad.max_abs(), 0.0f);
}

TEST(Network, EndToEndGradientCheck) {
  util::Rng rng(7);
  Network net = tiny_net(rng);
  Tensor in = Tensor::uniform(Shape{3, 4}, -1.f, 1.f, rng);
  const std::vector<std::uint32_t> labels{0, 2, 1};

  net.zero_grad();
  const Tensor logits = net.forward(in, true);
  const LossResult lr = softmax_cross_entropy(logits, labels);
  net.backward(lr.grad_logits);

  auto loss_value = [&]() {
    return softmax_cross_entropy(net.forward(in, false), labels).loss;
  };
  const float eps = 1e-3f;
  for (Param* p : net.params()) {
    for (std::size_t i = 0; i < p->value.numel(); i += 7) {
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const double lp = loss_value();
      p->value[i] = orig - eps;
      const double lm = loss_value();
      p->value[i] = orig;
      EXPECT_NEAR(p->grad[i], (lp - lm) / (2 * eps), 1e-3)
          << p->name << "[" << i << "]";
    }
  }
}

TEST(Network, AccuracyAgainstKnownLabels) {
  util::Rng rng(1);
  Network net("fixed");
  auto& fc = net.emplace<FullyConnected>("fc", 2, 2, rng);
  // Logit0 = x0, logit1 = x1 -> predicts argmax coordinate.
  fc.weight().value = Tensor::from_data(Shape{2, 2}, {1, 0, 0, 1});
  fc.params()[1]->value.zero();
  const Tensor in = Tensor::from_data(Shape{2, 2}, {3.f, 1.f, 0.f, 2.f});
  EXPECT_DOUBLE_EQ(net.accuracy(in, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(net.accuracy(in, {1, 1}), 0.5);
}

TEST(Network, SparsityCountsZeros) {
  util::Rng rng(1);
  Network net = tiny_net(rng);
  // Only the 9 zero-initialized biases out of 51 params are zero.
  EXPECT_NEAR(net.sparsity(), 9.0 / 51.0, 1e-9);
  for (Param* p : net.params()) p->value.zero();
  EXPECT_DOUBLE_EQ(net.sparsity(), 1.0);
}

// Network::backward skips the input gradient of its first parameterized
// layer (and the parameter-free layers before it); every parameter gradient
// must still equal the one a full backward() through every layer leaves.
void expect_full_backward_param_grads(Network& net, Network& manual,
                                      const Tensor& in) {
  const Tensor out = net.forward(in, /*training=*/true);
  manual.forward(in, /*training=*/true);
  util::Rng rng_g(7);
  const Tensor grad = Tensor::uniform(out.shape(), -1.f, 1.f, rng_g);

  net.backward(grad);
  Tensor g = grad;
  for (std::size_t i = manual.num_layers(); i-- > 0;) {
    g = manual.layer(i).backward(g);
  }
  EXPECT_EQ(g.shape(), in.shape());

  const auto got = net.params();
  const auto want = manual.params();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(got[p]->grad.shape(), want[p]->grad.shape());
    EXPECT_EQ(std::memcmp(got[p]->grad.data(), want[p]->grad.data(),
                          got[p]->grad.numel() * sizeof(float)),
              0)
        << got[p]->name;
  }
}

TEST(Network, FirstLayerSkipsInputGradient) {
  // ConvNet-expt (conv first) and the MLP (flatten, then fc).
  for (const NetSpec& spec : {convnet_expt_spec(), mlp_expt_spec()}) {
    SCOPED_TRACE(spec.name);
    util::Rng rng_a(5), rng_b(5), rng_in(6);
    Network net = build_network(spec, rng_a);
    Network manual = build_network(spec, rng_b);
    expect_full_backward_param_grads(
        net, manual,
        Tensor::uniform(Shape{3, spec.input.c, spec.input.h, spec.input.w},
                        -1.f, 1.f, rng_in));
  }
  // An fc-first net.
  util::Rng rng_a(5), rng_b(5), rng_in(6);
  Network net = tiny_net(rng_a);
  Network manual = tiny_net(rng_b);
  expect_full_backward_param_grads(
      net, manual, Tensor::uniform(Shape{5, 4}, -1.f, 1.f, rng_in));
}

}  // namespace
}  // namespace ls::nn
