// Integration tests for the training loop. These train tiny networks on
// tiny synthetic tasks, so they run in a couple of seconds total.

#include "train/trainer.hpp"

#include <gtest/gtest.h>

#include "core/weight_groups.hpp"
#include "nn/model_zoo.hpp"
#include "util/rng.hpp"

namespace ls::train {
namespace {

data::Dataset tiny_task(std::uint64_t sample_seed) {
  data::SyntheticSpec s;
  s.num_classes = 4;
  s.channels = 1;
  s.height = 8;
  s.width = 8;
  s.samples = 160;
  s.noise = 0.15;
  s.max_shift = 1;
  s.seed = 5;
  s.sample_seed = sample_seed;
  return data::make_synthetic(s);
}

nn::NetSpec tiny_spec() {
  nn::NetSpec spec;
  spec.name = "tiny";
  spec.dataset = "tiny";
  spec.input = {1, 8, 8};
  spec.layers = {nn::LayerSpec::flatten("flat"), nn::LayerSpec::fc("fc1", 32),
                 nn::LayerSpec::relu("r1"), nn::LayerSpec::fc("fc2", 4)};
  return spec;
}

TEST(Trainer, LossDecreasesAndAccuracyBeatsChance) {
  util::Rng rng(1);
  nn::Network net = nn::build_network(tiny_spec(), rng);
  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 16;
  const data::Dataset train_set = tiny_task(1);
  const TrainReport report =
      train_classifier(net, train_set, tiny_task(2), cfg);
  ASSERT_EQ(report.epoch_loss.size(), 4u);
  EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front());
  EXPECT_GT(report.test_accuracy, 0.5);  // chance is 0.25
  EXPECT_GE(evaluate(net, train_set), report.test_accuracy - 0.1);
}

TEST(Trainer, DeterministicAcrossRuns) {
  TrainConfig cfg;
  cfg.epochs = 2;
  util::Rng rng_a(3), rng_b(3);
  nn::Network a = nn::build_network(tiny_spec(), rng_a);
  nn::Network b = nn::build_network(tiny_spec(), rng_b);
  const auto ra = train_classifier(a, tiny_task(1), tiny_task(2), cfg);
  const auto rb = train_classifier(b, tiny_task(1), tiny_task(2), cfg);
  EXPECT_EQ(ra.test_accuracy, rb.test_accuracy);
  EXPECT_EQ(ra.epoch_loss, rb.epoch_loss);
}

TEST(Trainer, GroupLassoProducesDeadBlocksAndReport) {
  util::Rng rng(5);
  const nn::NetSpec spec = tiny_spec();
  nn::Network net = nn::build_network(spec, rng);
  auto sets = core::build_group_sets(net, spec, 4);
  GroupLassoRegularizer reg(std::move(sets), uniform_mask(4), 1.0);
  TrainConfig cfg;
  cfg.epochs = 4;
  const TrainReport report =
      train_classifier(net, tiny_task(1), tiny_task(2), cfg, &reg);
  double dead = 0.0;
  for (const auto& set : reg.groups()) {
    dead = std::max(dead, set.off_diagonal_dead_fraction());
  }
  EXPECT_GT(dead, 0.1);
  EXPECT_GT(report.weight_sparsity, 0.01);
  EXPECT_FALSE(report.epoch_penalty.empty());
  // Penalty falls as blocks die.
  EXPECT_LT(report.epoch_penalty.back(), report.epoch_penalty.front());
}

TEST(Trainer, MaskedLassoSparesDiagonal) {
  util::Rng rng(6);
  const nn::NetSpec spec = tiny_spec();
  nn::Network net = nn::build_network(spec, rng);
  GroupLassoRegularizer reg(core::build_group_sets(net, spec, 4),
                            uniform_mask(4), 2.0);
  TrainConfig cfg;
  cfg.epochs = 3;
  train_classifier(net, tiny_task(1), tiny_task(2), cfg, &reg);
  for (const auto& set : reg.groups()) {
    for (std::size_t d = 0; d < 4; ++d) {
      EXPECT_FALSE(set.block_dead(d, d)) << set.layer_name << " diag " << d;
    }
  }
}

TEST(Trainer, SubgradientModeAlsoTrains) {
  util::Rng rng(7);
  const nn::NetSpec spec = tiny_spec();
  nn::Network net = nn::build_network(spec, rng);
  GroupLassoRegularizer reg(core::build_group_sets(net, spec, 4),
                            uniform_mask(4), 0.05, LassoMode::kSubgradient);
  TrainConfig cfg;
  cfg.epochs = 3;
  const auto report =
      train_classifier(net, tiny_task(1), tiny_task(2), cfg, &reg);
  EXPECT_GT(report.test_accuracy, 0.5);
}

TEST(Evaluate, MatchesNetworkAccuracy) {
  util::Rng rng(8);
  nn::Network net = nn::build_network(tiny_spec(), rng);
  const data::Dataset test = tiny_task(2);
  const double batched = evaluate(net, test, 13);  // odd batch size
  const double direct = net.accuracy(test.images, test.labels);
  EXPECT_DOUBLE_EQ(batched, direct);
}

TEST(Trainer, LrDecayApplied) {
  // With lr_decay ~ 0 (and no momentum carrying residual velocity) the lr
  // collapses after epoch 0 and later epochs change nothing.
  util::Rng rng(9);
  nn::Network net = nn::build_network(tiny_spec(), rng);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.lr_decay = 1e-12;
  cfg.sgd.momentum = 0.0;
  cfg.sgd.weight_decay = 0.0;
  const auto report = train_classifier(net, tiny_task(1), tiny_task(2), cfg);
  EXPECT_EQ(report.epoch_loss.size(), 3u);
  EXPECT_NEAR(report.epoch_loss[1], report.epoch_loss[2], 0.02);
}

}  // namespace
}  // namespace ls::train
