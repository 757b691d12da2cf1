// Tests for the hybrid strategy (grouping + masked lasso): a grouped net
// trained with the distance-masked group-Lasso, simulated as kHybrid.

#include <gtest/gtest.h>

#include "sim/experiment.hpp"

namespace ls::sim {
namespace {

nn::NetSpec micro_dense() {
  nn::NetSpec spec;
  spec.name = "microconv";
  spec.dataset = "microconv";
  spec.input = {1, 12, 12};
  spec.layers = {nn::LayerSpec::conv("conv1", 8, 3, 1, 1),
                 nn::LayerSpec::relu("r1"),
                 nn::LayerSpec::pool("p1", 2, 2),
                 nn::LayerSpec::conv("conv2", 16, 3, 1, 1),
                 nn::LayerSpec::relu("r2"),
                 nn::LayerSpec::flatten("flat"),
                 nn::LayerSpec::fc("fc1", 16),
                 nn::LayerSpec::relu("r3"),
                 nn::LayerSpec::fc("fc2", 4)};
  return spec;
}

data::Dataset micro_data(std::uint64_t sample_seed) {
  data::SyntheticSpec s;
  s.num_classes = 4;
  s.channels = 1;
  s.height = 12;
  s.width = 12;
  s.samples = 192;
  s.noise = 0.10;
  s.seed = 21;
  s.sample_seed = sample_seed;
  return data::make_synthetic(s);
}

TEST(Hybrid, BeatsGroupingAloneOnTraffic) {
  nn::NetSpec grouped = micro_dense();
  grouped.layers[3].groups = 2;  // conv2 grouped

  ExperimentConfig cfg;
  cfg.cores = 4;
  cfg.train.epochs = 8;
  cfg.lambda_mask = 0.8;
  cfg.seed = 11;

  const auto train_set = micro_data(1);
  const auto test_set = micro_data(2);
  TrainedNet dense_net =
      train(dense_recipe(micro_dense(), cfg), train_set, test_set);
  const auto base =
      simulate(dense_net, sched::Strategy::kStructureLevel, cfg, nullptr);
  TrainedNet grouped_net =
      train(dense_recipe(grouped, cfg), train_set, test_set);
  const auto grp =
      simulate(grouped_net, sched::Strategy::kStructureLevel, cfg, &base);
  TrainedNet hybrid_net = train(
      lasso_recipe(grouped, cfg, /*distance_aware=*/true), train_set, test_set);
  const auto hyb = simulate(hybrid_net, sched::Strategy::kHybrid, cfg, &base);

  // The hybrid sparsifies the FC transitions that grouping leaves dense.
  EXPECT_LE(hyb.result.traffic_bytes, grp.result.traffic_bytes);
  EXPECT_GT(hyb.dead_block_fraction, 0.0);
  EXPECT_GE(hyb.speedup, grp.speedup * 0.95);  // at worst on par
  EXPECT_GT(hyb.accuracy, 0.7);
}

TEST(Hybrid, GroupedLayersStaySilent) {
  nn::NetSpec grouped = micro_dense();
  grouped.layers[3].groups = 4;  // groups == cores -> silent transition
  ExperimentConfig cfg;
  cfg.cores = 4;
  cfg.train.epochs = 2;
  cfg.lambda_mask = 0.5;
  const auto train_set = micro_data(1);
  const auto test_set = micro_data(2);
  TrainedNet hybrid_net = train(
      lasso_recipe(grouped, cfg, /*distance_aware=*/true), train_set, test_set);
  const auto hyb = simulate(hybrid_net, sched::Strategy::kHybrid, cfg);
  for (const auto& layer : hyb.result.layers) {
    if (layer.layer_name == "conv2") {
      EXPECT_EQ(layer.traffic_bytes, 0u);
    }
  }
}

}  // namespace
}  // namespace ls::sim
