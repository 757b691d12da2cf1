// End-to-end pipeline tests on a deliberately tiny network so the full
// train -> sparsify -> simulate flow stays fast.

#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace ls::sim {
namespace {

nn::NetSpec micro_spec() {
  nn::NetSpec spec;
  spec.name = "micro";
  spec.dataset = "micro";
  spec.input = {1, 8, 8};
  spec.layers = {nn::LayerSpec::flatten("flat"),
                 nn::LayerSpec::fc("fc1", 32), nn::LayerSpec::relu("r1"),
                 nn::LayerSpec::fc("fc2", 16), nn::LayerSpec::relu("r2"),
                 nn::LayerSpec::fc("fc3", 4)};
  return spec;
}

ExperimentConfig micro_cfg() {
  ExperimentConfig cfg;
  cfg.cores = 4;
  cfg.train.epochs = 3;
  cfg.train.batch_size = 16;
  cfg.lambda_ss = 0.8;
  cfg.lambda_mask = 0.8;
  cfg.seed = 7;
  return cfg;
}

data::Dataset micro_data(std::uint64_t sample_seed) {
  data::SyntheticSpec s;
  s.num_classes = 4;
  s.channels = 1;
  s.height = 8;
  s.width = 8;
  s.samples = 128;
  s.noise = 0.15;
  s.max_shift = 1;
  s.seed = 77;
  s.sample_seed = sample_seed;
  return data::make_synthetic(s);
}

TEST(Experiment, DatasetForMatchesSpecShape) {
  const auto ds = dataset_for(nn::NetSpec{"x", "mnist-ish", {1, 28, 28}, {}},
                              32, 1);
  EXPECT_EQ(ds.images.shape(), tensor::Shape({32, 1, 28, 28}));
  EXPECT_EQ(ds.num_classes, 10u);
}

TEST(Experiment, DatasetForSplitsShareTask) {
  const nn::NetSpec spec{"x", "tag", {1, 28, 28}, {}};
  const auto train = dataset_for(spec, 16, 1);
  const auto test = dataset_for(spec, 16, 2);
  // Different samples...
  EXPECT_GT(tensor::max_abs_diff(train.images, test.images), 0.01f);
}

TEST(Experiment, SparsifiedPipelineShapes) {
  const auto outcomes = run_sparsified_experiment(micro_spec(), micro_data(1),
                                                  micro_data(2), micro_cfg());
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].scheme, "Baseline");
  EXPECT_EQ(outcomes[1].scheme, "SS");
  EXPECT_EQ(outcomes[2].scheme, "SS_Mask");

  const auto& base = outcomes[0];
  EXPECT_DOUBLE_EQ(base.speedup, 1.0);
  EXPECT_DOUBLE_EQ(base.traffic_rate, 1.0);
  EXPECT_GT(base.accuracy, 0.5);

  for (std::size_t i = 1; i < 3; ++i) {
    const auto& o = outcomes[i];
    EXPECT_LE(o.traffic_rate, 1.0) << o.scheme;
    EXPECT_GE(o.speedup, 1.0) << o.scheme;
    EXPECT_GE(o.comm_energy_reduction, 0.0) << o.scheme;
    EXPECT_GT(o.dead_block_fraction, 0.0) << o.scheme;
  }
}

TEST(Experiment, MaskKeepsResidualTrafficLocal) {
  auto cfg = micro_cfg();
  cfg.lambda_ss = 0.4;  // keep some traffic alive for both schemes
  cfg.lambda_mask = 0.4;
  const auto outcomes = run_sparsified_experiment(micro_spec(), micro_data(1),
                                                  micro_data(2), cfg);
  const auto& base = outcomes[0];
  const auto& mask = outcomes[2];
  if (mask.result.traffic_bytes > 0) {
    // Surviving SS_Mask traffic travels fewer hops on average than dense.
    EXPECT_LE(mask.mean_traffic_hops, base.mean_traffic_hops + 1e-9);
  }
}

void expect_same_outcome(const StrategyOutcome& a, const StrategyOutcome& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.accuracy, b.accuracy) << a.scheme;
  EXPECT_EQ(a.traffic_rate, b.traffic_rate) << a.scheme;
  EXPECT_EQ(a.speedup, b.speedup) << a.scheme;
  EXPECT_EQ(a.comm_energy_reduction, b.comm_energy_reduction) << a.scheme;
  EXPECT_EQ(a.total_energy_reduction, b.total_energy_reduction) << a.scheme;
  EXPECT_EQ(a.dead_block_fraction, b.dead_block_fraction) << a.scheme;
  EXPECT_EQ(a.weight_sparsity, b.weight_sparsity) << a.scheme;
  EXPECT_EQ(a.mean_traffic_hops, b.mean_traffic_hops) << a.scheme;
  EXPECT_TRUE(a.result == b.result) << a.scheme;
}

// A dense net's training reads no core count, so one trained baseline
// serves every scale: simulated at each count it equals the pipeline's own
// freshly trained Baseline there.
TEST(Experiment, DenseBaselineTrainedOnceServesEveryCoreCount) {
  const auto train_set = micro_data(1);
  const auto test_set = micro_data(2);
  auto cfg = micro_cfg();
  TrainedNet dense = train(dense_recipe(micro_spec(), cfg), train_set,
                           test_set);
  for (const std::size_t cores : {2u, 4u}) {
    SCOPED_TRACE("cores " + std::to_string(cores));
    cfg.cores = cores;
    EXPECT_TRUE(dense_recipe(micro_spec(), cfg) == dense.recipe);
    StrategyOutcome shared =
        simulate(dense, sched::Strategy::kTraditional, cfg);
    shared.scheme = "Baseline";
    const auto fresh =
        run_sparsified_experiment(micro_spec(), train_set, test_set, cfg);
    expect_same_outcome(shared, fresh.at(0));
  }
}

// SS and SS_Mask composed from train + simulate are the pipeline's rows.
TEST(Experiment, TrainThenSimulateMatchesSparsifiedPipeline) {
  const auto train_set = micro_data(1);
  const auto test_set = micro_data(2);
  const auto cfg = micro_cfg();
  const auto rows =
      run_sparsified_experiment(micro_spec(), train_set, test_set, cfg);
  ASSERT_EQ(rows.size(), 3u);
  TrainedNet dense = train(dense_recipe(micro_spec(), cfg), train_set,
                           test_set);
  const StrategyOutcome base =
      simulate(dense, sched::Strategy::kTraditional, cfg);
  for (const bool distance_aware : {false, true}) {
    const TrainRecipe recipe = lasso_recipe(micro_spec(), cfg, distance_aware);
    ASSERT_TRUE(recipe.lasso.has_value());
    EXPECT_EQ(recipe.lasso->cores, cfg.cores);
    TrainedNet net = train(recipe, train_set, test_set);
    StrategyOutcome out =
        simulate(net, sched::Strategy::kSparsified, cfg, &base);
    out.scheme = distance_aware ? "SS_Mask" : "SS";
    expect_same_outcome(out, rows[distance_aware ? 2 : 1]);

    // Live traffic of a net regularized for 4 cores is meaningless on 2.
    auto other = cfg;
    other.cores = 2;
    EXPECT_THROW(simulate(net, sched::Strategy::kSparsified, other, &base),
                 std::invalid_argument);
  }
  // SS's uniform mask has no exponent: it is one recipe at any exponent.
  auto steep = cfg;
  steep.mask_exponent = 3.0;
  EXPECT_TRUE(lasso_recipe(micro_spec(), steep, false) ==
              lasso_recipe(micro_spec(), cfg, false));
  EXPECT_FALSE(lasso_recipe(micro_spec(), steep, true) ==
               lasso_recipe(micro_spec(), cfg, true));
}

TEST(Experiment, StructureLevelVariantAgainstBaseline) {
  // Grouped micro-conv network: conv2 grouped 4 ways on 4 cores.
  nn::NetSpec dense;
  dense.name = "microconv";
  dense.dataset = "microconv";
  dense.input = {1, 12, 12};
  dense.layers = {nn::LayerSpec::conv("conv1", 8, 3, 1, 1),
                  nn::LayerSpec::relu("r1"),
                  nn::LayerSpec::pool("p1", 2, 2),
                  nn::LayerSpec::conv("conv2", 8, 3, 1, 1),
                  nn::LayerSpec::relu("r2"),
                  nn::LayerSpec::flatten("flat"),
                  nn::LayerSpec::fc("fc", 4)};
  nn::NetSpec grouped = dense;
  grouped.layers[3].groups = 4;

  data::SyntheticSpec s;
  s.num_classes = 4;
  s.channels = 1;
  s.height = 12;
  s.width = 12;
  s.samples = 96;
  s.seed = 9;
  const auto train = data::make_synthetic(s);
  s.sample_seed = 1;
  const auto test = data::make_synthetic(s);

  ExperimentConfig cfg;
  cfg.cores = 4;
  cfg.train.epochs = 2;
  TrainedNet dense_net = sim::train(dense_recipe(dense, cfg), train, test);
  const auto base =
      simulate(dense_net, sched::Strategy::kStructureLevel, cfg, nullptr);
  TrainedNet grouped_net =
      sim::train(dense_recipe(grouped, cfg), train, test);
  const auto var =
      simulate(grouped_net, sched::Strategy::kStructureLevel, cfg, &base);
  EXPECT_GT(var.speedup, 1.0);
  EXPECT_LT(var.result.traffic_bytes, base.result.traffic_bytes);
}

}  // namespace
}  // namespace ls::sim
