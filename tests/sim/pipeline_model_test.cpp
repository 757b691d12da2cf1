#include "sim/pipeline_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"

namespace ls::sim {
namespace {

std::size_t compute_layer_count(const nn::NetSpec& spec) {
  std::size_t n = 0;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    n += a.is_compute() ? 1 : 0;
  }
  return n;
}

TEST(PipelineModel, SinglePassIsSumOfStages) {
  SystemConfig cfg;
  cfg.cores = 4;
  const auto spec = nn::lenet_spec();
  const auto r = run_pipeline(spec, cfg);
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < r.stage_compute_cycles.size(); ++s) {
    total += r.stage_compute_cycles[s] + r.stage_transfer_cycles[s];
  }
  EXPECT_EQ(r.single_pass_cycles, total);
  EXPECT_EQ(r.stage_compute_cycles.size(), r.stages.back() + 1);
  EXPECT_EQ(r.stage_transfer_cycles.size(), r.stage_compute_cycles.size());
}

TEST(PipelineModel, IntervalIsSlowestStage) {
  SystemConfig cfg;
  cfg.cores = 4;
  const auto r = run_pipeline(nn::convnet_spec(), cfg);
  std::uint64_t worst = 0;
  for (std::size_t s = 0; s < r.stage_compute_cycles.size(); ++s) {
    worst = std::max(worst,
                     r.stage_compute_cycles[s] + r.stage_transfer_cycles[s]);
  }
  EXPECT_EQ(r.initiation_interval, worst);
  EXPECT_LE(r.initiation_interval, r.single_pass_cycles);
}

TEST(PipelineModel, SinglePassSlowerThanIntraLayer) {
  // The paper's §II.B point, as an invariant on the bench's four nets:
  // the pipelined single pass is slower than intra-layer parallelization,
  // many inferences in flight help only up to the slowest stage, and the
  // stages are load-imbalanced.
  SystemConfig cfg;
  cfg.cores = 16;
  CmpSystem system(cfg);
  for (const auto& spec : {nn::mlp_spec(), nn::lenet_spec(),
                           nn::convnet_spec(), nn::alexnet_spec()}) {
    const auto traffic =
        core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
    const auto intra = system.run_inference(spec, traffic);
    const auto pipe = run_pipeline(spec, cfg);
    EXPECT_EQ(pipe.stage_compute_cycles.size(),
              std::min(cfg.cores, compute_layer_count(spec)))
        << spec.name;
    EXPECT_GT(pipe.single_pass_cycles, intra.total_cycles) << spec.name;
    EXPECT_LT(pipe.initiation_interval, pipe.single_pass_cycles) << spec.name;
    EXPECT_GT(pipe.load_imbalance, 1.1) << spec.name;
  }
}

TEST(PipelineModel, LastStageHasNoTransfer) {
  SystemConfig cfg;
  cfg.cores = 4;
  const auto r = run_pipeline(nn::mlp_spec(), cfg);
  EXPECT_EQ(r.stage_transfer_cycles.back(), 0u);
}

TEST(Pipeline, SingleCoreSingleStage) {
  SystemConfig cfg;
  cfg.cores = 1;
  const auto r = run_pipeline(nn::lenet_spec(), cfg);
  ASSERT_EQ(r.stage_compute_cycles.size(), 1u);
  EXPECT_EQ(r.stages, std::vector<std::size_t>(4, 0));  // conv1..ip2
  EXPECT_DOUBLE_EQ(r.load_imbalance, 1.0);
  EXPECT_EQ(r.initiation_interval, r.single_pass_cycles);
}

TEST(Pipeline, StagesAreContiguousAndComplete) {
  SystemConfig cfg;
  cfg.cores = 4;
  const auto r = run_pipeline(nn::lenet_spec(), cfg);
  ASSERT_EQ(r.stages.size(), 4u);  // LeNet has conv1, conv2, ip1, ip2
  EXPECT_EQ(r.stages.front(), 0u);
  for (std::size_t l = 1; l < r.stages.size(); ++l) {
    EXPECT_LE(r.stages[l - 1], r.stages[l]);
    EXPECT_LE(r.stages[l], r.stages[l - 1] + 1);
  }
  EXPECT_EQ(r.stages.back() + 1, r.stage_compute_cycles.size());
  EXPECT_LE(r.stage_compute_cycles.size(), 4u);
}

TEST(Pipeline, ImbalanceExceedsOneForRealNets) {
  // The paper's claim: real layer mixes do not balance.
  SystemConfig cfg;
  cfg.cores = 4;
  EXPECT_GT(run_pipeline(nn::lenet_spec(), cfg).load_imbalance, 1.1);
}

TEST(Pipeline, RejectsZeroCores) {
  SystemConfig cfg;
  cfg.cores = 0;
  EXPECT_THROW(run_pipeline(nn::lenet_spec(), cfg), std::invalid_argument);
}

}  // namespace
}  // namespace ls::sim
