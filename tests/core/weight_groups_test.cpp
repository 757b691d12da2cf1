#include "core/weight_groups.hpp"

#include <gtest/gtest.h>

#include <set>

#include "nn/model_zoo.hpp"
#include "util/rng.hpp"

namespace ls::core {
namespace {

TEST(WeightGroups, SkipsFirstComputeLayer) {
  util::Rng rng(1);
  const nn::NetSpec spec = nn::mlp_expt_spec();
  nn::Network net = nn::build_network(spec, rng);
  const auto sets = build_group_sets(net, spec, 16);
  // MLP has ip1/ip2/ip3; ip1 reads the replicated input -> 2 group sets.
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].layer_name, "ip2");
  EXPECT_EQ(sets[1].layer_name, "ip3");
  EXPECT_EQ(sets[0].in_units, 512u);
  EXPECT_EQ(sets[0].out_units, 304u);
}

TEST(WeightGroups, BlocksPartitionEveryWeightExactlyOnce) {
  util::Rng rng(2);
  const nn::NetSpec spec = nn::lenet_expt_spec();
  nn::Network net = nn::build_network(spec, rng);
  for (std::size_t cores : {4u, 16u}) {
    const auto sets = build_group_sets(net, spec, cores);
    for (const auto& set : sets) {
      std::set<std::size_t> seen;
      std::size_t total = 0;
      for (std::size_t p = 0; p < cores; ++p) {
        for (std::size_t c = 0; c < cores; ++c) {
          for (std::size_t idx : set.block(p, c)) {
            EXPECT_TRUE(seen.insert(idx).second)
                << "duplicate index in " << set.layer_name;
            ++total;
          }
        }
      }
      EXPECT_EQ(total, set.weight->value.numel()) << set.layer_name;
    }
  }
}

TEST(WeightGroups, ConvBlockIndicesConnectCorrectChannels) {
  util::Rng rng(3);
  const nn::NetSpec spec = nn::lenet_expt_spec();  // conv2: 16 -> 32, k=5
  nn::Network net = nn::build_network(spec, rng);
  const std::size_t cores = 4;
  const auto sets = build_group_sets(net, spec, cores);
  const auto& conv2 = sets[0];
  ASSERT_EQ(conv2.layer_name, "conv2");
  EXPECT_EQ(conv2.in_units, 16u);
  EXPECT_EQ(conv2.out_units, 32u);
  // Block (p, c) holds (4 in-ch) x (8 out-ch) x 25 weights.
  for (std::size_t p = 0; p < cores; ++p) {
    for (std::size_t c = 0; c < cores; ++c) {
      EXPECT_EQ(conv2.block(p, c).size(), 4u * 8 * 25);
    }
  }
  // Spot-check: weight (oc=9, ic=5) belongs to block (p=owner(5), c=owner(9)).
  const std::size_t idx = (9 * 16 + 5) * 25 + 7;
  const std::size_t p = owner_of(5, 16, cores);
  const std::size_t c = owner_of(9, 32, cores);
  const auto& block = conv2.block(p, c);
  EXPECT_NE(std::find(block.begin(), block.end(), idx), block.end());
}

TEST(WeightGroups, FcAfterFlattenGroupsWholeFeatureMaps) {
  util::Rng rng(4);
  const nn::NetSpec spec = nn::lenet_expt_spec();
  nn::Network net = nn::build_network(spec, rng);
  const auto sets = build_group_sets(net, spec, 4);
  const auto& ip1 = sets[1];
  ASSERT_EQ(ip1.layer_name, "ip1");
  EXPECT_EQ(ip1.in_units, 32u);   // conv2 output channels
  EXPECT_EQ(ip1.out_units, 128u);
  // 512 features / 32 units = 16 elements (the 4x4 map) per unit; block
  // (0,0) = 8 producer units x 16 elements x 32 consumer rows.
  EXPECT_EQ(ip1.block(0, 0).size(), 8u * 16 * 32);
}

TEST(WeightGroups, BlockNormAndKill) {
  util::Rng rng(5);
  const nn::NetSpec spec = nn::mlp_expt_spec();
  nn::Network net = nn::build_network(spec, rng);
  auto sets = build_group_sets(net, spec, 4);
  auto& set = sets[0];
  EXPECT_GT(set.block_norm(1, 2), 0.0);
  EXPECT_FALSE(set.block_dead(1, 2));
  set.kill_block(1, 2);
  EXPECT_TRUE(set.block_dead(1, 2));
  EXPECT_EQ(set.block_norm(1, 2), 0.0);
  // Other blocks untouched.
  EXPECT_FALSE(set.block_dead(1, 1));
  EXPECT_NEAR(set.off_diagonal_dead_fraction(), 1.0 / 12.0, 1e-9);
}

TEST(WeightGroups, GroupedConvLayersAreSkipped) {
  util::Rng rng(6);
  const nn::NetSpec spec = nn::convnet_variant_expt_spec(32, 64, 128, 16);
  nn::Network net = nn::build_network(spec, rng);
  const auto sets = build_group_sets(net, spec, 16);
  for (const auto& set : sets) {
    EXPECT_NE(set.layer_name, "conv2");
    EXPECT_NE(set.layer_name, "conv3");
  }
}

TEST(WeightGroups, RaggedUnitCounts) {
  // 20 channels on 16 cores: fat cores own 2, others 1, trailing cores 0.
  util::Rng rng(7);
  nn::NetSpec spec;
  spec.name = "ragged";
  spec.dataset = "tiny";
  spec.input = {1, 12, 12};
  spec.layers = {nn::LayerSpec::conv("c1", 20, 3),
                 nn::LayerSpec::conv("c2", 24, 3)};
  nn::Network net = nn::build_network(spec, rng);
  const auto sets = build_group_sets(net, spec, 16);
  ASSERT_EQ(sets.size(), 1u);
  std::size_t total = 0;
  for (std::size_t p = 0; p < 16; ++p) {
    for (std::size_t c = 0; c < 16; ++c) {
      total += sets[0].block(p, c).size();
    }
  }
  EXPECT_EQ(total, 24u * 20 * 9);
}

TEST(WeightGroups, RejectsZeroCores) {
  util::Rng rng(8);
  const nn::NetSpec spec = nn::mlp_expt_spec();
  nn::Network net = nn::build_network(spec, rng);
  EXPECT_THROW(build_group_sets(net, spec, 0), std::invalid_argument);
}

}  // namespace
}  // namespace ls::core
