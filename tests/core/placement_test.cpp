#include <gtest/gtest.h>

#include "core/placement.hpp"
#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "util/rng.hpp"

namespace ls::core {
namespace {

TEST(Placement, IdentityIsValidAndNoOp) {
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(16);
  const auto traffic = traffic_dense(nn::mlp_expt_spec(), topo, 2);
  const Placement id = Placement::identity(16);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(placement_cost(traffic, id, topo), traffic.total_byte_hops());
}

TEST(Placement, ValidRejectsDuplicates) {
  Placement p;
  p.partition_to_core = {0, 1, 1, 3};
  EXPECT_FALSE(p.valid());
  p.partition_to_core = {0, 1, 2, 5};
  EXPECT_FALSE(p.valid());
}

TEST(Placement, CostChangesUnderSwap) {
  // Two partitions exchanging heavy traffic cost less when adjacent.
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(16);
  InferenceTraffic traffic;
  TransitionTraffic t;
  t.layer_name = "x";
  t.messages.push_back({0, 15, 1000, 0});  // corners: 6 hops
  t.total_bytes = 1000;
  t.total_byte_hops = 6000;
  traffic.transitions.push_back(t);

  Placement p = Placement::identity(16);
  std::swap(p.partition_to_core[15], p.partition_to_core[1]);  // now 1 hop
  EXPECT_EQ(placement_cost(traffic, p, topo), 1000u);
}

TEST(Placement, AnnealingNeverWorseThanIdentity) {
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(16);
  util::Rng rng(3);
  // Structured traffic: partition i talks to partition (i+4) % 16 only.
  InferenceTraffic traffic;
  TransitionTraffic t;
  t.layer_name = "ring";
  for (std::size_t i = 0; i < 16; ++i) {
    t.messages.push_back({i, (i + 4) % 16, 512, 0});
  }
  traffic.transitions.push_back(t);

  const Placement id = Placement::identity(16);
  const Placement opt = optimize_placement(traffic, topo, rng, 5000);
  EXPECT_TRUE(opt.valid());
  EXPECT_LE(placement_cost(traffic, opt, topo),
            placement_cost(traffic, id, topo));
}

TEST(Placement, AnnealingFindsObviousImprovement) {
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(16);
  util::Rng rng(4);
  // One hot pair placed at opposite corners: optimizer must co-locate it.
  InferenceTraffic traffic;
  TransitionTraffic t;
  t.layer_name = "pair";
  t.messages.push_back({0, 15, 100000, 0});
  t.messages.push_back({15, 0, 100000, 0});
  traffic.transitions.push_back(t);
  const Placement opt = optimize_placement(traffic, topo, rng, 10000);
  const std::size_t hops =
      topo.hops(opt.core_of(0), opt.core_of(15));
  EXPECT_EQ(hops, 1u);
}

TEST(Placement, DeterministicForSeed) {
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(8);
  const auto traffic = traffic_dense(nn::lenet_expt_spec(), topo, 2);
  util::Rng a(9), b(9);
  const auto pa = optimize_placement(traffic, topo, a, 2000);
  const auto pb = optimize_placement(traffic, topo, b, 2000);
  EXPECT_EQ(pa.partition_to_core, pb.partition_to_core);
}

}  // namespace
}  // namespace ls::core
