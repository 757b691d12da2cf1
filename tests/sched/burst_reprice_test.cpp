// Swap-delta pricer property suite (`ctest -L sched`, also in the `stress`
// subset). EventPricer::reprice starts from the loads burst_cycles kept
// for one placement and re-routes only the messages a single partition
// swap moves; it must return exactly what burst_cycles returns on the
// swapped placement. Checked on every partition-space burst the lowering
// context produces for LeNet, ConvNet and AlexNet at 16 and 64 cores (a
// random placement and a walk of 50 random swaps each, accepted or
// rejected), under XY and YX routing and NoC clock dividers 1 and 4, and
// on a hand-built burst with self, zero-byte and silent partitions.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "sched/builders.hpp"
#include "sched/cost_model.hpp"
#include "util/rng.hpp"

namespace ls::sched {
namespace {

constexpr PartitionDim kDims[] = {PartitionDim::kKernel, PartitionDim::kBatch,
                                  PartitionDim::kHeight, PartitionDim::kWidth,
                                  PartitionDim::kChannel};

std::vector<std::size_t> random_placement(util::Rng& rng, std::size_t n) {
  std::vector<std::size_t> place(n);
  for (std::size_t i = 0; i < n; ++i) place[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(place[i - 1], place[rng.uniform_index(i)]);
  }
  return place;
}

/// `swaps` random swaps from a random placement of `messages`: each swap
/// is repriced from the current placement's kept loads and compared with
/// a full pricing of the swapped placement; a coin flip decides whether
/// the swap becomes the current placement. Returns the swaps checked.
std::size_t swap_walk(EventPricer& pricer,
                      const std::vector<noc::Message>& messages,
                      std::size_t partitions, std::size_t base,
                      util::Rng& rng, std::size_t swaps,
                      const std::string& label) {
  std::vector<std::size_t> place = random_placement(rng, partitions);
  BurstLoads kept, next;
  pricer.burst_cycles(messages, place, base, kept);
  for (std::size_t i = 0; i < swaps; ++i) {
    const std::size_t a = rng.uniform_index(partitions);
    const std::size_t b = rng.uniform_index(partitions);
    std::vector<std::size_t> swapped = place;
    std::swap(swapped[a], swapped[b]);
    const std::uint64_t want =
        pricer.burst_cycles(messages, swapped, base, next);
    EXPECT_EQ(pricer.reprice(kept, messages, swapped, a, b, base), want)
        << label << " swap " << i << " (" << a << ", " << b << ")";
    // The same swap priced twice from the same loads.
    EXPECT_EQ(pricer.reprice(kept, messages, swapped, b, a, base), want)
        << label << " swap " << i << " again";
    if (rng.bernoulli(0.5)) {
      place = std::move(swapped);
      std::swap(kept, next);
    }
  }
  return swaps;
}

TEST(BurstReprice, MatchesFullPricingOnEveryTransitionBurst) {
  util::Rng rng(0x5a9);
  std::size_t bursts = 0;
  std::size_t swaps = 0;
  for (const nn::NetSpec& spec :
       {nn::lenet_spec(), nn::convnet_spec(), nn::alexnet_spec()}) {
    for (const std::size_t cores : {16, 64}) {
      const noc::MeshTopology mesh = noc::MeshTopology::for_cores(cores);
      const core::InferenceTraffic traffic =
          core::traffic_dense(spec, mesh, 2);
      const LoweringContext ctx(spec, traffic, cores, 2);
      for (const noc::Routing routing :
           {noc::Routing::kXY, noc::Routing::kYX}) {
        for (const double divider : {1.0, 4.0}) {
          CostModelConfig cfg;
          cfg.noc.routing = routing;
          cfg.noc_clock_divider = divider;
          EventPricer pricer(cfg, mesh);
          for (std::size_t li = 1; li < ctx.layers(); ++li) {
            for (const PartitionDim prev : kDims) {
              if (!ctx.compatible(li - 1, prev)) continue;
              for (const PartitionDim dim : kDims) {
                if (!ctx.compatible(li, dim)) continue;
                const TransitionBurst burst = ctx.transition(li, prev, dim);
                const std::string label =
                    spec.name + " cores=" + std::to_string(cores) +
                    (routing == noc::Routing::kXY ? " xy" : " yx") +
                    " div=" + std::to_string(divider) +
                    " layer " + std::to_string(li) + " dims " +
                    std::to_string(static_cast<int>(prev)) + "->" +
                    std::to_string(static_cast<int>(dim));
                swaps += swap_walk(pricer, burst.messages, cores, 0, rng, 50,
                                   label);
                ++bursts;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(bursts, 0u);
  EXPECT_EQ(swaps, bursts * 50);
}

TEST(BurstReprice, SelfZeroByteAndSilentPartitions) {
  // 16 partitions on a 4x4 mesh, on the second chip of a package (base
  // 16). Partition 5 sends nothing but receives; 9 neither sends nor
  // receives; 3 only sends to itself; 7 sends zero bytes.
  const std::size_t n = 16;
  const std::size_t base = 16;
  std::vector<noc::Message> burst;
  for (std::size_t s = 0; s < n; ++s) {
    if (s == 5 || s == 9) continue;
    if (s == 3) {
      burst.push_back({base + 3, base + 3, 4096, 0});
      continue;
    }
    for (std::size_t d = 0; d < n; ++d) {
      if (d == 9 || d == 3) continue;
      burst.push_back({base + s, base + d, s == 7 ? 0 : 64 * (1 + s + d), 0});
    }
  }
  for (const noc::Routing routing : {noc::Routing::kXY, noc::Routing::kYX}) {
    for (const double divider : {1.0, 4.0}) {
      CostModelConfig cfg;
      cfg.noc.routing = routing;
      cfg.noc_clock_divider = divider;
      EventPricer pricer(cfg, noc::MeshTopology(4, 4));
      util::Rng rng(static_cast<std::uint64_t>(divider) * 2 +
                    (routing == noc::Routing::kXY ? 0 : 1));
      const std::string label =
          std::string(routing == noc::Routing::kXY ? "xy" : "yx") +
          " div=" + std::to_string(divider);
      swap_walk(pricer, burst, n, base, rng, 50, label);

      // Swaps that name the silent, self-only and zero-byte partitions,
      // each other, and a no-op swap of one partition with itself.
      const std::vector<std::size_t> place = random_placement(rng, n);
      BurstLoads kept, scratch;
      pricer.burst_cycles(burst, place, base, kept);
      for (const auto& [a, b] : std::vector<std::pair<std::size_t,
                                                      std::size_t>>{
               {5, 0}, {9, 12}, {5, 9}, {3, 7}, {7, 1}, {9, 9}, {4, 4}}) {
        std::vector<std::size_t> swapped = place;
        std::swap(swapped[a], swapped[b]);
        EXPECT_EQ(pricer.reprice(kept, burst, swapped, a, b, base),
                  pricer.burst_cycles(burst, swapped, base, scratch))
            << label << " swap (" << a << ", " << b << ")";
      }
    }
  }
}

TEST(BurstReprice, RejectsForeignLoadsAndOffPlacementSwaps) {
  const CostModelConfig cfg;
  EventPricer pricer(cfg, noc::MeshTopology(4, 4));
  const std::vector<noc::Message> burst = {{0, 5, 64, 0}, {5, 0, 64, 0}};
  std::vector<std::size_t> place(16);
  for (std::size_t i = 0; i < 16; ++i) place[i] = i;
  BurstLoads kept;
  pricer.burst_cycles(burst, place, 0, kept);
  const std::vector<noc::Message> longer = {
      {0, 5, 64, 0}, {5, 0, 64, 0}, {1, 2, 64, 0}};
  EXPECT_THROW(pricer.reprice(kept, longer, place, 0, 5),
               std::invalid_argument);
  EXPECT_THROW(pricer.reprice(kept, burst, place, 0, 16), std::out_of_range);
  EXPECT_THROW(pricer.reprice(kept, burst, {}, 0, 5), std::out_of_range);
}

}  // namespace
}  // namespace ls::sched
