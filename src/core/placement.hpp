#pragma once
// Communication-aware partition placement (extension).
//
// The paper bakes distance awareness into *training* (SS_Mask). A
// complementary, post-training lever is to choose *which mesh core* each
// partition lands on: once training fixes the live (producer, consumer)
// blocks, permuting partitions across cores changes every message's hop
// count. This module optimizes that permutation by simulated annealing
// over total byte-hops, letting the benches ask: how much of SS_Mask's
// energy advantage can plain placement recover for a distance-unaware SS
// model? (See bench_placement.)

#include <cstddef>
#include <vector>

#include "core/traffic.hpp"
#include "noc/topology.hpp"
#include "util/rng.hpp"

namespace ls::core {

/// Permutation: partition index (as used in InferenceTraffic messages) to
/// physical mesh core.
struct Placement {
  std::vector<std::size_t> partition_to_core;

  static Placement identity(std::size_t cores);

  std::size_t core_of(std::size_t partition) const {
    return partition_to_core.at(partition);
  }
  /// Validates it is a permutation of 0..n-1.
  bool valid() const;
};

/// Total bytes x hops of the traffic under a placement.
std::size_t placement_cost(const InferenceTraffic& traffic,
                           const Placement& placement,
                           const noc::MeshTopology& topo);

/// Simulated annealing over pairwise swaps, minimizing placement_cost.
/// Deterministic for a given rng. Returns the best placement found
/// (never worse than identity).
Placement optimize_placement(const InferenceTraffic& traffic,
                             const noc::MeshTopology& topo, util::Rng& rng,
                             std::size_t iterations = 20000);

}  // namespace ls::core
