#include "core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "check/check.hpp"

namespace ls::core {

Placement Placement::identity(std::size_t cores) {
  Placement p;
  p.partition_to_core.resize(cores);
  std::iota(p.partition_to_core.begin(), p.partition_to_core.end(), 0u);
  return p;
}

bool Placement::valid() const {
  std::vector<bool> seen(partition_to_core.size(), false);
  for (std::size_t core : partition_to_core) {
    if (core >= partition_to_core.size() || seen[core]) return false;
    seen[core] = true;
  }
  return true;
}

std::size_t placement_cost(const InferenceTraffic& traffic,
                           const Placement& placement,
                           const noc::MeshTopology& topo) {
  // A placement is a bijection partition -> core; a duplicate or
  // out-of-range core silently double-counts some link loads and drops
  // others, so the cost would be meaningless rather than wrong-and-loud.
  LS_CHECK_MSG(placement.valid(),
               "placement_cost over a non-bijective placement (%zu entries)",
               placement.partition_to_core.size());
  std::size_t cost = 0;
  for (const auto& t : traffic.transitions) {
    for (const auto& m : t.messages) {
      cost += m.bytes *
              topo.hops(placement.core_of(m.src), placement.core_of(m.dst));
    }
  }
  return cost;
}

Placement optimize_placement(const InferenceTraffic& traffic,
                             const noc::MeshTopology& topo, util::Rng& rng,
                             std::size_t iterations) {
  const std::size_t n = topo.num_cores();
  Placement cur = Placement::identity(n);
  if (n < 2) return cur;

  // Aggregate partition-to-partition byte matrix once; cost deltas for a
  // swap then come from row/column sums instead of re-walking messages.
  std::vector<std::size_t> bytes(n * n, 0);
  for (const auto& t : traffic.transitions) {
    for (const auto& m : t.messages) bytes[m.src * n + m.dst] += m.bytes;
  }
  auto cost_of = [&](const Placement& p) {
    std::size_t c = 0;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (bytes[a * n + b]) {
          c += bytes[a * n + b] * topo.hops(p.core_of(a), p.core_of(b));
        }
      }
    }
    return c;
  };

  std::size_t cur_cost = cost_of(cur);
  Placement best = cur;
  std::size_t best_cost = cur_cost;

  // Geometric cooling; temperature in byte-hop units.
  double temp = static_cast<double>(std::max<std::size_t>(1, cur_cost)) /
                static_cast<double>(n);
  const double cooling =
      std::pow(1e-4, 1.0 / static_cast<double>(std::max<std::size_t>(
                               1, iterations)));

  for (std::size_t it = 0; it < iterations; ++it) {
    const std::size_t a = rng.uniform_index(n);
    std::size_t b = rng.uniform_index(n);
    if (a == b) b = (b + 1) % n;
    std::swap(cur.partition_to_core[a], cur.partition_to_core[b]);
    const std::size_t new_cost = cost_of(cur);
    const double delta =
        static_cast<double>(new_cost) - static_cast<double>(cur_cost);
    if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temp)) {
      cur_cost = new_cost;
      if (cur_cost < best_cost) {
        best = cur;
        best_cost = cur_cost;
      }
    } else {
      std::swap(cur.partition_to_core[a], cur.partition_to_core[b]);
    }
    temp *= cooling;
  }
  // Annealing only ever swaps two entries of an identity permutation, so
  // the result must still be a bijection.
  LS_CHECK_MSG(best.valid(),
               "optimize_placement produced a non-bijective placement after "
               "%zu iterations",
               iterations);
  return best;
}

}  // namespace ls::core
