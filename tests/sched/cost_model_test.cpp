// Burst-pricer suite (`ctest -L sched`). sched::EventPricer accumulates a
// burst's directed-link loads as per-row/per-column difference arrays;
// this pins it to the hop-walking accumulator it replaced — kept below
// verbatim as the reference — on seeded random bursts over every mesh
// shape from 1x1 to 8x8, both routings, with self and zero-byte messages,
// through placements and chip-base offsets; and pins the off-mesh endpoint
// error.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "sched/cost_model.hpp"
#include "sched/schedule.hpp"
#include "util/rng.hpp"

namespace ls::sched {
namespace {

// Reference: walks every hop of every message's dimension-ordered path.
class LinkLoads {
 public:
  explicit LinkLoads(std::size_t cores)
      : link_(cores * 4, 0), inject_(cores, 0), eject_(cores, 0) {}

  void route(const noc::MeshTopology& topo, const noc::NocConfig& cfg,
             std::size_t src, std::size_t dst, std::uint64_t flits) {
    inject_[src] += flits;
    eject_[dst] += flits;
    noc::Coord at = topo.coord(src);
    const noc::Coord to = topo.coord(dst);
    const bool x_first = cfg.routing == noc::Routing::kXY;
    for (int phase = 0; phase < 2; ++phase) {
      const bool x_phase = (phase == 0) == x_first;
      while (x_phase ? at.x != to.x : at.y != to.y) {
        std::size_t dir;  // 0=east 1=west 2=south 3=north
        noc::Coord next = at;
        if (x_phase) {
          dir = to.x > at.x ? 0 : 1;
          next.x = to.x > at.x ? at.x + 1 : at.x - 1;
        } else {
          dir = to.y > at.y ? 2 : 3;
          next.y = to.y > at.y ? at.y + 1 : at.y - 1;
        }
        link_[topo.core_at(at) * 4 + dir] += flits;
        at = next;
      }
    }
  }

  std::uint64_t bottleneck_cycles(std::size_t phys_channels) const {
    std::uint64_t worst = 0;
    for (const std::uint64_t load : link_) {
      worst = std::max(worst, (load + phys_channels - 1) / phys_channels);
    }
    for (const std::uint64_t load : inject_) worst = std::max(worst, load);
    for (const std::uint64_t load : eject_) worst = std::max(worst, load);
    return worst;
  }

 private:
  std::vector<std::uint64_t> link_;
  std::vector<std::uint64_t> inject_;
  std::vector<std::uint64_t> eject_;
};

std::uint64_t reference_burst(const noc::MeshNocSimulator& sim,
                              const std::vector<noc::Message>& messages) {
  const noc::MeshTopology& topo = sim.topology();
  const noc::NocConfig& cfg = sim.config();
  LinkLoads loads(topo.num_cores());
  std::uint64_t max_zero_load = 0;
  for (const noc::Message& m : messages) {
    if (m.src == m.dst || m.bytes == 0) continue;
    loads.route(topo, cfg, m.src, m.dst,
                static_cast<std::uint64_t>(sim.flits_for_bytes(m.bytes)));
    max_zero_load = std::max(max_zero_load, sim.zero_load_latency(m));
  }
  return std::max(max_zero_load,
                  loads.bottleneck_cycles(cfg.phys_channels) +
                      cfg.router_latency);
}

std::vector<noc::Message> random_burst(util::Rng& rng, std::size_t n) {
  std::vector<noc::Message> burst(rng.uniform_index(3 * n + 2));
  for (noc::Message& m : burst) {
    m.src = rng.uniform_index(n);
    // One message in eight is a self message (on a 1x1 mesh, all are).
    m.dst = rng.uniform_index(8) == 0 ? m.src : rng.uniform_index(n);
    m.bytes = rng.uniform_index(8) == 0 ? 0 : 1 + rng.uniform_index(5000);
  }
  return burst;
}

TEST(BurstPricer, MatchesHopWalkingReferenceOnRandomBursts) {
  util::Rng rng(0xb0257);
  std::size_t bursts = 0;
  for (std::size_t cols = 1; cols <= 8; ++cols) {
    for (std::size_t rows = 1; rows <= 8; ++rows) {
      const noc::MeshTopology topo(cols, rows);
      const std::size_t n = topo.num_cores();
      for (const noc::Routing routing :
           {noc::Routing::kXY, noc::Routing::kYX}) {
        for (int trial = 0; trial < 3; ++trial) {
          CostModelConfig cfg;
          cfg.noc.routing = routing;
          cfg.noc.phys_channels = 1 + rng.uniform_index(3);
          cfg.noc.router_latency = rng.uniform_index(4);
          cfg.noc.flit_bytes = rng.bernoulli(0.5) ? 16 : 64;
          cfg.noc_clock_divider = 1.0;
          EventPricer pricer(cfg, topo);
          const noc::MeshNocSimulator sim(topo, cfg.noc);
          const std::vector<noc::Message> burst = random_burst(rng, n);
          const std::uint64_t want = reference_burst(sim, burst);
          EXPECT_EQ(pricer.burst_cycles(burst), want)
              << cols << "x" << rows << " trial " << trial;

          // Through a placement: endpoint e rides core place[e].
          std::vector<std::size_t> place(n);
          for (std::size_t i = 0; i < n; ++i) place[i] = i;
          for (std::size_t i = n; i > 1; --i) {
            std::swap(place[i - 1], place[rng.uniform_index(i)]);
          }
          std::vector<noc::Message> placed = burst;
          for (noc::Message& m : placed) {
            m.src = place[m.src];
            m.dst = place[m.dst];
          }
          EXPECT_EQ(pricer.burst_cycles(burst, place),
                    reference_burst(sim, placed))
              << cols << "x" << rows << " placed, trial " << trial;

          // On a later chip of a package: endpoints offset by its base.
          const std::size_t base = (1 + rng.uniform_index(3)) * n;
          std::vector<noc::Message> offset = burst;
          for (noc::Message& m : offset) {
            m.src += base;
            m.dst += base;
          }
          EXPECT_EQ(pricer.burst_cycles(offset, {}, base), want)
              << cols << "x" << rows << " base " << base;
          ++bursts;
        }
      }
    }
  }
  EXPECT_EQ(bursts, 8u * 8u * 2u * 3u);
}

TEST(BurstPricer, EmptyBurstCostsTheRouterPipeline) {
  CostModelConfig cfg;
  cfg.noc.router_latency = 3;
  EventPricer pricer(cfg, noc::MeshTopology(4, 4));
  EXPECT_EQ(pricer.burst_cycles({}), 3u);
  EXPECT_EQ(pricer.burst_cycles(std::vector<noc::Message>{{5, 5, 64, 0},
                                                          {1, 2, 0, 0}}),
            3u);
}

TEST(BurstPricer, OffMeshEndpointThrowsOutOfRange) {
  const CostModelConfig cfg;
  EventPricer pricer(cfg, noc::MeshTopology(4, 4));
  const std::vector<noc::Message> bad_dst = {{0, 16, 64, 0}};
  const std::vector<noc::Message> bad_src = {{16, 0, 64, 0}};
  EXPECT_THROW(pricer.burst_cycles(bad_dst), std::out_of_range);
  EXPECT_THROW(pricer.burst_cycles(bad_src), std::out_of_range);
  // Past the placement map, and below the chip base.
  const std::vector<std::size_t> place(8, 0);
  EXPECT_THROW(pricer.burst_cycles(std::vector<noc::Message>{{0, 9, 64, 0}},
                                   place),
               std::out_of_range);
  EXPECT_THROW(pricer.burst_cycles(std::vector<noc::Message>{{17, 3, 64, 0}},
                                   {}, 16),
               std::out_of_range);

  // estimate_cycles surfaces the same error for a schedule that names a
  // core its mesh does not have.
  Schedule s;
  s.net_name = "bad";
  s.cores = 16;
  Event comm;
  comm.kind = EventKind::kComm;
  comm.messages = bad_dst;
  comm.traffic_bytes = 64;
  s.events.push_back(comm);
  EXPECT_THROW(estimate_cycles(s, cfg), std::out_of_range);
}

}  // namespace
}  // namespace ls::sched
