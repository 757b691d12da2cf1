// Differential test of MeshNocSimulator::run's drain loop.
//
// run() builds route/neighbour tables, walks per-output request masks in
// round-robin order, keeps its VC FIFOs in ring buffers, packetizes lazily
// at injection time and skips idle routers and idle cycles. The reference
// below is the straightforward loop it replaced — deque FIFOs, a
// pre-packetized injection queue per source, explicit round-robin pointers,
// a route computed per (output, slot) probe, every router visited every
// cycle — kept verbatim minus the trace spans, the checked-build fault hook
// and the conservation checks. Both must return identical NocStats (every
// field, per-link counts included) on zoo-net bursts, NocConfig sweeps,
// tuner-lowered bursts and seeded random bursts, and must agree on whether
// a given max_cycles is exceeded.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/simulator.hpp"
#include "sched/builders.hpp"
#include "sched/schedule.hpp"
#include "sim/system.hpp"
#include "tune/tuner.hpp"
#include "util/rng.hpp"

namespace ls::noc {
namespace {

enum Port : std::size_t { kLocal = 0, kNorth, kSouth, kWest, kEast, kNumPorts };

Port opposite(Port p) {
  switch (p) {
    case kNorth:
      return kSouth;
    case kSouth:
      return kNorth;
    case kWest:
      return kEast;
    case kEast:
      return kWest;
    default:
      return kLocal;
  }
}

struct Flit {
  std::uint32_t packet = 0;
  std::uint16_t dst = 0;
  bool tail = false;
};

struct InFlight {
  std::uint64_t arrival = 0;
  Flit flit;
  std::size_t router = 0;
  std::size_t port = 0;
  std::size_t vc = 0;
};

struct InFlightLater {
  bool operator()(const InFlight& a, const InFlight& b) const {
    return a.arrival > b.arrival;
  }
};

NocStats reference_run(const MeshTopology& topo_, const NocConfig& cfg_,
                       const std::vector<Message>& messages,
                       std::uint64_t max_cycles = 200'000'000ull) {
  const MeshNocSimulator sim(topo_, cfg_);
  auto flits_for_bytes = [&](std::size_t bytes) {
    return sim.flits_for_bytes(bytes);
  };
  const std::size_t n = topo_.num_cores();
  const std::size_t vcs = cfg_.vcs;

  // Input buffers: [router][port][vc] FIFO of flits.
  std::vector<std::deque<Flit>> fifo(n * kNumPorts * vcs);
  // Occupancy counts FIFO contents plus in-flight flits headed there
  // (credit accounting happens at send time).
  std::vector<std::size_t> occupancy(n * kNumPorts * vcs, 0);
  auto buf_idx = [vcs](std::size_t router, std::size_t port, std::size_t vc) {
    return (router * kNumPorts + port) * vcs + vc;
  };

  // Packet bookkeeping.
  struct PacketInfo {
    std::uint64_t inject = 0;
    std::uint64_t delivered = 0;
    bool done = false;
  };
  std::vector<PacketInfo> packets;

  // Pending injection flits per source node, in order.
  struct PendingFlit {
    std::uint64_t ready = 0;
    Flit flit;
    std::size_t vc = 0;
  };
  std::vector<std::deque<PendingFlit>> inject_q(n);

  NocStats stats;
  std::uint64_t next_packet = 0;
  for (const Message& m : messages) {
    if (m.src >= n || m.dst >= n) throw std::out_of_range("message endpoint");
    if (m.src == m.dst || m.bytes == 0) continue;  // no NoC traffic
    std::size_t flits_left = flits_for_bytes(m.bytes);
    while (flits_left > 0) {
      const std::size_t in_pkt = std::min(flits_left, cfg_.max_packet_flits);
      const auto pkt_id = static_cast<std::uint32_t>(next_packet++);
      const std::size_t vc = pkt_id % vcs;
      packets.push_back({m.inject_cycle, 0, false});
      for (std::size_t f = 0; f < in_pkt; ++f) {
        Flit flit;
        flit.packet = pkt_id;
        flit.dst = static_cast<std::uint16_t>(m.dst);
        flit.tail = (f + 1 == in_pkt);
        inject_q[m.src].push_back({m.inject_cycle, flit, vc});
        ++stats.total_flits;
      }
      flits_left -= in_pkt;
    }
  }
  stats.packets = packets.size();
  if (stats.total_flits == 0) return stats;

  std::priority_queue<InFlight, std::vector<InFlight>, InFlightLater> in_flight;

  // Round-robin pointers per (router, output port).
  std::vector<std::size_t> rr(n * kNumPorts, 0);
  // Flit counts per directed inter-router link (router x direction).
  std::vector<std::uint64_t> link_flits(n * kNumPorts, 0);

  auto route_dir = [&](std::size_t router, std::size_t dst) -> Port {
    const Coord here = topo_.coord(router);
    const Coord there = topo_.coord(dst);
    if (cfg_.routing == Routing::kXY) {
      if (there.x > here.x) return kEast;
      if (there.x < here.x) return kWest;
      if (there.y > here.y) return kSouth;
      if (there.y < here.y) return kNorth;
    } else {
      if (there.y > here.y) return kSouth;
      if (there.y < here.y) return kNorth;
      if (there.x > here.x) return kEast;
      if (there.x < here.x) return kWest;
    }
    return kLocal;
  };
  auto neighbor = [&](std::size_t router, Port dir) -> std::size_t {
    const Coord c = topo_.coord(router);
    switch (dir) {
      case kNorth:
        return topo_.core_at({c.x, c.y - 1});
      case kSouth:
        return topo_.core_at({c.x, c.y + 1});
      case kWest:
        return topo_.core_at({c.x - 1, c.y});
      case kEast:
        return topo_.core_at({c.x + 1, c.y});
      default:
        return router;
    }
  };

  std::uint64_t delivered_flits = 0;
  std::uint64_t total_pkt_latency = 0;
  std::uint64_t cycle = 0;

  for (; delivered_flits < stats.total_flits; ++cycle) {
    if (cycle > max_cycles) {
      throw std::runtime_error("NoC simulation exceeded max_cycles");
    }

    // 1. Land in-flight flits whose arrival time is now.
    while (!in_flight.empty() && in_flight.top().arrival <= cycle) {
      const InFlight f = in_flight.top();
      in_flight.pop();
      fifo[buf_idx(f.router, f.port, f.vc)].push_back(f.flit);
      // occupancy was already incremented at send time
    }

    // 2. Injection: move pending flits into the local input port.
    for (std::size_t src = 0; src < n; ++src) {
      std::size_t injected = 0;
      while (!inject_q[src].empty() && injected < cfg_.phys_channels) {
        const PendingFlit& pf = inject_q[src].front();
        if (pf.ready > cycle) break;
        const std::size_t bi = buf_idx(src, kLocal, pf.vc);
        if (occupancy[bi] >= cfg_.vc_depth) break;
        ++occupancy[bi];
        fifo[bi].push_back(pf.flit);
        inject_q[src].pop_front();
        ++injected;
      }
    }

    // 3. Switch allocation: per router, per output direction, grant up to
    // phys_channels head flits (round-robin over input port x vc).
    for (std::size_t r = 0; r < n; ++r) {
      // Track single-dequeue-per-cycle per input (port,vc).
      bool popped[kNumPorts][8] = {};
      for (std::size_t out = 0; out < kNumPorts; ++out) {
        const auto dir = static_cast<Port>(out);
        std::size_t granted = 0;
        const std::size_t slots = kNumPorts * vcs;
        std::size_t& ptr = rr[r * kNumPorts + out];
        for (std::size_t step = 0; step < slots && granted < cfg_.phys_channels;
             ++step) {
          const std::size_t slot = (ptr + step) % slots;
          const std::size_t in_port = slot / vcs;
          const std::size_t vc = slot % vcs;
          if (popped[in_port][vc]) continue;
          auto& q = fifo[buf_idx(r, in_port, vc)];
          if (q.empty()) continue;
          const Flit& head = q.front();
          if (route_dir(r, head.dst) != dir) continue;

          if (dir == kLocal) {
            // Ejection.
            PacketInfo& pkt = packets[head.packet];
            if (head.tail) {
              pkt.delivered = cycle;
              pkt.done = true;
              const std::uint64_t lat = cycle - pkt.inject;
              total_pkt_latency += lat;
              stats.max_packet_latency =
                  std::max(stats.max_packet_latency, lat);
            }
            ++stats.router_traversals;
            ++delivered_flits;
            --occupancy[buf_idx(r, in_port, vc)];
            q.pop_front();
            popped[in_port][vc] = true;
            ++granted;
            continue;
          }

          const std::size_t next_r = neighbor(r, dir);
          const std::size_t next_bi = buf_idx(next_r, opposite(dir), vc);
          if (occupancy[next_bi] >= cfg_.vc_depth) continue;  // no credit
          ++occupancy[next_bi];
          --occupancy[buf_idx(r, in_port, vc)];
          InFlight fl;
          fl.arrival = cycle + cfg_.router_latency + 1;
          fl.flit = head;
          fl.router = next_r;
          fl.port = opposite(dir);
          fl.vc = vc;
          in_flight.push(fl);
          ++link_flits[r * kNumPorts + out];
          ++stats.flit_hops;
          ++stats.router_traversals;
          q.pop_front();
          popped[in_port][vc] = true;
          ++granted;
        }
        ptr = (ptr + 1) % slots;
      }
    }
  }

  for (const std::uint64_t count : link_flits) {
    if (count > 0) {
      ++stats.links_used;
      stats.max_link_flits = std::max(stats.max_link_flits, count);
    }
  }
  stats.completion_cycle = cycle;
  stats.avg_packet_latency =
      stats.packets ? static_cast<double>(total_pkt_latency) /
                          static_cast<double>(stats.packets)
                    : 0.0;
  stats.per_link_flits = std::move(link_flits);
  return stats;
}

std::string describe(const NocConfig& cfg) {
  return "vcs=" + std::to_string(cfg.vcs) +
         " depth=" + std::to_string(cfg.vc_depth) +
         " phys=" + std::to_string(cfg.phys_channels) +
         " latency=" + std::to_string(cfg.router_latency) +
         " packet=" + std::to_string(cfg.max_packet_flits) +
         (cfg.routing == Routing::kXY ? " xy" : " yx");
}

/// Asserts run() == reference on one burst, and that run() keeps the
/// reference's max_cycles boundary: the last simulated cycle is
/// completion - 1, so max_cycles = completion - 1 passes and
/// completion - 2 throws.
void expect_same(const MeshTopology& topo, const NocConfig& cfg,
                 const std::vector<Message>& msgs, const std::string& label) {
  SCOPED_TRACE(label + " mesh=" + std::to_string(topo.cols()) + "x" +
               std::to_string(topo.rows()) + " " + describe(cfg) +
               " messages=" + std::to_string(msgs.size()));
  const MeshNocSimulator sim(topo, cfg);
  const NocStats want = reference_run(topo, cfg, msgs);
  const NocStats got = sim.run(msgs);
  ASSERT_EQ(got, want) << "completion " << got.completion_cycle << " vs "
                       << want.completion_cycle << ", hops " << got.flit_hops
                       << " vs " << want.flit_hops << ", avg latency "
                       << got.avg_packet_latency << " vs "
                       << want.avg_packet_latency;
  const std::uint64_t done = want.completion_cycle;
  if (done < 2) return;
  EXPECT_EQ(sim.run(msgs, done - 1), want);
  EXPECT_THROW(sim.run(msgs, done - 2), std::runtime_error);
}

nn::NetSpec net_named(const std::string& name) {
  if (name == "mlp") return nn::mlp_spec();
  if (name == "lenet") return nn::lenet_spec();
  if (name == "convnet") return nn::convnet_spec();
  return nn::alexnet_spec();
}

std::size_t compute_layer_count(const nn::NetSpec& spec) {
  std::size_t n = 0;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    n += a.is_compute() ? 1 : 0;
  }
  return n;
}

/// The on-chip bursts execute() hands the simulator: one per comm event,
/// localized onto its chip's mesh.
std::vector<std::vector<Message>> bursts_of(const sched::Schedule& schedule,
                                            std::size_t cores_per_chip) {
  std::vector<std::vector<Message>> out;
  for (const sched::Event& e : schedule.events) {
    if (e.kind != sched::EventKind::kComm || e.inter_chip) continue;
    const std::size_t base = e.chip * cores_per_chip;
    std::vector<Message> local;
    for (const Message& m : e.messages) {
      local.push_back({m.src - base, m.dst - base, m.bytes, 0});
    }
    out.push_back(std::move(local));
  }
  return out;
}

std::vector<Message> random_burst(util::Rng& rng, std::size_t cores,
                                  std::size_t count) {
  std::vector<Message> msgs;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t s = rng.uniform_index(cores);
    // One in eight is a self message, one in eight carries zero bytes.
    const std::size_t d =
        rng.uniform_index(8) == 0 ? s : rng.uniform_index(cores);
    const std::size_t bytes =
        rng.uniform_index(8) == 0 ? 0 : 1 + rng.uniform_index(2048);
    const std::uint64_t inject =
        rng.uniform_index(3) == 0 ? 0 : rng.uniform_index(600);
    msgs.push_back({s, d, bytes, inject});
  }
  return msgs;
}

class NocReferenceZoo : public ::testing::TestWithParam<std::string> {};

// Zoo-net bursts at cores 4..64 x chips 1/2/4 (chip counts above the net's
// compute-layer count cannot be stage-partitioned and are skipped).
TEST_P(NocReferenceZoo, MatchesReference) {
  const nn::NetSpec spec = net_named(GetParam());
  const std::size_t layers = compute_layer_count(spec);
  std::set<std::pair<std::size_t, std::vector<std::size_t>>> seen;
  for (const std::size_t cores : {4, 8, 16, 32, 64}) {
    for (const std::size_t chips : {1, 2, 4}) {
      if (chips > layers) continue;
      sim::SystemConfig cfg;
      cfg.cores = cores;
      cfg.chips = chips;
      const sim::CmpSystem system(cfg);
      const core::InferenceTraffic traffic = core::traffic_dense(
          spec, system.topology(), cfg.bytes_per_value);
      const sched::Schedule schedule = system.build_schedule(spec, traffic);
      const MeshTopology& mesh = system.topology();
      for (const std::vector<Message>& burst :
           bursts_of(schedule, mesh.num_cores())) {
        std::vector<std::size_t> key;
        for (const Message& m : burst) {
          key.insert(key.end(), {m.src, m.dst, m.bytes});
        }
        if (!seen.insert({mesh.num_cores(), key}).second) continue;
        expect_same(mesh, cfg.noc, burst,
                    spec.name + " cores=" + std::to_string(cores) +
                        " chips=" + std::to_string(chips));
      }
    }
  }
  EXPECT_FALSE(seen.empty());
}

INSTANTIATE_TEST_SUITE_P(Nets, NocReferenceZoo,
                         ::testing::Values("mlp", "lenet", "convnet",
                                           "alexnet"),
                         [](const auto& info) { return info.param; });

// One NocConfig field moved off the TABLE II default at a time, on a
// ConvNet 16-core layer burst and a staggered random burst. vcs=8 makes 40
// slots, so the request masks span more than 32 bits.
TEST(NocReference, ConfigSweep) {
  const MeshTopology mesh(4, 4);
  sim::SystemConfig sys_cfg;
  sys_cfg.cores = 16;
  const sim::CmpSystem system(sys_cfg);
  const nn::NetSpec spec = nn::convnet_spec();
  const sched::Schedule schedule = system.build_schedule(
      spec, core::traffic_dense(spec, mesh, sys_cfg.bytes_per_value));
  std::vector<std::vector<Message>> bursts = bursts_of(schedule, 16);
  ASSERT_FALSE(bursts.empty());
  bursts.resize(1);
  util::Rng rng(2024);
  bursts.push_back(random_burst(rng, 16, 48));

  std::vector<NocConfig> configs;
  for (const std::size_t v : {1, 2, 4, 8}) {
    configs.emplace_back().vcs = v;
  }
  for (const std::size_t d : {1, 2, 5}) {
    configs.emplace_back().vc_depth = d;
  }
  for (const std::size_t p : {1, 3}) {
    configs.emplace_back().phys_channels = p;
  }
  for (const std::size_t l : {0, 1, 2, 3}) {
    configs.emplace_back().router_latency = l;
  }
  configs.emplace_back().routing = Routing::kYX;
  for (const std::size_t f : {3, 20}) {
    configs.emplace_back().max_packet_flits = f;
  }
  NocConfig mixed;
  mixed.vcs = 8;
  mixed.vc_depth = 1;
  mixed.phys_channels = 3;
  mixed.router_latency = 0;
  mixed.max_packet_flits = 3;
  mixed.routing = Routing::kYX;
  configs.push_back(mixed);

  for (const NocConfig& cfg : configs) {
    for (std::size_t b = 0; b < bursts.size(); ++b) {
      expect_same(mesh, cfg, bursts[b], "burst " + std::to_string(b));
    }
  }
}

// Tuner-lowered bursts: every non-kernel partition dim wherever it is legal
// plus a mixed-dim candidate, in identity and reversed placements.
TEST(NocReference, TunerCandidates) {
  using sched::PartitionDim;
  for (const nn::NetSpec& spec : {nn::convnet_spec(), nn::alexnet_spec()}) {
    const std::size_t layers = compute_layer_count(spec);
    sim::SystemConfig cfg;
    cfg.cores = 16;
    const sim::CmpSystem system(cfg);
    const core::InferenceTraffic traffic =
        core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
    const sched::LoweringContext ctx(spec, traffic, cfg.cores,
                                     cfg.bytes_per_value);
    const std::vector<PartitionDim> dims = {
        PartitionDim::kBatch, PartitionDim::kHeight, PartitionDim::kWidth,
        PartitionDim::kChannel};
    std::vector<tune::Candidate> candidates;
    for (std::size_t k = 0; k <= dims.size(); ++k) {
      tune::Candidate cand;
      for (std::size_t i = 0; i < layers; ++i) {
        const PartitionDim dim = dims[k < dims.size() ? k : i % dims.size()];
        cand.layer_dims.push_back(ctx.compatible(i, dim)
                                      ? dim
                                      : PartitionDim::kKernel);
      }
      candidates.push_back(cand);
      for (std::size_t c = 0; c < cfg.cores; ++c) {
        cand.placement.push_back(cfg.cores - 1 - c);
      }
      candidates.push_back(cand);
    }
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      const sched::Schedule schedule = tune::lower_candidate(
          spec, traffic, cfg, candidates[k], sched::Strategy::kTraditional);
      for (const std::vector<Message>& burst : bursts_of(schedule, 16)) {
        expect_same(system.topology(), cfg.noc, burst,
                    spec.name + " candidate=" + std::to_string(k));
      }
    }
  }
}

// Seeded random bursts on every mesh from 1x1 to 8x8, with self and
// zero-byte messages and staggered injection cycles (idle gaps the fast
// path skips), under a randomly drawn NocConfig.
TEST(NocReference, RandomBursts) {
  util::Rng rng(13);
  std::size_t cases = 0;
  for (std::size_t rep = 0; rep < 5; ++rep) {
    for (std::size_t cols = 1; cols <= 8; ++cols) {
      for (std::size_t rows = 1; rows <= 8; ++rows) {
        const MeshTopology mesh(cols, rows);
        NocConfig cfg;
        cfg.vcs = 1 + rng.uniform_index(8);
        cfg.vc_depth = 1 + rng.uniform_index(5);
        cfg.phys_channels = 1 + rng.uniform_index(3);
        cfg.router_latency = rng.uniform_index(4);
        cfg.max_packet_flits = 1 + rng.uniform_index(20);
        cfg.flit_bytes = rng.uniform_index(2) == 0 ? 64 : 16;
        cfg.routing = rng.uniform_index(2) == 0 ? Routing::kXY : Routing::kYX;
        const std::size_t count = 1 + rng.uniform_index(2 * cols * rows);
        expect_same(mesh, cfg, random_burst(rng, cols * rows, count),
                    "seed 13 case " + std::to_string(cases));
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 300u);
}

// Both versions throw std::runtime_error with the same message prefix when
// a contended burst outlasts max_cycles, at every budget short of the
// completion cycle, and neither throws at completion - 1.
TEST(NocReference, SameMaxCyclesOutcome) {
  const MeshTopology mesh(4, 4);
  const NocConfig cfg;
  std::vector<Message> burst;
  for (std::size_t s = 1; s < 16; ++s) burst.push_back({s, 0, 2048, s * 7});
  const std::uint64_t done = reference_run(mesh, cfg, burst).completion_cycle;
  const MeshNocSimulator sim(mesh, cfg);
  for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{5},
                                     std::uint64_t{50}, done / 2, done - 2}) {
    SCOPED_TRACE("max_cycles=" + std::to_string(budget));
    std::string want;
    std::string got;
    try {
      reference_run(mesh, cfg, burst, budget);
    } catch (const std::runtime_error& e) {
      want = e.what();
    }
    try {
      sim.run(burst, budget);
    } catch (const std::runtime_error& e) {
      got = e.what();
    }
    EXPECT_EQ(want, "NoC simulation exceeded max_cycles");
    EXPECT_EQ(got.rfind(want, 0), 0u) << got;
  }
  EXPECT_EQ(sim.run(burst, done - 1), reference_run(mesh, cfg, burst));
}

// Arrivals are kept as 32-bit cycles. A contended burst injected at
// 2^32 - 3 drains across the wrap exactly as the same burst injected at
// (2^32 - 3) mod slots does, shifted by the difference: the round-robin
// pointer is cycle % slots, so only a shift by a multiple of slots keeps
// it. The reference loop steps through every idle cycle, so it runs the
// early burst.
TEST(NocReference, ArrivalsWrapPast32Bits) {
  const MeshTopology mesh(4, 4);
  const NocConfig cfg;
  const std::uint64_t late_inject = (std::uint64_t{1} << 32) - 3;
  const std::uint64_t early_inject = late_inject % (5 * cfg.vcs);
  std::vector<Message> early;
  for (std::size_t s = 0; s < 16; ++s) {
    for (std::size_t d = 0; d < 16; ++d) {
      if (s != d) early.push_back({s, d, 512, early_inject});
    }
  }
  std::vector<Message> late = early;
  for (Message& m : late) m.inject_cycle = late_inject;
  const MeshNocSimulator sim(mesh, cfg);
  NocStats want = reference_run(mesh, cfg, early);
  ASSERT_GT(want.completion_cycle, early_inject + 100);
  EXPECT_EQ(sim.run(early), want);
  want.completion_cycle += late_inject - early_inject;
  EXPECT_EQ(sim.run(late, std::uint64_t{1} << 33), want);
}

// Flits that land in the same cycle leave the in-flight heap in the order
// libstdc++'s std::priority_queue pops equal keys. The simulator runs that
// heap algorithm itself, so every build reproduces the committed model
// cycles whatever its standard library; the reference loop above still
// uses std::priority_queue. These kernel-wise zoo bursts pin the order
// without it: each one changes when in_flight pops ties first-in first-out
// (the FIFO completion cycle is noted beside each).
TEST(NocGolden, ZooBurstsKeepTheTieOrder) {
  struct Golden {
    const char* net;
    std::size_t cores;
    std::size_t burst;
    std::uint64_t completion;
    std::uint64_t max_latency;
    double avg_latency;
  };
  const Golden cases[] = {
      {"convnet", 16, 0, 495, 494, 232.16249999999999},  // FIFO: 517
      {"convnet", 64, 1, 283, 282, 113.80803571428571},  // FIFO: 269
      {"alexnet", 8, 0, 3358, 3357, 1548.9846938775511},  // FIFO: 3224
      {"lenet", 64, 0, 405, 404, 188.51632653061225},  // FIFO: 421
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(std::string(g.net) + " cores=" + std::to_string(g.cores) +
                 " burst=" + std::to_string(g.burst));
    sim::SystemConfig cfg;
    cfg.cores = g.cores;
    const sim::CmpSystem system(cfg);
    const nn::NetSpec spec = net_named(g.net);
    const sched::Schedule schedule = system.build_schedule(
        spec,
        core::traffic_dense(spec, system.topology(), cfg.bytes_per_value));
    const std::vector<std::vector<Message>> bursts =
        bursts_of(schedule, g.cores);
    ASSERT_LT(g.burst, bursts.size());
    const NocStats got =
        MeshNocSimulator(system.topology(), cfg.noc).run(bursts[g.burst]);
    EXPECT_EQ(got.completion_cycle, g.completion);
    EXPECT_EQ(got.max_packet_latency, g.max_latency);
    EXPECT_EQ(got.avg_packet_latency, g.avg_latency);
  }
}

}  // namespace
}  // namespace ls::noc
