#pragma once
// Analytic cycle scorer over the Schedule IR (DESIGN.md §4g "Schedule
// autotuning").
//
// The autotuner (src/tune) scores thousands of candidate schedules; running
// the flit-level NoC simulation for each would dominate the search, so this
// model prices a schedule in closed form:
//   * compute events — exactly the executor's numbers: the same
//     accel::CoreModel::partition_cost over the event's per-core work (the
//     compute half of the estimate is *not* an approximation),
//   * comm events — a link-contention approximation of the mesh: every
//     message is packetized into flits and routed along its dimension-
//     ordered path; the burst estimate is the larger of (a) the most-loaded
//     resource — a directed link (divided by the physical-channel count), a
//     source's injection port, or a destination's ejection port — plus the
//     head-flit pipeline latency, and (b) the slowest single message's
//     zero-load latency. This tracks the flit simulator closely on both
//     serialization-bound (few hot links) and latency-bound (long sparse
//     paths) bursts; winners are still validated flit-level before being
//     declared (tuner top-k validation).
// Events combine exactly like CmpSystem::execute: overlap-tagged comm
// events charge only the drain time exceeding the previous layer's compute.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "accel/core_model.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "sched/schedule.hpp"

namespace ls::sched {

/// The subset of ls::sim::SystemConfig the scorer needs (kept separate so
/// ls_sched stays below ls_sim in the module DAG).
struct CostModelConfig {
  accel::AccelConfig accel{};
  /// Chip-level DRAM bandwidth in bytes per core cycle, divided across the
  /// cores of one chip by per_core_accel (each chip of a multi-chip
  /// package has its own channel).
  double chip_dram_bytes_per_cycle = 12.8;
  noc::NocConfig noc{};
  /// Core cycles per NoC cycle (scales every on-chip comm estimate).
  double noc_clock_divider = 1.0;
  /// Width/latency class of the package's chip-boundary links (multi-chip
  /// schedules only). Inter-chip transfers are priced in core cycles
  /// directly — the serial link has its own clock domain, so the NoC
  /// divider does not apply to it.
  noc::InterChipLinkClass inter_chip{};
};

/// One core's accelerator config: `accel` with an equal share of its chip's
/// DRAM channel. CmpSystem (and so its verify options) and EventPricer
/// both build their core model from it, so the compute half of the
/// estimate is bit-identical to the executor's numbers.
accel::AccelConfig per_core_accel(const accel::AccelConfig& accel,
                                  double chip_dram_bytes_per_cycle,
                                  std::size_t cores_per_chip);

/// Analytic core-cycle price of one gateway-to-gateway transfer: the fixed
/// crossing latency plus serialization over the boundary link.
/// Shared by the cost model, the executor, and run_stream so the three
/// views of an inter-chip event always agree.
std::uint64_t inter_chip_transfer_cycles(const noc::InterChipLinkClass& link,
                                         std::uint64_t bytes);

/// One burst's resource loads under one placement, as burst_cycles leaves
/// them: what EventPricer::reprice starts from when a placement swap moves
/// only some of the burst's messages.
struct BurstLoads {
  /// Directed-link loads as difference arrays along each row (east/west,
  /// cols+1 entries per row) and column (south/north, rows+1 per column).
  std::vector<std::uint64_t> east, west, south, north;
  /// Per-core injection and ejection flits.
  std::vector<std::uint64_t> inject, eject;
  /// Each message's zero-load latency; 0 for self and zero-byte messages.
  std::vector<std::uint64_t> zero_load;
};

/// Prices single events of a schedule whose chips each carry `mesh`: one
/// on-chip burst, one inter-chip transfer, one compute event (the chip's
/// DRAM channel shared by the mesh's cores). estimate_cycles and the
/// autotuner's memoized scorer both price through it, so an event costs
/// the same whichever one asks.
class EventPricer {
 public:
  EventPricer(const CostModelConfig& cfg, const noc::MeshTopology& mesh);

  /// Compute event: the slowest core of `per_core_work` — exactly the
  /// executor's CoreModel::partition_cost worst_cycles.
  std::uint64_t compute_cycles(
      std::span<const accel::LayerPartitionWork> per_core_work) const;

  /// Raw (pre-overlap) core cycles of one on-chip burst, NoC divider
  /// applied. A message endpoint e rides mesh core place[e - base] (core
  /// e - base when `place` is empty); an endpoint off the mesh throws
  /// std::out_of_range. Self and zero-byte messages load nothing.
  std::uint64_t burst_cycles(std::span<const noc::Message> messages,
                             std::span<const std::size_t> place = {},
                             std::size_t base = 0);
  /// The same, keeping the burst's loads in `kept` for reprice.
  std::uint64_t burst_cycles(std::span<const noc::Message> messages,
                             std::span<const std::size_t> place,
                             std::size_t base, BurstLoads& kept);
  /// burst_cycles(messages, place, base), bit for bit, where `kept` holds
  /// the loads of the same messages under `place` with positions `a` and
  /// `b` swapped. Only the messages from or to partitions a and b are
  /// re-routed; every other message keeps its kept route and latency.
  std::uint64_t reprice(const BurstLoads& kept,
                        std::span<const noc::Message> messages,
                        std::span<const std::size_t> place, std::size_t a,
                        std::size_t b, std::size_t base = 0);

  /// One gateway-to-gateway transfer (no NoC divider: own clock domain).
  std::uint64_t inter_chip_cycles(std::uint64_t bytes) const {
    return inter_chip_transfer_cycles(inter_chip_, bytes);
  }

 private:
  std::size_t mesh_core(std::size_t endpoint,
                        std::span<const std::size_t> place,
                        std::size_t base) const;
  /// Adds (or, with `remove`, takes back) one message's flits along its
  /// dimension-ordered route and at its ports; returns its zero-load
  /// latency when adding, else 0. The one per-message routing rule of
  /// burst_cycles and reprice.
  std::uint64_t route(const noc::Message& m,
                      std::span<const std::size_t> place, std::size_t base,
                      BurstLoads& loads, bool remove) const;
  /// Raw core cycles of a burst from its loads and slowest message.
  std::uint64_t drain_cycles(const BurstLoads& loads,
                             std::uint64_t max_zero_load) const;

  noc::MeshNocSimulator sim_;
  accel::CoreModel core_model_;
  double noc_clock_divider_;
  noc::InterChipLinkClass inter_chip_;
  std::size_t cols_, rows_;
  std::vector<std::uint32_t> x_, y_;  ///< per-core mesh coordinates
  BurstLoads scratch_;  ///< loads of the burst being priced
};

/// A comm event's share of the serial timeline: its raw drain, or under
/// overlap only the part exceeding the previous layer's compute.
inline std::uint64_t blocking_comm_cycles(std::uint64_t raw,
                                          std::uint64_t prev_compute,
                                          bool overlap) {
  if (!overlap) return raw;
  return raw > prev_compute ? raw - prev_compute : 0;
}

/// Per-event view of the estimate, parallel to Schedule::events.
struct EventEstimate {
  /// Contribution to the serial timeline: compute cycles for compute
  /// events, blocking (post-overlap) comm cycles for comm events.
  std::uint64_t cycles = 0;
  /// Comm events only: the estimated full drain before overlap.
  std::uint64_t raw_comm_cycles = 0;
};

struct CycleEstimate {
  std::uint64_t total_cycles = 0;
  std::uint64_t compute_cycles = 0;
  /// Blocking communication total (after per-event overlap policy).
  std::uint64_t comm_cycles = 0;
  std::vector<EventEstimate> events;
};

/// Analytic estimate of executing `schedule` once (see header comment for
/// the model). Deterministic and allocation-light: safe to call thousands
/// of times from the tuner's search loop.
CycleEstimate estimate_cycles(const Schedule& schedule,
                              const CostModelConfig& cfg);

}  // namespace ls::sched
