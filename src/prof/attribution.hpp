#pragma once
// Critical-path analysis and makespan blame over executed schedules
// (DESIGN.md §4h "Profiling & attribution").
//
// run_stream's per-chip-resource list scheduler (the resources are
// sched::resource_of's: one core gang + one NoC per chip, one serial link
// per chip boundary) is work-conserving: an item starts at
// max(ready, resource_free), so every item's start coincides with either
// its resource predecessor's finish or a dependency's finish.
// That makes the critical chain *gapless* — walking backward from the
// item that finishes at the makespan always lands on a predecessor whose
// finish equals the current start, down to cycle 0. The chain's segments
// therefore tile [0, makespan) exactly, and blaming each segment by how
// the walk stepped into it yields a decomposition that provably sums to
// the makespan (LS_CHECK-enforced):
//   * compute        — a compute segment reached through the core-gang
//     resource: the cores were the bottleneck during it,
//   * noc            — a comm segment reached through the NoC resource:
//     cross-request burst queueing was the bottleneck,
//   * inter_chip     — an inter-chip transfer reached through its boundary
//     link: the serial link itself was the bottleneck,
//   * dep_stall_on_* — a segment reached through a dependency edge: the
//     successor's resource sat free while this predecessor (compute or
//     comm) held the chain. For a single-request stream this bucket's
//     comm flavor is exactly the paper's "computation-blocking
//     communication".
// Per-item slack comes from the standard CPM backward pass over the
// fixed dispatch sequence (dependency + resource-order edges); items
// with zero slack are on *a* critical path.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sched/schedule.hpp"
#include "sim/system.hpp"

namespace ls::prof {

/// Makespan decomposition; buckets sum exactly to the makespan.
struct BlameBreakdown {
  std::uint64_t compute_cycles = 0;
  std::uint64_t noc_cycles = 0;
  /// Chip-boundary serial-link occupancy on the chain (multi-chip only).
  std::uint64_t inter_chip_cycles = 0;
  std::uint64_t dep_stall_on_compute_cycles = 0;
  std::uint64_t dep_stall_on_comm_cycles = 0;
  /// Chain held by an inter-chip transfer a successor waited on.
  std::uint64_t dep_stall_on_inter_chip_cycles = 0;

  std::uint64_t total() const {
    return compute_cycles + noc_cycles + inter_chip_cycles +
           dep_stall_on_compute_cycles + dep_stall_on_comm_cycles +
           dep_stall_on_inter_chip_cycles;
  }
  friend bool operator==(const BlameBreakdown&,
                         const BlameBreakdown&) = default;
};

/// Per-dispatched-item profile, parallel to StreamTimeline::items.
struct ItemAttribution {
  /// Latest finish that would not delay the makespan (CPM late-finish
  /// minus actual finish). Zero on at least one full chain.
  std::uint64_t slack_cycles = 0;
  /// Item lies on the blame walk's critical chain.
  bool on_critical_chain = false;
};

struct StreamAttribution {
  std::uint64_t makespan_cycles = 0;
  BlameBreakdown blame{};
  /// Parallel to the timeline's items (dispatch order).
  std::vector<ItemAttribution> items;
  /// Indices into the timeline of the critical chain, in time order.
  std::vector<std::size_t> critical_chain;
};

/// Per-request latency split: the request's own execution time by event
/// kind plus the cycles it spent runnable-but-waiting (queueing on a
/// busy resource or released but not started). The three parts sum to
/// the request's completion cycle (all requests release at cycle 0).
struct RequestLatency {
  std::size_t request = 0;
  std::uint64_t latency_cycles = 0;  ///< completion cycle
  std::uint64_t compute_cycles = 0;
  std::uint64_t comm_cycles = 0;
  std::uint64_t queue_wait_cycles = 0;

  friend bool operator==(const RequestLatency&,
                         const RequestLatency&) = default;
};

struct StreamLatency {
  std::vector<RequestLatency> requests;
  /// Exact order-statistic percentiles of latency_cycles.
  double p50_cycles = 0.0;
  double p95_cycles = 0.0;
  double p99_cycles = 0.0;
};

/// Critical-chain blame + per-item slack for one executed stream.
/// `timeline` must be the record run_stream produced for `schedule` (the
/// dispatch-order contract in sim/system.hpp); an empty timeline yields
/// an empty attribution.
StreamAttribution attribute_stream(const sched::Schedule& schedule,
                                   const sim::StreamTimeline& timeline);

/// Serial-timeline blame for one single-pass execution: compute cycles
/// are compute blame, blocking communication is dependency stall on comm
/// (the cores sit idle while the burst drains; inter-chip transfer time is
/// folded in — the serial pass has no resource overlap to distinguish).
/// Sums to total_cycles.
BlameBreakdown attribute_single_pass(const sim::InferenceResult& result);

/// Per-request latency decomposition of an executed stream.
StreamLatency stream_latency(const sched::Schedule& schedule,
                             const sim::StreamTimeline& timeline);

}  // namespace ls::prof
