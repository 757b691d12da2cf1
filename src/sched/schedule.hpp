#pragma once
// Schedule IR: the explicit execution plan of one partitioned inference
// (DESIGN.md §4f "Schedule IR & streaming engine").
//
// The paper's parallelization strategies (traditional, structure-level
// grouping, SS/SS_Mask sparsified, hybrid) differ only in *what* work each
// layer transition implies — which bytes move between cores and how many
// MACs each core executes. This module reifies that as data: a Schedule is
// a topologically-ordered list of events,
//   * CommEvent    — the synchronization burst into a compute layer
//     (explicit noc::Message list, total bytes, overlap policy),
//   * ComputeEvent — the layer's per-core kernel partitions as
//     accel::LayerPartitionWork (sparsity discounts already applied),
// with explicit dependency edges. Builders (builders.hpp) lower
// NetSpec + InferenceTraffic (+ optional SparsityProfile) into a Schedule;
// ls::sim::CmpSystem is an executor over schedules — the same engine runs
// every strategy, single-pass or software-pipelined across many requests.
//
// Invariants (sched::verify, verify.hpp, checks them in every build and
// CmpSystem::execute rejects a schedule that breaks one):
//   * dependencies point backwards (the event list is a topological order,
//     so the graph is acyclic by construction),
//   * every comm event is immediately followed by the compute event it
//     feeds (same layer), which is what the executor's layer pairing and
//     the overlap ablation rely on,
//   * event payloads stay inside the machine: per-core work vectors have
//     exactly `cores` entries, message endpoints are < cores, and a comm
//     event's bytes equal the sum of its messages.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/core_model.hpp"
#include "noc/simulator.hpp"

namespace ls::util {
class JsonWriter;
}

namespace ls::sched {

/// Index of an earlier event in Schedule::events.
using EventId = std::size_t;

enum class EventKind { kComm, kCompute };

const char* to_string(EventKind kind);

/// Which strategy a builder lowered. Purely descriptive — the executor
/// treats every schedule identically; the tag survives into dumps/traces.
enum class Strategy { kTraditional, kStructureLevel, kSparsified, kHybrid };

const char* to_string(Strategy strategy);

/// Per-layer parallelization dimension (Jia et al., "Exploring Hidden
/// Dimensions"): which axis of the layer's work is split across the P
/// cores. The choice changes both the per-core kernel partitions and the
/// layer-transition synchronization burst the lowering emits:
///   * kKernel  — split output channels / neurons (the paper's scheme and
///     the historical default; every consumer gathers the full input),
///   * kBatch   — no intra-layer split: with the simulator's batch of one,
///     partition 0 executes the whole layer and gathers the full input,
///   * kHeight  — split output rows; consumers exchange only kernel-halo
///     input rows with spatial neighbours (conv only),
///   * kWidth   — split output columns, halo exchange on the column axis,
///   * kChannel — split *input* channels; each core computes partial sums
///     for the whole output volume, and a reduce-scatter back to the
///     kernel-wise layout rides on the next on-chip layer transition
///     (hence not allowed on the last compute layer of a pipeline stage).
enum class PartitionDim { kKernel, kBatch, kHeight, kWidth, kChannel };

const char* to_string(PartitionDim dim);

/// Parses the to_string form back ("kernel" -> kKernel, ...). Returns
/// false on an unknown name (used by the tuned-schedule cache loader).
bool parse_partition_dim(const std::string& name, PartitionDim* out);

struct Event {
  EventKind kind = EventKind::kCompute;
  /// Consumer compute layer this event belongs to.
  std::string layer_name;
  /// Events that must complete first (always earlier in the list).
  std::vector<EventId> deps;
  /// Pipeline stage / chip this event executes on (multi-chip schedules,
  /// DESIGN.md §4k). Always 0 on single-chip schedules. A compute event
  /// runs on chip `chip`'s core gang; an on-chip comm event rides chip
  /// `chip`'s mesh; an inter-chip comm event crosses the boundary *into*
  /// chip `chip` (from chip-1's gateway to chip's gateway).
  std::size_t chip = 0;
  /// Comm events only: this burst crosses a chip boundary over the
  /// package's InterChipLinkClass serial link instead of a mesh. Its one
  /// message must run gateway(chip-1) -> gateway(chip).
  bool inter_chip = false;

  // --- kComm payload ------------------------------------------------------
  /// The layer-transition burst, in injection order (order matters to the
  /// flit simulator and to the burst-cache key).
  std::vector<noc::Message> messages;
  std::size_t traffic_bytes = 0;
  /// Overlap-ablation policy: hide this burst behind the previous layer's
  /// compute (charged only where it exceeds it). Captured at build time so
  /// policy is schedule data, not executor state.
  bool overlap_with_prev_compute = false;

  // --- kCompute payload ---------------------------------------------------
  /// Per-core kernel partition work, indexed by *physical* core id
  /// (size = cores; the build-time placement permutation is already
  /// applied). Cores with no share of the layer hold all-zero work.
  std::vector<accel::LayerPartitionWork> per_core_work;
  /// MACs removed from the dense partitioning by the sparsity discount
  /// (feeds the `sparse.sim.macs_discounted` counter).
  std::uint64_t macs_discounted = 0;
  /// Which axis the layer was split on (descriptive: the per_core_work and
  /// the surrounding comm events already encode the consequences).
  PartitionDim partition_dim = PartitionDim::kKernel;
};

struct Schedule {
  std::string net_name;
  Strategy strategy = Strategy::kTraditional;
  std::size_t cores = 0;
  /// Chips the schedule spans (cores are chip-major: chip s owns cores
  /// [s*cores/chips, (s+1)*cores/chips)). 1 = the flat single-chip case,
  /// whose schedules are byte-identical to the pre-hierarchy IR.
  std::size_t chips = 1;
  /// Partition -> physical-core permutation the lowering applied (empty =
  /// identity). Events already carry physical core ids; this records the
  /// mapping for dumps and for verify's bijectivity check.
  std::vector<std::size_t> placement;
  /// Topologically ordered: every event's deps precede it.
  std::vector<Event> events;

  std::size_t compute_event_count() const;
  std::size_t comm_event_count() const;
  /// Total bytes moved by all comm events.
  std::size_t traffic_bytes() const;
};

/// Dense id of the resource event `e` occupies when the schedule is
/// streamed: chip c's core gang is c, its NoC chips + c, and the serial
/// link into chip c is 2 * chips + c - 1. A single-chip schedule has two
/// resources, its gang (0) and its NoC (1). run_stream dispatches on it;
/// prof::attribute_stream chains each resource's items through it.
std::size_t resource_of(const Schedule& schedule, EventId e);

/// Number of resource_of ids: 3 * chips - 1 (chips >= 1, as verify
/// requires).
std::size_t resource_count(const Schedule& schedule);

struct CycleEstimate;  // cost_model.hpp

/// Serializes the schedule into `w` as one JSON object (events with kinds,
/// deps, per-core work, and the full message list) — the
/// `ls_experiment infer --schedule-dump` format, for inspection/diffing.
/// When `estimate` is non-null (sched::estimate_cycles over this same
/// schedule), every event additionally carries its analytic cycle estimate
/// so tuner decisions are inspectable from the dump alone.
void to_json(const Schedule& schedule, util::JsonWriter& w,
             const CycleEstimate* estimate = nullptr);

/// Convenience: to_json rendered to a string.
std::string to_json(const Schedule& schedule,
                    const CycleEstimate* estimate = nullptr);

}  // namespace ls::sched
