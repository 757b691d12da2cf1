#pragma once
// Static schedule verifier (DESIGN.md §4j "Static analysis").
//
// verify() is the one structural check on a built schedule, active in
// every build. Tuned-schedule caches are loaded from disk, hand-edited,
// and consumed blind by serving, so a malformed schedule must be rejected
// with a diagnostic before a single flit is simulated. (Malformed tuning
// knobs never get this far: lowering throws on them, builders.hpp.)
//
// verify() is a pure function over any Schedule that proves, without
// executing anything,
//   * acyclicity        — every dependency edge points to an earlier event
//     (the event list is a topological order, so execution cannot
//     deadlock),
//   * placement         — the recorded partition->core permutation is a
//     bijection of 0..cores-1, and every compute event covers exactly the
//     core range (per-core work vector of `cores` entries),
//   * event pairing     — every comm burst is immediately followed by the
//     compute event it feeds (same layer) and has a producing compute
//     event to drain from,
//   * burst endpoints   — every message's source core holds work in the
//     producing layer and its destination holds work in the consuming
//     layer (skipped after a channel-split producer, whose reduce-scatter
//     targets the kernel-wise layout instead — see builders.cpp),
//   * byte totals       — a comm event's declared bytes equal the sum of
//     its messages (the flit simulator packetizes the messages; the cost
//     model prices the total — they must agree),
//   * route validity    — every message's XY/YX dimension-ordered route
//     stays on the configured mesh (for a rectangular mesh this reduces
//     to endpoint containment: DOR paths between in-bounds coordinates
//     never leave the rectangle),
//   * capacity          — no core is assigned more weight bytes than its
//     weight buffer can hold when the accelerator model has no DRAM path
//     to stream them (dram_bytes_per_cycle == 0),
//   * reduction order   — messages within a burst are strictly ascending
//     by (producer partition, consumer partition), the deterministic
//     emission order every builder uses; duplicates or inversions would
//     make the channel-split reduce-scatter's accumulation order
//     ambiguous. A channel-split compute event on a multi-core chip must
//     also be followed by an on-chip burst on its own chip (its
//     reduce-scatter), so it can neither be last nor end a stage,
//   * chip hierarchy    — multi-chip schedules only: compute chip ids form
//     a non-decreasing onto map of pipeline stages over 0..chips-1, work
//     and on-chip bursts stay inside their chip's chip-major core range,
//     routes are checked on the per-chip mesh, and every inter-chip
//     transfer is a single gateway(chip-1) -> gateway(chip) message —
//     bytes cross chip boundaries only at gateway links.
//
// Violations are collected into a VerifyReport — code, event id, message —
// never thrown or aborted, so callers decide: CmpSystem::execute rejects
// with std::invalid_argument, the tuner skips the candidate, and
// `ls_experiment verify` audits a whole cache file and exits nonzero.
//
// Cost: O(events + messages + cores) with small constants — cheap enough
// to run on every execute() and negligible (<1%) next to the analytic
// cost model's per-link routing walk in the tuner loop.

#include <cstddef>
#include <string>
#include <vector>

#include "accel/core_model.hpp"
#include "noc/simulator.hpp"
#include "sched/schedule.hpp"

namespace ls::sched {

enum class VerifyCode {
  // A dependency edge that is not strictly backwards (cycle risk).
  kCyclicDependence,
  // Placement permutation or per-core coverage broken.
  kPlacementNotBijective,
  // Comm/compute pairing or payload shape broken.
  kUnpairedEvent,
  // A message endpoint that is idle in its producer/consumer layer.
  kOrphanBurstEndpoint,
  // Declared burst bytes differ from the sum of its messages.
  kByteTotalMismatch,
  // A dimension-ordered route that leaves the configured mesh.
  kOffMeshRoute,
  // Weight bytes exceed the buffer with no DRAM path to stream them.
  kCapacityOverflow,
  // Burst ordering / reduce-scatter determinism precondition broken.
  kNondeterministicReduction,
  // Multi-chip stage/chip structure broken: chip ids not a non-decreasing
  // onto map of pipeline stages, work or on-chip bursts leaking across a
  // chip's core range, or an inter-chip transfer not shaped
  // gateway(chip-1) -> gateway(chip).
  kChipBoundaryViolation,
};

/// Stable kebab-case rule name ("cyclic-dependence", ...), used in
/// diagnostics and by the `ls_experiment verify` report.
const char* to_string(VerifyCode code);

/// Sentinel event id for schedule-level violations (placement, cores).
inline constexpr EventId kNoEvent = static_cast<EventId>(-1);

struct Violation {
  VerifyCode code = VerifyCode::kCyclicDependence;
  /// The event the violation pinpoints (kNoEvent for schedule-level).
  EventId event = kNoEvent;
  std::string message;
};

struct VerifyReport {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  /// One "event N [rule-id]: message" line per violation.
  std::string to_string() const;
};

struct VerifyOptions {
  /// Capacity bounds (weight buffer bytes, DRAM path). Callers with a
  /// configured system should pass its per-core accel config.
  accel::AccelConfig accel{};
  noc::NocConfig noc{};
  /// Disables the kCapacityOverflow class (the other invariants are
  /// unconditional structure, capacity is a model parameter).
  bool check_capacity = true;
};

/// Pure static pass over `schedule`; returns every violation found (empty
/// report == sound). Never throws, never aborts, active in all builds.
VerifyReport verify(const Schedule& schedule,
                    const VerifyOptions& options = {});

namespace testing {

/// Invariant class 10 corruption seeds, one per verifier violation class.
/// Mirrors VerifyCode so the negative suite can assert the exact code.
enum class Corruption {
  kCyclicDependence,
  kNonBijectivePlacement,
  kOrphanBurstEndpoint,
  kByteTotalMismatch,
  kOffMeshRoute,
  kCapacityOverflow,
  kNondeterministicReduction,
  /// Multi-chip schedules only: bends an inter-chip message off its
  /// destination gateway.
  kChipBoundaryViolation,
};

/// Seeds exactly one `kind` corruption into an otherwise-valid schedule
/// and returns the event id verify() must pinpoint (kNoEvent for
/// schedule-level corruptions). Requires a lowered schedule with at least
/// one multi-message comm event and two cores.
EventId corrupt(Schedule* schedule, Corruption kind);

}  // namespace testing

}  // namespace ls::sched
