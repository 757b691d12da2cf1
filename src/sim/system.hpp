#pragma once
// CMP system model: P accelerator cores on a 2D-mesh NoC executing
// Schedule-IR plans (paper Fig. 2; DESIGN.md §4f).
//
// CmpSystem is an *executor over schedules* (src/sched): run_inference is a
// thin build-then-execute wrapper that lowers the spec + traffic into the
// IR and charges, per compute layer,
//   * compute cycles — max over cores of the DianNao core model on that
//     core's kernel partition (cores run in parallel, the slowest gates),
//   * communication cycles — the flit-level NoC simulation of the
//     synchronization burst into that layer ("computation-blocking
//     communication", the paper's §V.A.1 metric), charged before the layer
//     starts. The overlap ablation hides communication behind the
//     *previous* layer's compute instead (policy is schedule data).
// Energies come from the accelerator model and the DSENT-style NoC model.
//
// run_stream executes the same schedule for many independent requests,
// software-pipelined: request k+1's layer-transition bursts overlap
// request k's compute. Every event occupies one resource, named by
// sched::resource_of: its chip's core gang (every compute layer occupies
// all its cores), its chip's NoC, or the serial link into its chip. All
// resources are work-conserving and serve the event with the earliest
// feasible start (request index breaks ties). Requests pass every event
// in index order, so dispatch keeps one cursor per event: R requests over
// E events cost R * E^2.
// Burst latencies still come from the flit model via the memoizing burst
// cache; cross-request NoC contention is queueing on the burst resource.
// Throughput is reported in inferences per 1e6 cycles.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "accel/core_model.hpp"
#include "core/sparsity_profile.hpp"
#include "core/traffic.hpp"
#include "noc/energy.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "nn/layer_spec.hpp"
#include "sched/schedule.hpp"
#include "sched/verify.hpp"

namespace ls::sim {

struct SystemConfig {
  std::size_t cores = 16;  ///< total cores across all chips
  /// Chips in the package (DESIGN.md §4k). Each chip is its own
  /// cores/chips-core mesh with its own DRAM channel; chips are joined by
  /// `inter_chip` serial links and execute pipeline stages of a multi-chip
  /// schedule. 1 = the flat single-chip machine, bit-identical to the
  /// pre-hierarchy system.
  std::size_t chips = 1;
  /// Width/latency class of the chip-boundary links (chips > 1 only).
  noc::InterChipLinkClass inter_chip{};
  accel::AccelConfig accel{};
  noc::NocConfig noc{};
  noc::EnergyConfig noc_energy{};
  std::size_t bytes_per_value = 2;  ///< 16-bit fixed point on-chip
  /// Chip-level LPDDR3 bandwidth in bytes per core cycle (TABLE II: one
  /// channel; 12.8 GB/s at a 1 GHz core clock).
  double chip_dram_bytes_per_cycle = 12.8;
  /// If true, communication overlaps the previous layer's compute
  /// (ablation; the paper's metric is non-overlapped).
  bool overlap_comm = false;
  /// Core cycles per NoC cycle. Embedded NoCs often clock below the
  /// accelerator datapath; > 1 scales every communication latency up by
  /// that ratio (energy is unaffected — it is per-traversal, not per-time).
  double noc_clock_divider = 1.0;
  /// Memoize layer-transition burst simulations in the process-wide
  /// noc::NocRunCache. Correctness-neutral (a hit returns byte-identical
  /// stats); disable to force every burst through the flit-level simulator
  /// (e.g. when timing the simulator itself).
  bool noc_result_cache = true;
  /// Apply the structured-sparsity discount when run_inference is given a
  /// SparsityProfile: each core's macs and weight_bytes scale by its
  /// live-weight fraction (pruned blocks execute nothing on a sparsity-
  /// aware core). Communication cycles are never touched — traffic is
  /// modeled separately (traffic_live). Ablation switch for the
  /// sparse-model tests.
  bool sparse_cycle_model = true;
};

/// Cores on one chip of `cfg`: the mesh every schedule event runs on.
/// Throws std::invalid_argument when the chips cannot tile the cores
/// (chip-major core numbering has no remainder chip).
std::size_t cores_per_chip(const SystemConfig& cfg);

struct LayerTimeline {
  std::string layer_name;
  std::uint64_t compute_cycles = 0;  ///< max over cores
  std::uint64_t comm_cycles = 0;     ///< NoC drain time into this layer
  std::uint64_t blocking_comm_cycles = 0;  ///< after overlap (== comm if none)
  double compute_energy_pj = 0.0;
  double noc_energy_pj = 0.0;
  std::size_t traffic_bytes = 0;
  noc::NocStats noc_stats{};

  friend bool operator==(const LayerTimeline&, const LayerTimeline&) = default;
};

struct InferenceResult {
  std::vector<LayerTimeline> layers;
  std::uint64_t total_cycles = 0;
  std::uint64_t compute_cycles = 0;
  std::uint64_t comm_cycles = 0;  ///< blocking communication total
  double compute_energy_pj = 0.0;
  double noc_energy_pj = 0.0;
  std::size_t traffic_bytes = 0;

  double total_energy_pj() const { return compute_energy_pj + noc_energy_pj; }
  /// Fraction of inference latency spent blocked on communication
  /// (motivational metric of paper §III.B).
  double comm_fraction() const {
    return total_cycles ? static_cast<double>(comm_cycles) /
                              static_cast<double>(total_cycles)
                        : 0.0;
  }

  /// Exact equality — used by the obs determinism test (tracing/metrics
  /// must not perturb results) and the schedule-path golden equivalence
  /// suite (`ctest -L sched`).
  friend bool operator==(const InferenceResult&,
                         const InferenceResult&) = default;
};

/// One dispatched event instance of a streamed run: request `request`
/// executing schedule event `event` over [start_cycle, finish_cycle).
struct StreamTimelineItem {
  std::size_t request = 0;
  sched::EventId event = 0;
  std::uint64_t start_cycle = 0;
  std::uint64_t finish_cycle = 0;

  friend bool operator==(const StreamTimelineItem&,
                         const StreamTimelineItem&) = default;
};

/// Execution record of run_stream, in dispatch order. Dispatch order
/// sequences each resource (consecutive items on one sched::resource_of
/// ran back to back on it) and topologically orders the dep + resource
/// precedence graph — exactly the contract prof::attribute_stream
/// consumes for critical-path and slack analysis.
struct StreamTimeline {
  std::vector<StreamTimelineItem> items;
};

/// Multi-request streaming outcome (run_stream). Requests are independent
/// inferences of the same schedule, all released at cycle 0.
struct StreamResult {
  std::size_t requests = 0;
  /// One request executed alone — identical to run_inference over the same
  /// schedule (and bit-identical to it for n = 1 streams).
  InferenceResult single_pass{};
  /// Completion cycle of the whole stream.
  std::uint64_t makespan_cycles = 0;
  /// Completion cycle of request 0 — the pipeline-fill latency.
  std::uint64_t fill_cycles = 0;
  /// Per-request completion cycles (size = requests).
  std::vector<std::uint64_t> request_finish_cycle;
  /// Inferences per 1e6 cycles over the whole stream.
  double throughput_per_mcycle = 0.0;
  /// Busy fraction of the core gangs / the NoCs over the makespan — how
  /// full the software pipeline keeps each resource. Multi-chip systems
  /// average across chips (each chip is its own gang + NoC).
  double compute_occupancy = 0.0;
  double noc_occupancy = 0.0;
  /// Busy fraction of the chip-boundary links (0 on single-chip systems).
  double inter_chip_occupancy = 0.0;
  /// makespan of n back-to-back non-overlapped single passes divided by
  /// the streamed makespan (>1 means pipelining won).
  double speedup_vs_back_to_back = 0.0;
};

class CmpSystem {
 public:
  explicit CmpSystem(const SystemConfig& cfg);

  /// Runs one partitioned inference of `spec` with the given layer-
  /// transition traffic (produced by core::traffic_dense / traffic_live on
  /// the same spec). When `sparsity` is non-null (and
  /// SystemConfig::sparse_cycle_model is on), per-core compute work is
  /// discounted by the profile's live-MAC fractions; unprofiled layers
  /// stay dense. Thin wrapper: lowers to the Schedule IR via
  /// build_schedule and executes it.
  InferenceResult run_inference(
      const nn::NetSpec& spec, const core::InferenceTraffic& traffic,
      const core::SparsityProfile* sparsity = nullptr) const;

  /// Lowers spec + traffic (+ profile) into a Schedule using this system's
  /// configuration (cores, bytes/value, overlap policy, sparse model).
  /// Multi-chip systems lower via sched::lower_pipelined — `traffic` must
  /// then be the layer-transition analysis at cores/chips cores (the
  /// per-chip mesh every stage runs on).
  sched::Schedule build_schedule(
      const nn::NetSpec& spec, const core::InferenceTraffic& traffic,
      const core::SparsityProfile* sparsity = nullptr) const;

  /// Executes a batch of schedules; result i belongs to schedule i. Every
  /// schedule must target this system's cores and chips and pass verify()
  /// — otherwise std::invalid_argument names the first that does not,
  /// before a single flit is simulated. The batch's on-chip bursts are
  /// deduplicated by exact ordered message sequence, and the distinct ones
  /// are simulated in one pool job, largest flit count first, through the
  /// memoizing cache under `stream_epoch` (see noc::NocRunCache::run; 0 =
  /// the shared single-pass memo space) unless it is disabled. Each
  /// schedule's timeline is then assembled serially, so every result is
  /// identical to executing its schedule alone.
  std::vector<InferenceResult> execute(
      std::span<const sched::Schedule> schedules,
      std::uint64_t stream_epoch = 0) const;

  /// A batch of one.
  InferenceResult execute(const sched::Schedule& schedule,
                          std::uint64_t stream_epoch = 0) const;

  /// sched::verify under this system's per-core accel and NoC configs —
  /// the check execute runs before simulating.
  sched::VerifyReport verify(const sched::Schedule& schedule) const;

  /// Software-pipelined execution of `requests` independent inferences of
  /// `schedule` (see the header comment for the resource model). The
  /// overlap ablation flag on comm events is ignored here: streaming
  /// overlap is structural — a burst runs whenever the NoC is free and its
  /// producer layer finished, typically under another request's compute.
  /// When `timeline` is non-null the per-item execution record is written
  /// into it (dispatch order) for the profiling layer (src/prof).
  StreamResult run_stream(const sched::Schedule& schedule,
                          std::size_t requests, std::uint64_t stream_epoch = 0,
                          StreamTimeline* timeline = nullptr) const;

  const SystemConfig& config() const { return cfg_; }
  /// One chip's mesh (== the whole machine when chips == 1).
  const noc::MeshTopology& topology() const { return topo_; }

 private:
  /// One schedule's timeline from the batch's simulated bursts: on-chip
  /// comm event i drained as `burst_stats[burst_of[i]]`.
  InferenceResult assemble(const sched::Schedule& schedule,
                           std::span<const std::size_t> burst_of,
                           std::span<const noc::NocStats> burst_stats,
                           const noc::MeshNocSimulator& noc_sim) const;

  SystemConfig cfg_;
  noc::MeshTopology topo_;
  accel::CoreModel core_model_;
};

/// baseline cycles / variant cycles. A zero-cycle variant (degenerate
/// reference) logs a warning and yields 0 instead of inf.
double speedup(const InferenceResult& baseline, const InferenceResult& v);

/// 1 - variant NoC energy / baseline NoC energy. A zero-energy baseline
/// logs a warning and yields 0 instead of NaN/-inf.
double comm_energy_reduction(const InferenceResult& baseline,
                             const InferenceResult& v);

/// variant traffic bytes / baseline traffic bytes. A zero-traffic baseline
/// logs a warning and yields 0 instead of inf/NaN.
double traffic_rate(const InferenceResult& baseline,
                    const InferenceResult& v);

namespace testing {
/// The pre-Schedule-IR per-layer loop, kept verbatim as the golden
/// reference for the schedule-path equivalence suite (`ctest -L sched`).
/// Numerics only: no tracing, no metrics side effects — observability
/// independence is pinned separately by the obs determinism test.
InferenceResult reference_run_inference(
    const SystemConfig& cfg, const nn::NetSpec& spec,
    const core::InferenceTraffic& traffic,
    const core::SparsityProfile* sparsity = nullptr);
}  // namespace testing

}  // namespace ls::sim
