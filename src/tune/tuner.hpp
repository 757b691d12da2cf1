#pragma once
// Schedule autotuner (DESIGN.md §4g "Schedule autotuning").
//
// Searches the cross-product of
//   * per-layer parallelization dimension (sched::PartitionDim),
//   * partition -> physical-core placement permutation,
//   * comm/compute overlap policy
// for the schedule with the lowest end-to-end cycle count. Candidates are
// scored with the analytic model (thousands of evaluations per search;
// Scorer prices only the layers a move touches, bit-identical to
// sched::estimate_cycles over the lowered candidate), and only the top-k
// analytic winners are validated with the flit-level NoC simulation
// (one batched CmpSystem::execute, with the baseline) before one is
// declared best; the baseline wins when none of them validates faster.
// The search is greedy hill-climbing with random restarts over
// single-knob moves (one layer's dim, one placement swap, the overlap
// flag), driven by a seeded util::Rng: the same seed and budget always
// visit the same candidates and return the same winner.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/traffic.hpp"
#include "nn/layer_spec.hpp"
#include "sched/builders.hpp"
#include "sched/cost_model.hpp"
#include "sim/system.hpp"

namespace ls::tune {

/// One point in the search space. Defaults describe the historical
/// kernel-wise schedule (identity placement, no overlap).
struct Candidate {
  std::vector<sched::PartitionDim> layer_dims;  ///< per compute layer
  std::vector<std::size_t> placement;           ///< empty = identity
  bool overlap_comm = false;

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

struct TunerConfig {
  /// Analytic-model evaluations across all restarts (the search's only
  /// cost knob; flit validation adds top_k + 1 simulations on top).
  std::uint64_t budget = 2000;
  std::size_t restarts = 4;
  /// Analytic winners to validate flit-level before declaring best.
  std::size_t top_k = 3;
  std::uint64_t seed = 0x4c535343;  ///< "LSSC"; any value is deterministic

  /// Tuning happens under a fixed overlap policy when false — the comm/
  /// compute overlap ablation knob stays at SystemConfig::overlap_comm and
  /// the search only moves dims and placement.
  bool search_overlap = true;
};

/// One scored mutation of a restart's hill climb. Accepted moves replace
/// the incumbent (strictly lower analytic cost).
struct TuneMove {
  std::uint64_t eval = 0;        ///< global eval index when scored (1-based)
  std::uint64_t est_cycles = 0;  ///< analytic score of the proposed move
  bool accepted = false;

  friend bool operator==(const TuneMove&, const TuneMove&) = default;
};

/// Trajectory of one restart: where it started, where it converged, and
/// every move it scored on the way.
struct TuneRestartTrace {
  std::size_t restart = 0;
  std::uint64_t start_est_cycles = 0;
  std::uint64_t final_est_cycles = 0;
  std::vector<TuneMove> moves;

  friend bool operator==(const TuneRestartTrace&,
                         const TuneRestartTrace&) = default;
};

/// One finalist's estimated-vs-validated pair — the cost-model scatter the
/// profiling layer plots (prof/report).
struct TuneValidationPoint {
  std::uint64_t est_cycles = 0;  ///< analytic score that shortlisted it
  std::uint64_t sim_cycles = 0;  ///< flit-level validation
  /// The declared winner. False on every point when no finalist validated
  /// strictly faster than the baseline, which then wins (TuneOutcome).
  bool is_best = false;

  friend bool operator==(const TuneValidationPoint&,
                         const TuneValidationPoint&) = default;
};

/// Search telemetry, filled when tune() is given a non-null out-param:
/// per-restart trajectories plus the validation scatter. Purely
/// observational — collecting it never changes the search.
struct TuneTelemetry {
  std::vector<TuneRestartTrace> restarts;
  std::vector<TuneValidationPoint> validations;
  std::uint64_t moves_accepted = 0;
  std::uint64_t moves_rejected = 0;

  friend bool operator==(const TuneTelemetry&,
                         const TuneTelemetry&) = default;
};

struct TuneOutcome {
  /// The finalist with the fewest validated cycles, or the baseline
  /// candidate when no finalist validated strictly faster than it — so
  /// best_sim_cycles never exceeds baseline_sim_cycles.
  Candidate best;
  /// Analytic score of `best`.
  std::uint64_t best_est_cycles = 0;
  /// Flit-level validation of `best` (the declared metric).
  std::uint64_t best_sim_cycles = 0;
  /// The kernel-wise / identity-placement schedule under the system's own
  /// overlap flag — exactly what ls_experiment runs untuned.
  std::uint64_t baseline_est_cycles = 0;
  std::uint64_t baseline_sim_cycles = 0;
  std::uint64_t evals = 0;           ///< analytic evaluations spent
  std::size_t validated = 0;         ///< flit-level validations run

  friend bool operator==(const TuneOutcome&, const TuneOutcome&) = default;

  double speedup_sim() const {
    return best_sim_cycles ? static_cast<double>(baseline_sim_cycles) /
                                 static_cast<double>(best_sim_cycles)
                           : 0.0;
  }
};

/// The scorer configuration implied by a system configuration — the same
/// accel/NoC/DRAM parameters CmpSystem would execute with.
sched::CostModelConfig cost_model_for(const sim::SystemConfig& system);

/// Lowers `candidate` against spec + traffic with the system's parameters
/// (always sparsity-free: non-kernel dims are undefined under liveness
/// discounts). An empty/default candidate reproduces the untuned schedule
/// except for the overlap flag, which comes from the candidate. Throws
/// std::invalid_argument when the system's chips do not tile its cores or
/// the candidate's knobs are malformed (sched::BuildOptions).
sched::Schedule lower_candidate(const nn::NetSpec& spec,
                                const core::InferenceTraffic& traffic,
                                const sim::SystemConfig& system,
                                const Candidate& candidate,
                                sched::Strategy strategy);

/// The search's objective: estimate_cycles(lower_candidate(c)).total_cycles,
/// bit for bit, without lowering a schedule per evaluation. Every memo is
/// keyed on exactly what its value depends on:
///   * a layer's compute cycles on (layer, dim) — placement permutes the
///     per-core work, and the price is a max over cores;
///   * a transition's partition-space burst on (layer, prev dim, dim);
///   * a transition's raw comm cycles on (layer, prev dim, dim) under the
///     incumbent placement (adopt()). A candidate with another placement
///     re-prices its bursts through that placement; adopting it replaces
///     the table;
///   * a transition's link and port loads and per-message latencies
///     (sched::BurstLoads) on (layer, prev dim, dim) under the incumbent
///     placement, built the first time a candidate one swap away from the
///     incumbent is scored and kept only for the incumbent's own
///     transitions. Such a candidate re-routes only the swapped
///     partitions' messages from them (EventPricer::reprice); any other
///     placement change prices its bursts in full. Adopting another
///     placement drops them all.
/// Totals combine with estimate_cycles' own overlap arithmetic, stage
/// boundaries priced as inter-chip transfers, so multi-chip systems score
/// through the same path.
class Scorer {
 public:
  /// `traffic` must outlive the scorer.
  Scorer(const nn::NetSpec& spec, const core::InferenceTraffic& traffic,
         const sim::SystemConfig& system);
  virtual ~Scorer() = default;
  Scorer(const Scorer&) = delete;
  Scorer& operator=(const Scorer&) = delete;

  virtual std::uint64_t score(const Candidate& c);
  /// The search's incumbent is now `c` (a restart's start or an accepted
  /// move).
  virtual void adopt(const Candidate& c);

  /// Compute layers; the lowering context (legal dims, stage cut).
  std::size_t layers() const { return ctx_.layers(); }
  const sched::LoweringContext& context() const { return ctx_; }

 private:
  std::size_t transition_index(std::size_t li, sched::PartitionDim prev,
                               sched::PartitionDim dim) const;
  std::uint64_t compute_cycles(std::size_t li, sched::PartitionDim dim);
  /// Raw cycles of the comm event into layer li, or nullopt when the
  /// lowering emits none there.
  /// `swap` holds the two positions where c's placement transposes the
  /// incumbent's, when it does.
  std::optional<std::uint64_t> comm_cycles(
      std::size_t li, sched::PartitionDim prev, sched::PartitionDim dim,
      const Candidate& c, bool incumbent_placement,
      const std::optional<std::pair<std::size_t, std::size_t>>& swap);

  sched::LoweringContext ctx_;
  sched::EventPricer pricer_;
  std::vector<std::optional<std::uint64_t>> compute_;  ///< [li][dim]
  std::vector<std::optional<sched::TransitionBurst>> bursts_;
  std::vector<std::optional<std::uint64_t>> comm_;  ///< under placement_
  std::vector<std::optional<sched::BurstLoads>> loads_;  ///< likewise
  std::vector<std::size_t> placement_;
  /// Raw comm cycles of the last candidate scored off placement_.
  std::vector<std::pair<std::size_t, std::uint64_t>> pending_;
  std::vector<std::size_t> pending_placement_;
};

/// Runs the search (see file comment). `traffic` must be the transition
/// traffic for `spec` on the system's core count. When `telemetry` is
/// non-null the full search trace is written into it (cleared first).
TuneOutcome tune(const nn::NetSpec& spec,
                 const core::InferenceTraffic& traffic,
                 const sim::SystemConfig& system, const TunerConfig& cfg,
                 sched::Strategy strategy = sched::Strategy::kTraditional,
                 TuneTelemetry* telemetry = nullptr);

/// tune() ranking candidates with `scorer`, which must be built for the
/// same spec, traffic and system (tests substitute a reference scorer).
/// The scorer is destroyed once the search ends.
TuneOutcome tune(const nn::NetSpec& spec,
                 const core::InferenceTraffic& traffic,
                 const sim::SystemConfig& system, const TunerConfig& cfg,
                 sched::Strategy strategy, TuneTelemetry* telemetry,
                 std::unique_ptr<Scorer> scorer);

}  // namespace ls::tune
