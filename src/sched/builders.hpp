#pragma once
// Schedule builders: lower a network architecture plus its layer-transition
// traffic (and, for the sparsified strategies, a SparsityProfile) into the
// Schedule IR (schedule.hpp).
//
// All four strategies share one lowering — that is the point of the IR.
// They differ only in their *inputs*:
//   * traditional       — the dense spec with core::traffic_dense,
//   * structure-level   — the grouped spec with core::traffic_dense (the
//     grouping transform already removed the inter-group transitions),
//   * sparsified        — SS / SS_Mask: the dense spec with
//     core::traffic_live from the group-Lasso-trained weights plus the
//     matching SparsityProfile discounting per-core compute,
//   * hybrid            — the grouped spec with live traffic + profile.
//
// Lowering checks its tuning knobs (BuildOptions::layer_dims, placement,
// the chip count) in every build and throws std::invalid_argument on a bad
// one: tuned-schedule caches feed them from disk. The structure of a built
// schedule is sched::verify's job (verify.hpp).
//
// Lowering is bit-exact with the pre-IR CmpSystem::run_inference loop: the
// per-core share/live arithmetic (including its +0.5 roundings and
// accumulation order) is reproduced here so an executor over the built
// schedule yields byte-identical InferenceResults — the golden equivalence
// suite (`ctest -L sched`) pins this.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sparsity_profile.hpp"
#include "core/traffic.hpp"
#include "nn/layer_spec.hpp"
#include "sched/schedule.hpp"

namespace ls::sched {

/// Lowering knobs — the subset of ls::sim::SystemConfig the builder needs.
/// (A separate struct keeps ls_sched below ls_sim in the module DAG.)
struct BuildOptions {
  std::size_t cores = 16;
  std::size_t bytes_per_value = 2;
  /// Stamp the overlap ablation onto every comm event.
  bool overlap_comm = false;
  /// Apply SparsityProfile discounts to per-core work (mirrors
  /// SystemConfig::sparse_cycle_model).
  bool sparse_cycle_model = true;
  /// Per-compute-layer parallelization dimension, in layer order (empty =
  /// kernel-wise everywhere, the historical default). The size must match
  /// the spec's compute-layer count and every dim must pass
  /// LoweringContext::compatible; non-kernel dims also require a null
  /// SparsityProfile — liveness discounts are defined on the kernel split.
  /// Lowering throws std::invalid_argument otherwise.
  std::vector<PartitionDim> layer_dims;
  /// Partition index -> physical mesh core permutation (empty = identity).
  /// Remaps every message endpoint and the per-core work vector; with
  /// kernel dims and an identity placement the lowering is bit-exact with
  /// the historical path. Must be a bijection of 0..cores-1, and the
  /// identity on multi-chip schedules; lowering throws otherwise.
  std::vector<std::size_t> placement;
};

/// One layer transition's burst in partition space: message endpoints are
/// logical partitions, before any placement or chip relocation.
struct TransitionBurst {
  std::vector<noc::Message> messages;
  std::size_t traffic_bytes = 0;
};

/// One compute layer's work in partition space (index = partition).
struct LayerWork {
  std::vector<accel::LayerPartitionWork> per_partition;
  std::uint64_t macs_discounted = 0;
};

/// What lowering derives from a net once: its compute-layer analyses, the
/// caller's kernel-wise traffic indexed by compute layer at one mesh size
/// (`cores` per chip), and the cut of those layers into one pipeline stage
/// per chip. Its two per-layer pieces — a transition's burst and a layer's
/// work — are all a schedule is made of: lower() and lower_pipelined()
/// place and chain them, and the autotuner's memoized scorer prices them
/// without building a Schedule. `traffic` must outlive the context. Throws
/// std::invalid_argument when `chips` is zero or exceeds the compute-layer
/// count (partition_stages).
class LoweringContext {
 public:
  LoweringContext(const nn::NetSpec& spec,
                  const core::InferenceTraffic& traffic, std::size_t cores,
                  std::size_t bytes_per_value, std::size_t chips = 1);

  std::size_t layers() const { return computes_.size(); }
  std::size_t cores() const { return P_; }
  std::size_t chips() const { return chips_; }
  const nn::LayerAnalysis& layer(std::size_t li) const {
    return computes_[li];
  }
  /// Pipeline stage (== chip) of each compute layer: partition_stages(spec,
  /// chips), all 0 on one chip.
  const std::vector<std::size_t>& stages() const { return stages_; }
  /// Whether `dim` is a legal choice for compute layer `li` — the one rule
  /// book for partition dims: the tuner's move filter and the lowering's
  /// precondition. Height/width need an ungrouped conv with a splittable
  /// spatial axis; batch is kernel-only on grouped convs; channel needs an
  /// ungrouped layer with >= 2 input units and must not end a pipeline
  /// stage (its reduce-scatter rides the next on-chip transition, and the
  /// last layer of a stage has none). Out-of-range `li` is incompatible.
  bool compatible(std::size_t li, PartitionDim dim) const;
  /// Bytes of compute layer `li`'s input activations (what a stage
  /// boundary ships across the package).
  std::size_t input_bytes(std::size_t li) const;

  /// The burst into compute layer `li` when layer li-1 is split on
  /// `prev_dim` and `li` on `dim` (empty for li == 0). Kernel-to-kernel
  /// transitions are the caller's traffic verbatim; any other pair comes
  /// from the geometric ownership model.
  TransitionBurst transition(std::size_t li, PartitionDim prev_dim,
                             PartitionDim dim) const;

  /// Compute layer `li`'s per-partition work under `dim`, discounted by
  /// `sparsity` (kernel split only) when non-null.
  LayerWork work(std::size_t li, PartitionDim dim,
                 const core::LayerSparsity* sparsity = nullptr) const;

 private:
  std::vector<nn::LayerAnalysis> computes_;
  /// Per compute layer: its kernel-wise transition, or null when the
  /// traffic has none.
  std::vector<const core::TransitionTraffic*> traffic_;
  std::vector<std::size_t> stages_;
  std::size_t P_;
  std::size_t bytes_per_value_;
  std::size_t chips_;
};

/// The shared lowering: one compute event per compute layer of `spec`
/// (per-core work split by core::balanced_ranges, discounted by `sparsity`
/// when given), preceded by a comm event wherever `traffic` carries a
/// non-empty burst into that layer. Events form a linear dependency chain.
Schedule lower(const nn::NetSpec& spec, const core::InferenceTraffic& traffic,
               const BuildOptions& opts,
               const core::SparsityProfile* sparsity = nullptr,
               Strategy strategy = Strategy::kTraditional);

// ---------------------------------------------------------------------------
// Multi-chip stage pipelining (DESIGN.md §4k).

/// Cuts the net's compute layers into exactly `k` contiguous pipeline
/// stages minimizing the largest stage's MACs: returns one stage id per
/// compute layer (in layer order), non-decreasing with every stage
/// non-empty. The minimal cap is binary-searched; stages are then filled
/// left to right, opening a new one before a layer that would exceed the
/// cap or once the layers left only just cover the stages still to open
/// (this tie-break picks one of the optimal partitions, and the cycle
/// numbers of every multi-chip run depend on it). Stages never split a
/// layer. Throws std::invalid_argument when k is zero or exceeds the
/// compute-layer count.
std::vector<std::size_t> partition_stages(const nn::NetSpec& spec,
                                          std::size_t k);

/// Multi-chip lowering: assembles the shared per-layer pieces
/// (LoweringContext) at the per-chip core count (opts.cores = cores per
/// chip; `traffic` must be the per-chip-mesh analysis at that count) and
/// maps each pipeline stage onto its chip's chip-major core range.
/// Intra-stage transitions keep their mesh bursts, localized to the
/// owning chip; stage-boundary transitions are replaced
/// by a single gateway-to-gateway inter-chip transfer of the consumer
/// layer's unique input activations (the serial link carries each byte
/// once — no per-core fan-out off-die). The result spans
/// chips * opts.cores cores with Schedule::chips = chips; chips == 1 is
/// `lower()` exactly. On more than one chip opts.placement must be empty
/// or the identity (placement permutations are per-chip-mesh concepts).
Schedule lower_pipelined(const nn::NetSpec& spec,
                         const core::InferenceTraffic& traffic,
                         const BuildOptions& opts, std::size_t chips,
                         const core::SparsityProfile* sparsity = nullptr,
                         Strategy strategy = Strategy::kTraditional);

}  // namespace ls::sched
