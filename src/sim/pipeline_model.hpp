#pragma once
// System model for inter-layer pipeline parallelism: each stage runs whole
// layers on one core; activations hop to the next stage's core over the
// NoC. Stages are cut by sched::partition_stages, the same min-max cuts
// multi-chip lowering uses. Reported against intra-layer parallelism by
// `bench_paper pipeline`, reproducing the paper's §II.B argument
// ("pipelining layers with distinct hyper-parameters cause severe
// load-imbalance issue on cores").

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/layer_spec.hpp"
#include "sim/system.hpp"

namespace ls::sim {

struct PipelineResult {
  /// Stage id per compute layer (sched::partition_stages).
  std::vector<std::size_t> stages;
  /// One inference through the pipe: stages run strictly one after
  /// another (no intra-inference overlap is possible for a single pass).
  std::uint64_t single_pass_cycles = 0;
  /// Steady-state initiation interval with many inferences in flight:
  /// gated by the slowest stage (compute or its outbound transfer).
  std::uint64_t initiation_interval = 0;
  double load_imbalance = 1.0;  ///< max/mean stage MACs
  std::vector<std::uint64_t> stage_compute_cycles;
  std::vector<std::uint64_t> stage_transfer_cycles;
};

/// Pipelines `spec` over min(cfg.cores, compute layers) stages, stage s on
/// core s of the mesh (consecutive stages are 1-2 hops apart under the
/// row-major layout). A stage's outbound transfer carries the next stage's
/// first-layer input activations, the bytes a chip boundary ships. Throws
/// std::invalid_argument when cfg.cores is zero.
PipelineResult run_pipeline(const nn::NetSpec& spec, const SystemConfig& cfg);

}  // namespace ls::sim
