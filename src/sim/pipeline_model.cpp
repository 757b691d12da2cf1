#include "sim/pipeline_model.hpp"

#include <algorithm>

#include "sched/builders.hpp"

namespace ls::sim {

PipelineResult run_pipeline(const nn::NetSpec& spec, const SystemConfig& cfg) {
  std::vector<nn::LayerAnalysis> layers;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    if (a.is_compute()) layers.push_back(a);
  }
  PipelineResult result;
  result.stages =
      sched::partition_stages(spec, std::min(cfg.cores, layers.size()));
  const std::size_t stage_count = result.stages.back() + 1;

  const accel::CoreModel core_model(cfg.accel);
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(cfg.cores);
  const noc::MeshNocSimulator noc_sim(topo, cfg.noc);

  // The whole stage runs on one core: per-layer costs add up.
  std::vector<std::uint64_t> stage_macs(stage_count, 0);
  result.stage_compute_cycles.assign(stage_count, 0);
  result.stage_transfer_cycles.assign(stage_count, 0);
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const nn::LayerAnalysis& a = layers[li];
    const std::size_t s = result.stages[li];
    accel::LayerPartitionWork work;
    work.macs = a.macs;
    work.weight_bytes = a.weight_count * cfg.bytes_per_value;
    work.input_bytes = a.in.numel() * cfg.bytes_per_value;
    work.output_bytes = a.out.numel() * cfg.bytes_per_value;
    stage_macs[s] += a.macs;
    result.stage_compute_cycles[s] += core_model.layer_cost(work).cycles();
    if (li > 0 && result.stages[li - 1] != s) {
      const noc::Message m{s - 1, s, a.in.numel() * cfg.bytes_per_value, 0};
      result.stage_transfer_cycles[s - 1] = static_cast<std::uint64_t>(
          static_cast<double>(noc_sim.run({m}).completion_cycle) *
          cfg.noc_clock_divider);
    }
  }

  std::uint64_t max_macs = 0;
  std::uint64_t total_macs = 0;
  for (std::size_t s = 0; s < stage_count; ++s) {
    const std::uint64_t stage_cycles =
        result.stage_compute_cycles[s] + result.stage_transfer_cycles[s];
    result.single_pass_cycles += stage_cycles;
    result.initiation_interval =
        std::max(result.initiation_interval, stage_cycles);
    max_macs = std::max(max_macs, stage_macs[s]);
    total_macs += stage_macs[s];
  }
  result.load_imbalance =
      static_cast<double>(max_macs) /
      (static_cast<double>(total_macs) / static_cast<double>(stage_count));
  return result;
}

}  // namespace ls::sim
