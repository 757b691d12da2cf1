#include "sim/experiment.hpp"

#include <stdexcept>

#include "core/sparsity_profile.hpp"
#include "core/weight_groups.hpp"
#include "nn/block_sparsity.hpp"
#include "sched/builders.hpp"
#include "util/log.hpp"

namespace ls::sim {

data::Dataset dataset_for(const nn::NetSpec& spec, std::size_t samples,
                          std::uint64_t seed) {
  data::SyntheticSpec ds;
  ds.channels = spec.input.c;
  ds.height = spec.input.h;
  ds.width = spec.input.w;
  ds.samples = samples;
  // Prototypes depend only on the dataset tag; `seed` varies the sample
  // split so dataset_for(spec, n, 1) and dataset_for(spec, n, 2) are train
  // and test splits of the same task.
  ds.seed = util::hash_u64(std::hash<std::string>{}(spec.dataset));
  ds.sample_seed = seed;
  // Difficulty is tuned so the dense baselines land in the mid/high 90s
  // like the paper's MNIST/Cifar networks — hard enough that pruning the
  // wrong weight blocks costs measurable accuracy.
  if (spec.input.h <= 28) {
    ds.noise = 0.30;
    ds.max_shift = 2;
  } else {
    ds.noise = 0.35;
    ds.max_shift = spec.input.h / 10;
  }
  return data::make_synthetic(ds);
}

namespace {

// Lowers the strategy's inputs into the Schedule IR and executes the
// schedule. This is where the per-strategy runners collapse: they no
// longer own any simulation arithmetic, only the training recipe and which
// (spec, traffic, profile) triple they hand the lowering.
StrategyOutcome simulate_with_traffic(
    const nn::NetSpec& spec, const core::InferenceTraffic& traffic,
    const ExperimentConfig& cfg, const StrategyOutcome* baseline,
    sched::Strategy strategy,
    const core::SparsityProfile* sparsity = nullptr) {
  SystemConfig sys = cfg.system;
  sys.cores = cfg.cores;
  CmpSystem system(sys);
  sched::BuildOptions opts;
  opts.cores = sys.cores;
  opts.bytes_per_value = sys.bytes_per_value;
  opts.overlap_comm = sys.overlap_comm;
  opts.sparse_cycle_model = sys.sparse_cycle_model;
  StrategyOutcome out;
  out.result =
      system.execute(sched::lower(spec, traffic, opts, sparsity, strategy));
  const std::size_t bytes = traffic.total_bytes();
  out.mean_traffic_hops =
      bytes ? static_cast<double>(traffic.total_byte_hops()) /
                  static_cast<double>(bytes)
            : 0.0;
  if (baseline != nullptr) {
    out.speedup = speedup(baseline->result, out.result);
    out.traffic_rate = traffic_rate(baseline->result, out.result);
    out.comm_energy_reduction =
        comm_energy_reduction(baseline->result, out.result);
    const double base_total = baseline->result.total_energy_pj();
    out.total_energy_reduction =
        base_total > 0.0 ? 1.0 - out.result.total_energy_pj() / base_total
                         : 0.0;
  }
  return out;
}

}  // namespace

std::vector<StrategyOutcome> run_sparsified_experiment(
    const nn::NetSpec& spec, const data::Dataset& train_set,
    const data::Dataset& test_set, const ExperimentConfig& cfg) {
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(cfg.cores);
  std::vector<StrategyOutcome> outcomes;
  outcomes.reserve(3);  // references into the vector are taken below

  // --- Baseline: dense training, traditional parallelization -----------
  {
    util::Rng rng(cfg.seed);
    nn::Network net = nn::build_network(spec, rng);
    const train::TrainReport report =
        train::train_classifier(net, train_set, test_set, cfg.train);
    const auto traffic =
        core::traffic_dense(spec, topo, cfg.system.bytes_per_value);
    StrategyOutcome out = simulate_with_traffic(
        spec, traffic, cfg, nullptr, sched::Strategy::kTraditional);
    out.scheme = "Baseline";
    out.accuracy = report.test_accuracy;
    out.weight_sparsity = report.weight_sparsity;
    outcomes.push_back(std::move(out));
  }
  const StrategyOutcome& baseline = outcomes.front();

  // --- SS and SS_Mask ----------------------------------------------------
  struct SchemeDef {
    const char* name;
    bool distance_aware;
    double lambda;
  };
  const SchemeDef schemes[] = {
      {"SS", false, cfg.lambda_ss},
      {"SS_Mask", true, cfg.lambda_mask},
  };
  for (const SchemeDef& scheme : schemes) {
    util::Rng rng(cfg.seed);  // same init as baseline: isolates the
                              // regularizer's effect
    nn::Network net = nn::build_network(spec, rng);
    // Arm the block-sparse execution path on the layers group-Lasso prunes
    // (same eligibility as build_group_sets). Bit-exact vs dense, so the
    // training outcome is unchanged; evaluation speeds up as blocks die.
    nn::enable_block_sparsity(net, spec, cfg.cores);
    auto group_sets = core::build_group_sets(net, spec, cfg.cores);
    train::StrengthMask mask =
        scheme.distance_aware
            ? train::distance_mask(topo, cfg.mask_exponent)
            : train::uniform_mask(cfg.cores);
    train::GroupLassoRegularizer reg(std::move(group_sets), std::move(mask),
                                     scheme.lambda);
    const train::TrainReport report =
        train::train_classifier(net, train_set, test_set, cfg.train, &reg);

    const auto traffic = core::traffic_live(
        net, spec, topo, cfg.system.bytes_per_value, cfg.granularity);
    // The analytic model sees the same structured sparsity the kernels do.
    const core::SparsityProfile profile =
        core::profile_from_groups(reg.groups());
    StrategyOutcome out =
        simulate_with_traffic(spec, traffic, cfg, &baseline,
                              sched::Strategy::kSparsified, &profile);
    out.scheme = scheme.name;
    out.accuracy = report.test_accuracy;
    out.weight_sparsity = report.weight_sparsity;
    double dead = 0.0;
    std::size_t sets = 0;
    for (const auto& set : reg.groups()) {
      dead += set.off_diagonal_dead_fraction();
      ++sets;
    }
    out.dead_block_fraction = sets ? dead / static_cast<double>(sets) : 0.0;
    if (cfg.verbose) {
      LS_LOG_INFO("%s/%s: acc=%.3f traffic=%.2f speedup=%.2f dead=%.2f",
                  spec.name.c_str(), scheme.name, out.accuracy,
                  out.traffic_rate, out.speedup, out.dead_block_fraction);
    }
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

StrategyOutcome run_hybrid_variant(const nn::NetSpec& grouped_spec,
                                   const data::Dataset& train_set,
                                   const data::Dataset& test_set,
                                   const ExperimentConfig& cfg,
                                   const StrategyOutcome* baseline) {
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(cfg.cores);
  util::Rng rng(cfg.seed);
  nn::Network net = nn::build_network(grouped_spec, rng);
  // build_group_sets skips grouped conv layers, so the regularizer only
  // touches the still-dense layers.
  train::GroupLassoRegularizer reg(
      core::build_group_sets(net, grouped_spec, cfg.cores),
      train::distance_mask(topo, cfg.mask_exponent), cfg.lambda_mask);
  const train::TrainReport report =
      train::train_classifier(net, train_set, test_set, cfg.train, &reg);
  const auto traffic = core::traffic_live(
      net, grouped_spec, topo, cfg.system.bytes_per_value, cfg.granularity);
  const core::SparsityProfile profile =
      core::profile_from_groups(reg.groups());
  StrategyOutcome out =
      simulate_with_traffic(grouped_spec, traffic, cfg, baseline,
                            sched::Strategy::kHybrid, &profile);
  out.scheme = "Hybrid(" + grouped_spec.name + ")";
  out.accuracy = report.test_accuracy;
  out.weight_sparsity = report.weight_sparsity;
  double dead = 0.0;
  std::size_t sets = 0;
  for (const auto& set : reg.groups()) {
    dead += set.off_diagonal_dead_fraction();
    ++sets;
  }
  out.dead_block_fraction = sets ? dead / static_cast<double>(sets) : 0.0;
  return out;
}

StrategyOutcome run_structure_level_variant(
    const nn::NetSpec& grouped_spec, const data::Dataset& train_set,
    const data::Dataset& test_set, const ExperimentConfig& cfg,
    const StrategyOutcome* baseline) {
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(cfg.cores);
  util::Rng rng(cfg.seed);
  nn::Network net = nn::build_network(grouped_spec, rng);
  const train::TrainReport report =
      train::train_classifier(net, train_set, test_set, cfg.train);
  const auto traffic =
      core::traffic_dense(grouped_spec, topo, cfg.system.bytes_per_value);
  StrategyOutcome out = simulate_with_traffic(
      grouped_spec, traffic, cfg, baseline, sched::Strategy::kStructureLevel);
  out.scheme = grouped_spec.name;
  out.accuracy = report.test_accuracy;
  return out;
}

}  // namespace ls::sim
