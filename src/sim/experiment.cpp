#include "sim/experiment.hpp"

#include <optional>
#include <stdexcept>
#include <string>

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

TrainRecipe dense_recipe(const nn::NetSpec& spec,
                         const ExperimentConfig& cfg) {
  return TrainRecipe{spec, cfg.train, cfg.seed, std::nullopt};
}

TrainRecipe lasso_recipe(const nn::NetSpec& spec, const ExperimentConfig& cfg,
                         bool distance_aware) {
  TrainRecipe recipe = dense_recipe(spec, cfg);
  LassoRecipe& lasso = recipe.lasso.emplace();
  lasso.distance_aware = distance_aware;
  lasso.lambda = distance_aware ? cfg.lambda_mask : cfg.lambda_ss;
  lasso.mask_exponent = distance_aware ? cfg.mask_exponent : 1.0;
  lasso.cores = cfg.cores;
  return recipe;
}

TrainedNet train(const TrainRecipe& recipe, const data::Dataset& train_set,
                 const data::Dataset& test_set) {
  util::Rng rng(recipe.seed);  // every recipe of a seed shares the init:
                               // isolates the regularizer's effect
  TrainedNet out{recipe, nn::build_network(recipe.spec, rng), {}, {}};
  if (!recipe.lasso) {
    out.report =
        train::train_classifier(out.net, train_set, test_set, recipe.train);
    return out;
  }
  const LassoRecipe& lasso = *recipe.lasso;
  // Arm the block-sparse execution path on the layers group-Lasso prunes
  // (same eligibility as build_group_sets). Bit-exact vs dense, so the
  // training outcome is unchanged; evaluation speeds up as blocks die.
  nn::enable_block_sparsity(out.net, recipe.spec, lasso.cores);
  train::StrengthMask mask =
      lasso.distance_aware
          ? train::distance_mask(noc::MeshTopology::for_cores(lasso.cores),
                                 lasso.mask_exponent)
          : train::uniform_mask(lasso.cores);
  train::GroupLassoRegularizer reg(
      core::build_group_sets(out.net, recipe.spec, lasso.cores),
      std::move(mask), lasso.lambda, lasso.mode);
  out.report = train::train_classifier(out.net, train_set, test_set,
                                       recipe.train, &reg);
  out.groups = std::move(reg.groups());
  return out;
}

StrategyOutcome simulate(TrainedNet& trained, sched::Strategy strategy,
                         const ExperimentConfig& cfg,
                         const StrategyOutcome* baseline) {
  const nn::NetSpec& spec = trained.recipe.spec;
  const bool live = strategy == sched::Strategy::kSparsified ||
                    strategy == sched::Strategy::kHybrid;
  const auto& lasso = trained.recipe.lasso;
  if (live && lasso && lasso->cores != cfg.cores) {
    throw std::invalid_argument(
        "simulate: net regularized for " + std::to_string(lasso->cores) +
        " cores, simulated on " + std::to_string(cfg.cores));
  }
  SystemConfig sys = cfg.system;
  sys.cores = cfg.cores;
  CmpSystem system(sys);
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(cfg.cores);
  const core::InferenceTraffic traffic =
      live ? core::traffic_live(trained.net, spec, topo, sys.bytes_per_value,
                                cfg.granularity)
           : core::traffic_dense(spec, topo, sys.bytes_per_value);
  // The analytic model sees the same structured sparsity the kernels do.
  std::optional<core::SparsityProfile> profile;
  if (live) profile = core::profile_from_groups(trained.groups);

  sched::BuildOptions opts;
  opts.cores = sys.cores;
  opts.bytes_per_value = sys.bytes_per_value;
  opts.overlap_comm = sys.overlap_comm;
  opts.sparse_cycle_model = sys.sparse_cycle_model;
  StrategyOutcome out;
  out.result = system.execute(sched::lower(
      spec, traffic, opts, profile ? &*profile : nullptr, strategy));
  out.accuracy = trained.report.test_accuracy;
  out.weight_sparsity = trained.report.weight_sparsity;
  double dead = 0.0;
  for (const auto& set : trained.groups) {
    dead += set.off_diagonal_dead_fraction();
  }
  out.dead_block_fraction =
      trained.groups.empty()
          ? 0.0
          : dead / static_cast<double>(trained.groups.size());
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

std::vector<StrategyOutcome> run_sparsified_experiment(
    const nn::NetSpec& spec, const data::Dataset& train_set,
    const data::Dataset& test_set, const ExperimentConfig& cfg) {
  std::vector<StrategyOutcome> outcomes;
  outcomes.reserve(3);  // the baseline reference below must stay valid
  {
    TrainedNet dense = train(dense_recipe(spec, cfg), train_set, test_set);
    outcomes.push_back(
        simulate(dense, sched::Strategy::kTraditional, cfg));
    outcomes.back().scheme = "Baseline";
  }
  const StrategyOutcome& baseline = outcomes.front();
  for (const bool distance_aware : {false, true}) {
    TrainedNet net = train(lasso_recipe(spec, cfg, distance_aware),
                           train_set, test_set);
    StrategyOutcome out =
        simulate(net, sched::Strategy::kSparsified, cfg, &baseline);
    out.scheme = distance_aware ? "SS_Mask" : "SS";
    if (cfg.verbose) {
      LS_LOG_INFO("%s/%s: acc=%.3f traffic=%.2f speedup=%.2f dead=%.2f",
                  spec.name.c_str(), out.scheme.c_str(), out.accuracy,
                  out.traffic_rate, out.speedup, out.dead_block_fraction);
    }
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

}  // namespace ls::sim
