#pragma once
// End-to-end experiment pipelines shared by the paper driver, the CLI and
// the benchmark workloads. Each pipeline is two halves:
//
// * train(recipe) trains one network. A TrainRecipe holds everything the
//   training reads, so equal recipes train bit-identical networks and a
//   driver can train each distinct network once and reuse it.
// * simulate(trained, strategy) lowers one strategy at one core count and
//   executes it against an optional baseline.
//
// The composed pipelines:
//
// * Sparsified (TABLE IV / VI): train the same architecture three times —
//   dense baseline, SS (uniform group-Lasso), SS_Mask (distance-weighted
//   group-Lasso) — then extract live traffic from the trained weights and
//   run the CMP simulation of one inference for each. Reported exactly
//   like the paper: accuracy, NoC traffic rate, system speedup, NoC energy
//   reduction (all relative to the dense baseline under traditional
//   parallelization).
//
// * Structure-level (TABLE III / V, Fig. 7/8): train grouped variants of an
//   architecture and compare their simulated inference against the
//   ungrouped (n = 1) baseline.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/weight_groups.hpp"
#include "data/dataset.hpp"
#include "nn/model_zoo.hpp"
#include "sched/schedule.hpp"
#include "sim/system.hpp"
#include "train/trainer.hpp"

namespace ls::sim {

struct ExperimentConfig {
  std::size_t cores = 16;
  train::TrainConfig train{};
  double lambda_ss = 2e-3;    ///< group-Lasso strength for SS
  double lambda_mask = 2e-3;  ///< base strength for SS_Mask (mask scales it)
  double mask_exponent = 1.0;
  core::Granularity granularity = core::Granularity::kFeatureMap;
  SystemConfig system{};
  std::uint64_t seed = 42;
  bool verbose = false;
};

struct StrategyOutcome {
  std::string scheme;  ///< "Baseline", "SS", "SS_Mask", "n=16", ...
  double accuracy = 0.0;
  double traffic_rate = 1.0;
  double speedup = 1.0;
  double comm_energy_reduction = 0.0;
  double total_energy_reduction = 0.0;
  double dead_block_fraction = 0.0;
  double weight_sparsity = 0.0;
  /// Byte-weighted mean hop distance of the surviving NoC traffic. The
  /// SS_Mask mechanism shows up here directly: its residual traffic flows
  /// between nearby cores ("one or two hops away", §V.A.2).
  double mean_traffic_hops = 0.0;
  InferenceResult result{};
};

/// Builds the matching synthetic dataset for a spec (by its dataset tag and
/// input shape).
data::Dataset dataset_for(const nn::NetSpec& spec, std::size_t samples,
                          std::uint64_t seed);

/// The group-Lasso regularizer of a sparsified run, over the core-block
/// weight groups of a `cores`-way partition.
struct LassoRecipe {
  bool distance_aware = true;  ///< SS_Mask's distance mask; false = SS
  double lambda = 2e-3;
  double mask_exponent = 1.0;  ///< distance mask only (1.0 for SS)
  train::LassoMode mode = train::LassoMode::kProximal;
  std::size_t cores = 16;

  friend bool operator==(const LassoRecipe&, const LassoRecipe&) = default;
};

/// Everything one training run reads besides its data. A dense run does
/// not depend on the core count; only a regularized one carries it.
struct TrainRecipe {
  nn::NetSpec spec;
  train::TrainConfig train{};
  std::uint64_t seed = 42;
  std::optional<LassoRecipe> lasso;  ///< empty: dense training

  friend bool operator==(const TrainRecipe&, const TrainRecipe&) = default;
};

/// The dense recipe of `spec` under `cfg` (its training config and seed).
TrainRecipe dense_recipe(const nn::NetSpec& spec, const ExperimentConfig& cfg);

/// The SS (`distance_aware` false) or SS_Mask recipe of `spec` under
/// `cfg`: its lambda, mask exponent and core count.
TrainRecipe lasso_recipe(const nn::NetSpec& spec, const ExperimentConfig& cfg,
                         bool distance_aware);

struct TrainedNet {
  TrainRecipe recipe;
  nn::Network net;
  train::TrainReport report;
  /// The regularizer's weight groups after training (they borrow `net`'s
  /// parameters); empty for a dense run.
  std::vector<core::LayerGroupSet> groups;
};

/// Trains `recipe.spec` from the seed's initialization. A regularized run
/// arms the block-sparse kernels on the layers the regularizer prunes
/// (bit-exact vs dense, so only the speed changes).
TrainedNet train(const TrainRecipe& recipe, const data::Dataset& train_set,
                 const data::Dataset& test_set);

/// Lowers `strategy` for `trained`'s spec onto `cfg.cores` cores (with
/// `cfg.system`) and executes one inference. kTraditional and
/// kStructureLevel simulate traffic_dense(spec) and read no weights;
/// kSparsified and kHybrid read live traffic (at `cfg.granularity`) and
/// the sparsity profile from the trained weights and groups, so a
/// regularized net must have been trained for `cfg.cores`. The metrics are
/// relative to `baseline` when given; accuracy, weight sparsity and dead
/// blocks come from the training. The scheme name is left to the caller.
StrategyOutcome simulate(TrainedNet& trained, sched::Strategy strategy,
                         const ExperimentConfig& cfg,
                         const StrategyOutcome* baseline = nullptr);

/// TABLE IV / VI pipeline: returns {Baseline, SS, SS_Mask} outcomes.
std::vector<StrategyOutcome> run_sparsified_experiment(
    const nn::NetSpec& spec, const data::Dataset& train_set,
    const data::Dataset& test_set, const ExperimentConfig& cfg);

}  // namespace ls::sim
