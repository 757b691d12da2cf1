// Deployment workflow: train a communication-aware sparsified model once,
// checkpoint it, then — as a deployment toolchain would — reload it into a
// fresh network, quantize to the accelerator's 16-bit fixed point, and
// execute it *functionally partitioned* across the 16 cores, verifying
// that accuracy survives and that the exchanges on the (simulated) NoC
// match what the traffic model promised (exit 1 if they do not). The
// checkpoint is written to the working directory.

#include <cstdio>

#include "core/partitioned_inference.hpp"
#include "core/weight_groups.hpp"
#include "nn/model_zoo.hpp"
#include "nn/serialize.hpp"
#include "sim/experiment.hpp"
#include "train/masks.hpp"
#include "train/trainer.hpp"

int main() {
  using namespace ls;
  const std::size_t cores = 16;
  const nn::NetSpec spec = nn::mlp_expt_spec();
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(cores);
  const std::string ckpt = "learn_to_scale_mlp.lsnn";

  // --- Training side ------------------------------------------------------
  const data::Dataset train_set = sim::dataset_for(spec, 768, 1);
  const data::Dataset test_set = sim::dataset_for(spec, 256, 2);
  util::Rng rng(42);
  nn::Network trained = nn::build_network(spec, rng);
  train::GroupLassoRegularizer reg(
      core::build_group_sets(trained, spec, cores),
      train::distance_mask(topo), 0.6);
  train::TrainConfig tcfg;
  tcfg.epochs = 5;
  const auto report =
      train::train_classifier(trained, train_set, test_set, tcfg, &reg);
  nn::save_params(trained, ckpt);
  std::printf("trained: accuracy %.3f, sparsity %.1f%% -> %s\n",
              report.test_accuracy, 100.0 * report.weight_sparsity,
              ckpt.c_str());

  // --- Deployment side ----------------------------------------------------
  util::Rng other(999);
  nn::Network deployed = nn::build_network(spec, other);
  nn::load_params(deployed, ckpt);
  for (nn::Param* p : deployed.params()) p->value.quantize_fixed16(12);

  core::PartitionedInference exec(deployed, spec, cores);
  const tensor::Tensor logits =
      exec.run(test_set.images, /*quantize_fixed16=*/true, /*frac_bits=*/12);
  const auto preds = nn::argmax_rows(logits);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == test_set.labels[i]) ++hits;
  }
  const double acc =
      static_cast<double>(hits) / static_cast<double>(preds.size());
  std::printf("deployed (16-bit, partitioned on %zu cores): accuracy %.3f\n",
              cores, acc);

  // --- Cross-check the exchanges against the traffic model ----------------
  const auto model = core::traffic_live(deployed, spec, topo, 2);
  const auto dense = core::traffic_dense(spec, topo, 2);
  std::printf("exchanged %zu B per inference (traffic model: %zu B; dense "
              "baseline: %zu B -> %.0f%% traffic rate)\n",
              exec.total_bytes(), model.total_bytes(), dense.total_bytes(),
              100.0 * static_cast<double>(exec.total_bytes()) /
                  static_cast<double>(dense.total_bytes()));
  for (const auto& e : exec.exchanges()) {
    std::printf("  into %-6s %6zu B in %zu transfers\n",
                e.layer_name.c_str(), e.bytes, e.transfers);
  }
  if (exec.total_bytes() != model.total_bytes()) {
    std::fprintf(stderr, "exchanged %zu B, but the traffic model says %zu B\n",
                 exec.total_bytes(), model.total_bytes());
    return 1;
  }
  return 0;
}
