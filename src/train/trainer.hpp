#pragma once
// Training loop tying together SGD, group-Lasso regularization, and the
// synthetic datasets.

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "nn/network.hpp"
#include "train/group_lasso.hpp"
#include "train/sgd.hpp"

namespace ls::train {

struct TrainConfig {
  std::size_t epochs = 4;
  std::size_t batch_size = 32;
  SgdConfig sgd{};
  double lr_decay = 0.7;  ///< multiplicative per-epoch decay
  std::uint64_t seed = 7;
  bool verbose = false;

  friend bool operator==(const TrainConfig&, const TrainConfig&) = default;
};

struct TrainReport {
  std::vector<double> epoch_loss;
  std::vector<double> epoch_penalty;  ///< group-Lasso penalty trajectory
  double test_accuracy = 0.0;
  double weight_sparsity = 0.0;       ///< exact-zero fraction after training
  std::size_t dead_blocks_killed = 0;
};

/// Trains `net` as a classifier; if `reg` is non-null the group-Lasso
/// update runs every step (proximal after SGD, subgradient before) and dead
/// blocks are enforced at the end.
TrainReport train_classifier(nn::Network& net, const data::Dataset& train_set,
                             const data::Dataset& test_set,
                             const TrainConfig& cfg,
                             GroupLassoRegularizer* reg = nullptr);

/// Accuracy evaluated in minibatches (bounds peak memory on big test sets).
double evaluate(nn::Network& net, const data::Dataset& test_set,
                std::size_t batch_size = 64);

}  // namespace ls::train
