#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/weight_groups.hpp"
#include "data/dataset.hpp"
#include "nn/block_sparsity.hpp"
#include "nn/model_zoo.hpp"
#include "nn/network.hpp"
#include "noc/topology.hpp"
#include "train/group_lasso.hpp"
#include "train/masks.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace ls::util {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool::set_num_threads(4);
  std::vector<std::atomic<int>> hits(1337);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  ThreadPool::set_num_threads(0);
}

TEST(ParallelFor, DisjointWritesMatchSerialLoop) {
  ThreadPool::set_num_threads(3);
  std::vector<double> par(10'000), ser(10'000);
  auto f = [](std::size_t i) {
    return static_cast<double>(i) * 0.25 + 1.0 / (1.0 + static_cast<double>(i));
  };
  parallel_for(0, par.size(), [&](std::size_t i) { par[i] = f(i); });
  for (std::size_t i = 0; i < ser.size(); ++i) ser[i] = f(i);
  EXPECT_EQ(par, ser);
  ThreadPool::set_num_threads(0);
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(7, 8, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 7u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NestedCallRunsInline) {
  ThreadPool::set_num_threads(4);
  std::vector<std::atomic<int>> hits(64 * 32);
  parallel_for(0, 64, [&](std::size_t outer) {
    parallel_for(0, 32, [&](std::size_t inner) { ++hits[outer * 32 + inner]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  ThreadPool::set_num_threads(0);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool::set_num_threads(4);
  EXPECT_THROW(
      parallel_for(0, 1000,
                   [](std::size_t i) {
                     if (i == 503) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> count{0};
  parallel_for(0, 100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
  ThreadPool::set_num_threads(0);
}

TEST(ParallelFor, RespectsExplicitThreadCount) {
  ThreadPool::set_num_threads(1);
  EXPECT_EQ(num_threads(), 1u);
  ThreadPool::set_num_threads(5);
  EXPECT_EQ(num_threads(), 5u);
  ThreadPool::set_num_threads(0);
  EXPECT_GE(num_threads(), 1u);
}

// The determinism policy in action: a full seeded training run (GEMM conv +
// FC kernels, all parallelized through this pool) must produce bit-identical
// weights for 1 worker and for many.
std::vector<float> dump_weights(nn::Network& net) {
  std::vector<float> weights;
  for (const nn::Param* p : net.params()) {
    weights.insert(weights.end(), p->value.data(),
                   p->value.data() + p->value.numel());
  }
  return weights;
}

std::vector<float> train_lenet_and_dump_weights() {
  util::Rng rng(21);
  nn::NetSpec spec = nn::lenet_expt_spec();
  nn::Network net = nn::build_network(spec, rng);
  const data::Dataset train_set = data::mnist_like(192, /*sample_seed=*/3);
  const data::Dataset test_set = data::mnist_like(64, /*sample_seed=*/4);
  train::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  cfg.seed = 11;
  train::train_classifier(net, train_set, test_set, cfg);
  return dump_weights(net);
}

// The TABLE IV SS_Mask recipe at the trainer's batch size: ConvNet-expt
// armed with block sparsity and trained under the distance-aware
// group-Lasso regularizer. The strength is ten times TABLE IV's 0.4 so one
// batch-32 step already kills blocks (reported through `pruned`); the two
// steps after it then run the sparse data-gradient path.
std::vector<float> train_convnet_ss_mask_and_dump_weights(bool* pruned) {
  constexpr std::size_t kCores = 16;
  util::Rng rng(21);
  const nn::NetSpec spec = nn::convnet_expt_spec();
  nn::Network net = nn::build_network(spec, rng);
  nn::enable_block_sparsity(net, spec, kCores);
  train::GroupLassoRegularizer reg(
      core::build_group_sets(net, spec, kCores),
      train::distance_mask(noc::MeshTopology::for_cores(kCores)),
      /*lambda_g=*/4.0);
  const data::Dataset train_set = data::cifar_like(96, /*sample_seed=*/3);
  const data::Dataset test_set = data::cifar_like(32, /*sample_seed=*/4);
  train::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 32;
  cfg.seed = 11;
  train::train_classifier(net, train_set.slice(0, 32), test_set, cfg, &reg);
  *pruned = false;
  for (const core::LayerGroupSet& set : reg.groups()) {
    *pruned = *pruned || set.off_diagonal_dead_fraction() > 0.0;
  }
  train::train_classifier(net, train_set.slice(32, 96), test_set, cfg, &reg);
  return dump_weights(net);
}

TEST(ParallelFor, TrainerIsThreadCountInvariant) {
  ThreadPool::set_num_threads(1);
  const std::vector<float> serial = train_lenet_and_dump_weights();
  bool pruned = false;
  const std::vector<float> ss_mask_serial =
      train_convnet_ss_mask_and_dump_weights(&pruned);
  EXPECT_TRUE(pruned) << "no block died: the sparse path went untested";
  for (const std::size_t threads : {3u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool::set_num_threads(threads);
    const std::vector<float> parallel = train_lenet_and_dump_weights();
    const std::vector<float> ss_mask =
        train_convnet_ss_mask_and_dump_weights(&pruned);
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(ss_mask_serial.size(), ss_mask.size());
    // Bit-identical, not approximately equal: the fast path may only change
    // *which thread* computes a value, never the arithmetic.
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i], parallel[i]) << "lenet weight " << i;
    }
    EXPECT_EQ(0, std::memcmp(ss_mask_serial.data(), ss_mask.data(),
                             ss_mask.size() * sizeof(float)))
        << "ConvNet SS_Mask weights differ";
  }
  ThreadPool::set_num_threads(0);
}

}  // namespace
}  // namespace ls::util
