// Death-test suite for the ls::check invariant layer (DESIGN.md
// "Correctness tooling"). Each test deliberately violates one invariant
// class and proves the corresponding LS_CHECK aborts with its diagnostic:
//
//   1. layer output-shape contract        (nn::Network::forward)
//   2. non-finite activations/inputs      (nn::Network::forward)
//   3. NoC flit conservation              (noc::MeshNocSimulator::run)
//   4. stale block-sparsity bitmap        (nn::BlockSparsity::map)
//   5. Param::version monotonicity        (nn::BlockSparsity::map)
//   6. thread-pool misuse                 (util::ThreadPool::set_num_threads)
//
// Schedule well-formedness is sched::verify's job and malformed tuning
// knobs make sched::lower throw; both are tested in every build
// (tests/sched/verify_test.cpp, tests/sched/partition_dim_test.cpp).
//
// This file is only compiled into checked builds (tests/CMakeLists.txt
// gates it on LS_CHECKS); in unchecked builds the macros are no-ops and
// nothing here would die.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "check/check.hpp"
#include "nn/fc.hpp"
#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "tensor/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ls {
namespace {

static_assert(check::kEnabled,
              "check_death_test must be built with LS_CHECKS=ON");

using tensor::Shape;
using tensor::Tensor;

// Several invariants live on code that runs (or may run) on pool threads,
// so every test uses the threadsafe death-test style: the child re-executes
// the binary instead of forking a possibly-multithreaded parent.
class CheckDeath : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

// --- 1. layer output-shape contract ---------------------------------------

// Declares {N, 4} via output_shape but actually emits its input unchanged.
class ShapeLiarLayer final : public nn::Layer {
 public:
  Tensor forward(const Tensor& in, bool) override { return in; }
  Tensor backward(const Tensor& grad) override { return grad; }
  const std::string& name() const override { return name_; }
  Shape output_shape(const Shape& in) const override {
    return Shape{in[0], 4};
  }

 private:
  std::string name_ = "shape_liar";
};

TEST_F(CheckDeath, LayerShapeContractViolationDies) {
  nn::Network net("shape_net");
  net.emplace<ShapeLiarLayer>();
  const Tensor in(Shape{1, 8}, 1.0f);
  EXPECT_DEATH(net.forward(in), "produced shape");
}

// --- 2. non-finite values at layer boundaries ------------------------------

TEST_F(CheckDeath, NonFiniteNetworkInputDies) {
  util::Rng rng(7);
  nn::Network net("nan_net");
  net.emplace<nn::FullyConnected>("fc", 8, 4, rng);
  Tensor in(Shape{1, 8}, 1.0f);
  in[3] = std::nanf("");
  EXPECT_DEATH(net.forward(in), "non-finite input into network");
}

// Layer that injects an Inf into otherwise healthy activations.
class InfLayer final : public nn::Layer {
 public:
  Tensor forward(const Tensor& in, bool) override {
    Tensor out = in;
    out[0] = HUGE_VALF;
    return out;
  }
  Tensor backward(const Tensor& grad) override { return grad; }
  const std::string& name() const override { return name_; }
  Shape output_shape(const Shape& in) const override { return in; }

 private:
  std::string name_ = "inf_layer";
};

TEST_F(CheckDeath, NonFiniteActivationsDie) {
  nn::Network net("inf_net");
  net.emplace<InfLayer>();
  const Tensor in(Shape{1, 8}, 1.0f);
  EXPECT_DEATH(net.forward(in), "non-finite activations out of layer");
}

// --- 3. NoC flit conservation ----------------------------------------------

TEST_F(CheckDeath, NocFlitConservationViolationDies) {
  const auto topo = noc::MeshTopology::for_cores(16);
  const noc::MeshNocSimulator sim(topo, noc::NocConfig{});
  const std::vector<noc::Message> msgs = {{0, 5, 256, 0}, {3, 12, 640, 0}};
  // Sanity: the unperturbed burst drains cleanly through the same checks.
  (void)sim.run(msgs);
  noc::testing::corrupt_next_run();
  EXPECT_DEATH(sim.run(msgs), "noc flit conservation");
}

// --- 4./5. block-sparsity bitmap + version contract -------------------------

// FC with a 4x4 block grid over a {16, 16} weight; block (p=0, c=0) is
// rows 0..4 x cols 0..4.
std::unique_ptr<nn::FullyConnected> make_sparse_fc(util::Rng& rng) {
  auto fc = std::make_unique<nn::FullyConnected>("fc_sparse", 16, 16, rng,
                                                 /*bias=*/false);
  fc->set_sparsity_partition(/*parts=*/4, /*in_units=*/4);
  for (std::size_t oc = 0; oc < 4; ++oc) {
    for (std::size_t k = 0; k < 4; ++k) {
      fc->weight().value.at2(oc, k) = 0.0f;
    }
  }
  fc->weight().bump();
  return fc;
}

TEST_F(CheckDeath, StaleSparsityBitmapDies) {
  util::Rng rng(11);
  const auto fc = make_sparse_fc(rng);
  const Tensor in(Shape{1, 16}, 0.5f);
  (void)fc->forward(in, false);  // scans: block (0, 0) marked zero
  // Revive one weight of the pruned block *without* bump(): the cached
  // bitmap is now stale and the next forward's cache-hit probe must abort.
  fc->weight().value.at2(1, 2) = 3.0f;
  EXPECT_DEATH(fc->forward(in, false), "sparsity bitmap stale");
}

TEST_F(CheckDeath, ParamVersionMovingBackwardsDies) {
  util::Rng rng(13);
  const auto fc = make_sparse_fc(rng);
  const Tensor in(Shape{1, 16}, 0.5f);
  (void)fc->forward(in, false);  // scans at version 1
  fc->weight().version = 0;
  EXPECT_DEATH(fc->forward(in, false), "version moved backwards");
}

// --- 6. thread-pool misuse ---------------------------------------------------

TEST_F(CheckDeath, PoolResizeFromInsideTaskDies) {
  EXPECT_DEATH(
      {
        util::ThreadPool::set_num_threads(4);
        util::parallel_for(0, 64, [](std::size_t i) {
          if (i == 0) util::ThreadPool::set_num_threads(2);
        });
      },
      "set_num_threads called from inside a pool task");
}

}  // namespace
}  // namespace ls
