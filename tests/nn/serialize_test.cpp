#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "nn/model_zoo.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  // One file per test: ctest -j runs each test as its own process, so a
  // shared name lets one test's TearDown delete another's checkpoint.
  std::string path_ =
      ::testing::TempDir() + "lsnn_checkpoint_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SerializeTest, RoundTripRestoresExactWeights) {
  util::Rng rng(1);
  Network a = build_network(lenet_expt_spec(), rng);
  save_params(a, path_);

  util::Rng rng2(999);  // different init
  Network b = build_network(lenet_expt_spec(), rng2);
  const Tensor in = Tensor::full(Shape{1, 1, 28, 28}, 0.5f);
  EXPECT_GT(tensor::max_abs_diff(a.forward(in), b.forward(in)), 1e-4f);

  load_params(b, path_);
  EXPECT_EQ(tensor::max_abs_diff(a.forward(in), b.forward(in)), 0.0f);
  const auto pa = a.params(), pb = b.params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(pa[i]->value, pb[i]->value), 0.0f);
  }
}

TEST_F(SerializeTest, PreservesExactZeros) {
  util::Rng rng(2);
  Network a = build_network(mlp_expt_spec(), rng);
  a.params()[2]->value.zero();  // kill a whole weight matrix
  save_params(a, path_);
  util::Rng rng2(3);
  Network b = build_network(mlp_expt_spec(), rng2);
  load_params(b, path_);
  EXPECT_DOUBLE_EQ(b.sparsity(), a.sparsity());
}

TEST_F(SerializeTest, RejectsWrongArchitecture) {
  util::Rng rng(4);
  Network a = build_network(mlp_expt_spec(), rng);
  save_params(a, path_);
  Network b = build_network(lenet_expt_spec(), rng);
  EXPECT_THROW(load_params(b, path_), std::runtime_error);
}

TEST_F(SerializeTest, RejectsGarbageFile) {
  std::ofstream out(path_, std::ios::binary);
  out << "definitely not a checkpoint";
  out.close();
  util::Rng rng(5);
  Network net = build_network(mlp_expt_spec(), rng);
  EXPECT_THROW(load_params(net, path_), std::runtime_error);
}

TEST_F(SerializeTest, RejectsTruncatedFile) {
  util::Rng rng(6);
  Network a = build_network(mlp_expt_spec(), rng);
  save_params(a, path_);
  // Truncate to half.
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  out.close();
  Network b = build_network(mlp_expt_spec(), rng);
  EXPECT_THROW(load_params(b, path_), std::runtime_error);
}

TEST_F(SerializeTest, MissingFileThrows) {
  util::Rng rng(7);
  Network net = build_network(mlp_expt_spec(), rng);
  EXPECT_THROW(load_params(net, "/nonexistent/dir/x.bin"),
               std::runtime_error);
}

TEST_F(SerializeTest, FailedLoadLeavesNetworkUntouched) {
  util::Rng rng(8);
  Network a = build_network(mlp_expt_spec(), rng);
  save_params(a, path_);
  Network b = build_network(lenet_expt_spec(), rng);
  const Tensor in = Tensor::full(Shape{1, 1, 28, 28}, 0.3f);
  const Tensor before = b.forward(in);
  EXPECT_THROW(load_params(b, path_), std::runtime_error);
  EXPECT_EQ(tensor::max_abs_diff(before, b.forward(in)), 0.0f);
}

}  // namespace
}  // namespace ls::nn
