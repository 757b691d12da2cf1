#pragma once
// 2D convolution with optional channel grouping.
//
// Grouping (`groups > 1`) is the mechanism behind the paper's
// *structure-level parallelization* (§IV.B, Fig. 4): with g groups, output
// channels in group i only read input channels in group i, so when group i's
// producer and consumer kernels are mapped to the same core, the layer
// transition needs no inter-core communication.
//
// Compute: im2col packing + the register-tiled GEMM kernels of nn::gemm
// (DESIGN.md "Performance architecture" and §4i), run as the host's widest
// ISA clone with the portable build's bits, on the shared pool. Forward
// fans out over (batch, group). Backward is one fan-out of dW tiles, which
// each pack their own im2row columns and sum samples in ascending order,
// followed by one data-gradient task per (batch, group), so every output
// is bit-identical at any thread count. tests/nn/conv_gemm_parity_test.cpp
// checks it against the direct loop nest.

#include <cstddef>
#include <memory>

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace ls::nn {

class BlockSparsity;

struct Conv2DConfig {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 3;     ///< square kernel Kh == Kw
  std::size_t stride = 1;
  std::size_t pad = 0;
  std::size_t groups = 1;     ///< channel groups; 1 = dense layer
  bool bias = true;
};

class Conv2D final : public Layer {
 public:
  Conv2D(std::string name, const Conv2DConfig& cfg, util::Rng& rng);
  ~Conv2D() override;

  Tensor forward(const Tensor& in, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  /// Skips the data gradient: only the dW tiles run.
  void backward_params(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  const std::string& name() const override { return name_; }
  Shape output_shape(const Shape& in) const override;

  const Conv2DConfig& config() const { return cfg_; }
  /// Weight layout: {Cout, Cin/groups, K, K}.
  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  Param& bias() { return bias_; }

  /// Arms the block-sparse fast path (DESIGN.md "Sparse execution"):
  /// in/out channels are split `parts` ways (balanced_bounds) and all-zero
  /// weight blocks are skipped by the GEMM path. Requires groups == 1.
  /// Dense behavior is unchanged until blocks are actually pruned.
  void set_sparsity_partition(std::size_t parts);
  void clear_sparsity_partition();
  const BlockSparsity* sparsity() const { return sparsity_.get(); }

 private:
  /// Parameter gradients, plus dL/d-input when `input_grad` (else empty).
  Tensor gemm_backward(const Tensor& grad_out, bool input_grad);

  /// Cached bitmap when armed and eligible, nullptr for the dense path.
  /// Rescans on weight-version change; cheap when nothing moved.
  const struct BlockMap* sparse_map();

  std::string name_;
  Conv2DConfig cfg_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;  ///< training forward's input, reused per shape
  std::unique_ptr<BlockSparsity> sparsity_;
};

}  // namespace ls::nn
