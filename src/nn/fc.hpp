#pragma once
// Fully-connected (inner-product) layer. Accepts {N, In} or any 4D input
// which it treats as flattened per sample. Forward is one gemm_nt (sparse
// when armed), backward one gemm_tn for dW and one gemm_nn for dX.

#include <memory>

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace ls::nn {

class BlockSparsity;

class FullyConnected final : public Layer {
 public:
  FullyConnected(std::string name, std::size_t in_features,
                 std::size_t out_features, util::Rng& rng, bool bias = true);
  ~FullyConnected() override;

  Tensor forward(const Tensor& in, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  /// Skips the dX GEMM.
  void backward_params(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  const std::string& name() const override { return name_; }
  Shape output_shape(const Shape& in) const override;

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }
  /// Weight layout: {Out, In}.
  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }

  /// Arms the block-sparse forward path: `in_units` is the producer
  /// feature-map count (in_features must be a multiple of it — each unit
  /// spans the flattened H*W footprint of one map, matching
  /// core::build_group_sets). Backward stays dense: group-Lasso training
  /// needs gradients into currently-zero blocks so they can revive.
  void set_sparsity_partition(std::size_t parts, std::size_t in_units);
  void clear_sparsity_partition();
  const BlockSparsity* sparsity() const { return sparsity_.get(); }

 private:
  const struct BlockMap* sparse_map();
  /// Parameter gradients, plus dL/d-input when `input_grad` (else empty).
  Tensor gemm_backward(const Tensor& grad_out, bool input_grad);

  std::string name_;
  std::size_t in_features_;
  std::size_t out_features_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;  ///< flattened {N, In}
  Shape cached_input_shape_;
  std::unique_ptr<BlockSparsity> sparsity_;
};

}  // namespace ls::nn
