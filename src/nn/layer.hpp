#pragma once
// Layer interface for the from-scratch neural-network library.
//
// Training support (full backward pass) is required because the paper's core
// contribution — communication-aware sparsified parallelization — is a
// *training-time* technique: group-Lasso regularization with per-group
// strength derived from NoC hop distances (paper §IV.C).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace ls::nn {

using tensor::Shape;
using tensor::Tensor;

/// A learnable parameter: value plus the gradient accumulated by backward().
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Monotonic weight-version counter — the invalidation contract for the
  /// block-sparsity bitmap cache (DESIGN.md "Sparse execution"). Every code
  /// path that mutates `value` must bump() afterwards; Sgd::step, the
  /// proximal group-Lasso update, LayerGroupSet::kill_block and
  /// serialize::load_params all do. Code that pokes `value` directly (tests,
  /// ad-hoc surgery) must bump() itself or stale bitmaps will skip
  /// now-nonzero blocks.
  std::uint64_t version = 0;

  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape(), 0.0f) {}

  void bump() { ++version; }
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Runs the layer on `in`, caching whatever backward() needs when
  /// `training` is true.
  virtual Tensor forward(const Tensor& in, bool training) = 0;

  /// Propagates `grad_out` (dL/d-output) back, accumulating parameter
  /// gradients and returning dL/d-input. Must follow a training-mode
  /// forward().
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// backward() for a caller that will not read dL/d-input, e.g. the
  /// network's first layer: accumulates the same parameter gradients,
  /// bit for bit. Layers whose input gradient costs real work override it
  /// to skip that work.
  virtual void backward_params(const Tensor& grad_out) { backward(grad_out); }

  /// Learnable parameters (empty for stateless layers). Pointers remain
  /// valid for the life of the layer.
  virtual std::vector<Param*> params() { return {}; }

  /// Human-readable layer name, e.g. "conv2".
  virtual const std::string& name() const = 0;

  /// Output shape for a given input shape (without running data through).
  virtual Shape output_shape(const Shape& in) const = 0;
};

}  // namespace ls::nn
