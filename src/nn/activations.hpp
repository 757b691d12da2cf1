#pragma once
// Stateless activation layers.

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace ls::nn {

/// Both passes fan out over fixed-size element chunks. A training forward
/// records which inputs were <= 0 (one byte each); backward zeroes the
/// gradient there, so -0.0 and NaN inputs behave as they compare.
class ReLU final : public Layer {
 public:
  explicit ReLU(std::string name) : name_(std::move(name)) {}

  Tensor forward(const Tensor& in, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  const std::string& name() const override { return name_; }
  Shape output_shape(const Shape& in) const override { return in; }

 private:
  std::string name_;
  Shape cached_shape_;
  std::vector<std::uint8_t> dead_;  ///< in <= 0, per element
};

/// Reshapes {N,C,H,W} to {N, C*H*W}. Identity on 2D input.
class Flatten final : public Layer {
 public:
  explicit Flatten(std::string name) : name_(std::move(name)) {}

  Tensor forward(const Tensor& in, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  const std::string& name() const override { return name_; }
  Shape output_shape(const Shape& in) const override;

 private:
  std::string name_;
  Shape cached_input_shape_;
};

}  // namespace ls::nn
