#pragma once
// Max / average 2D pooling.

#include <cstdint>

#include "nn/layer.hpp"

namespace ls::nn {

enum class PoolKind { kMax, kAvg };

/// Both passes fan out over (sample, channel) planes; each plane keeps the
/// serial scan order, and every read and write stays inside its plane.
class Pool2D final : public Layer {
 public:
  Pool2D(std::string name, PoolKind kind, std::size_t window,
         std::size_t stride);

  Tensor forward(const Tensor& in, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  const std::string& name() const override { return name_; }
  Shape output_shape(const Shape& in) const override;

  PoolKind kind() const { return kind_; }
  std::size_t window() const { return window_; }
  std::size_t stride() const { return stride_; }

 private:
  std::string name_;
  PoolKind kind_;
  std::size_t window_;
  std::size_t stride_;
  Shape cached_input_shape_;
  std::vector<std::uint32_t> argmax_;  ///< flat input index per output (max)
};

}  // namespace ls::nn
