#pragma once
// Sequential network container: owns layers, runs forward/backward, and
// exposes parameters to the trainer and to the partitioners in ls::core.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"

namespace ls::nn {

class Network {
 public:
  explicit Network(std::string name) : name_(std::move(name)) {}

  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Appends a layer; returns a reference to it for further configuration.
  Layer& add(std::unique_ptr<Layer> layer);

  /// Convenience typed add.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  Tensor forward(const Tensor& in, bool training = false);

  /// Backward from dL/dlogits, accumulating every parameter gradient. No
  /// input gradient is produced: the first layer with parameters runs
  /// backward_params(), and the parameter-free layers before it are skipped.
  void backward(const Tensor& grad_logits);

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// All learnable parameters across layers.
  std::vector<Param*> params();

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Finds a layer by name; throws if absent.
  Layer& layer_by_name(const std::string& name);

  const std::string& name() const { return name_; }

  /// Total learnable scalar count.
  std::size_t num_params();

  /// Fraction of learnable weights that are exactly zero.
  double sparsity();

  /// Predicted class per sample.
  std::vector<std::uint32_t> predict(const Tensor& in);

  /// Classification accuracy against labels.
  double accuracy(const Tensor& in, const std::vector<std::uint32_t>& labels);

 private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace ls::nn
