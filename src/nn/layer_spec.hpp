#pragma once
// Architecture-level network descriptors.
//
// The simulators (ls::accel, ls::noc, ls::sim) and the analytic traffic
// model (paper TABLE I) operate on layer *shapes*, not trained weights, so
// full-scale AlexNet/VGG19 can be analyzed without training them. A NetSpec
// can also be instantiated into a trainable ls::nn::Network when its size
// permits (see model_zoo.hpp).

#include <cstddef>
#include <string>
#include <vector>

namespace ls::nn {

enum class LayerKind { kConv, kFullyConnected, kPool, kReLU, kFlatten };

const char* to_string(LayerKind kind);

/// One layer of a network architecture. Only the fields relevant to the
/// kind are meaningful.
struct LayerSpec {
  LayerKind kind = LayerKind::kReLU;
  std::string name;

  // conv
  std::size_t out_channels = 0;
  std::size_t kernel = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;
  std::size_t groups = 1;

  // fully connected
  std::size_t out_features = 0;

  // pool
  std::size_t window = 0;
  std::size_t pool_stride = 0;

  static LayerSpec conv(std::string name, std::size_t out_channels,
                        std::size_t kernel, std::size_t stride = 1,
                        std::size_t pad = 0, std::size_t groups = 1);
  static LayerSpec fc(std::string name, std::size_t out_features);
  static LayerSpec pool(std::string name, std::size_t window,
                        std::size_t stride);
  static LayerSpec relu(std::string name);
  static LayerSpec flatten(std::string name);

  friend bool operator==(const LayerSpec&, const LayerSpec&) = default;
};

/// Activation volume {C, H, W} between layers (H=W=1 after flatten/fc).
struct ActShape {
  std::size_t c = 0;
  std::size_t h = 1;
  std::size_t w = 1;
  std::size_t numel() const { return c * h * w; }

  friend bool operator==(const ActShape&, const ActShape&) = default;
};

/// Per-layer derived quantities computed by analyze().
struct LayerAnalysis {
  LayerSpec spec;
  ActShape in;
  ActShape out;
  std::size_t macs = 0;          ///< multiply-accumulates for one inference
  std::size_t weight_count = 0;  ///< learnable weights (no biases)
  bool is_compute() const {
    return spec.kind == LayerKind::kConv ||
           spec.kind == LayerKind::kFullyConnected;
  }
};

/// A complete network architecture plus its nominal dataset.
struct NetSpec {
  std::string name;
  std::string dataset;
  ActShape input;
  std::vector<LayerSpec> layers;

  friend bool operator==(const NetSpec&, const NetSpec&) = default;
};

/// Propagates shapes through the network and computes per-layer MACs and
/// weight counts. Throws on inconsistent specs (e.g. kernel > input).
std::vector<LayerAnalysis> analyze(const NetSpec& spec);

/// Total MACs over all layers.
std::size_t total_macs(const NetSpec& spec);

/// Total learnable weights over all layers.
std::size_t total_weights(const NetSpec& spec);

}  // namespace ls::nn
