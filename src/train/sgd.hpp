#pragma once
// Stochastic gradient descent with momentum and L2 weight decay.

#include <vector>

#include "nn/layer.hpp"

namespace ls::train {

struct SgdConfig {
  double lr = 0.05;
  double momentum = 0.9;
  double weight_decay = 1e-4;  ///< the generic R(.) term of paper Eq. (1)
  /// Global gradient-norm clip (0 disables). Keeps the from-scratch conv
  /// nets stable at the aggressive learning rates the short training
  /// budgets need.
  double clip_grad_norm = 5.0;

  friend bool operator==(const SgdConfig&, const SgdConfig&) = default;
};

class Sgd {
 public:
  Sgd(std::vector<nn::Param*> params, const SgdConfig& cfg);

  /// One update from the currently-accumulated gradients.
  void step();

  /// Adjusts the learning rate (for decay schedules).
  void set_lr(double lr) { cfg_.lr = lr; }
  double lr() const { return cfg_.lr; }

 private:
  std::vector<nn::Param*> params_;
  SgdConfig cfg_;
  std::vector<tensor::Tensor> velocity_;
};

}  // namespace ls::train
