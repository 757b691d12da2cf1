#include "nn/network.hpp"

#include <stdexcept>
#include <utility>

#include "check/check.hpp"

namespace ls::nn {

Layer& Network::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

Tensor Network::forward(const Tensor& in, bool training) {
  // Checked builds guard every layer boundary: the produced tensor must
  // match the layer's declared output_shape and stay finite. Catches layers
  // whose forward() drifts from their shape contract and pinpoints the
  // first layer that produces NaN/Inf instead of letting it surface as a
  // garbage loss many steps later.
  // Layers take their input by const reference, so the caller's tensor
  // feeds the first layer uncopied and each output is released once the
  // next layer returns.
  if (layers_.empty()) return in;
  if constexpr (check::kEnabled) {
    LS_CHECK_MSG(in.all_finite(), "non-finite input into network '%s'",
                 name_.c_str());
  }
  Tensor x;
  const Tensor* cur = &in;
  for (auto& layer : layers_) {
    if constexpr (check::kEnabled) {
      const Shape expected = layer->output_shape(cur->shape());
      Tensor out = layer->forward(*cur, training);
      LS_CHECK_MSG(out.shape() == expected,
                   "layer '%s' produced shape %s but declared %s",
                   layer->name().c_str(), out.shape().to_string().c_str(),
                   expected.to_string().c_str());
      LS_CHECK_MSG(out.all_finite(),
                   "non-finite activations out of layer '%s'",
                   layer->name().c_str());
      x = std::move(out);
    } else {
      x = layer->forward(*cur, training);
    }
    cur = &x;
  }
  return x;
}

void Network::backward(const Tensor& grad_logits) {
  std::size_t first = 0;
  while (first < layers_.size() && layers_[first]->params().empty()) ++first;
  if (first == layers_.size()) return;
  Tensor g;
  const Tensor* cur = &grad_logits;
  for (std::size_t i = layers_.size() - 1; i > first; --i) {
    g = layers_[i]->backward(*cur);
    cur = &g;
  }
  layers_[first]->backward_params(*cur);
}

void Network::zero_grad() {
  for (Param* p : params()) p->grad.zero();
}

std::vector<Param*> Network::params() {
  std::vector<Param*> all;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) all.push_back(p);
  }
  return all;
}

Layer& Network::layer_by_name(const std::string& name) {
  for (auto& layer : layers_) {
    if (layer->name() == name) return *layer;
  }
  throw std::invalid_argument("no layer named " + name + " in " + name_);
}

std::size_t Network::num_params() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

double Network::sparsity() {
  std::size_t zeros = 0, total = 0;
  for (Param* p : params()) {
    zeros += p->value.count_zeros();
    total += p->value.numel();
  }
  return total ? static_cast<double>(zeros) / static_cast<double>(total) : 0.0;
}

std::vector<std::uint32_t> Network::predict(const Tensor& in) {
  return argmax_rows(forward(in, /*training=*/false));
}

double Network::accuracy(const Tensor& in,
                         const std::vector<std::uint32_t>& labels) {
  const auto preds = predict(in);
  if (preds.size() != labels.size()) {
    throw std::invalid_argument("accuracy: label count mismatch");
  }
  std::size_t hits = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == labels[i]) ++hits;
  }
  return preds.empty() ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(preds.size());
}

}  // namespace ls::nn
