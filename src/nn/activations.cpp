#include "nn/activations.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/parallel.hpp"

namespace ls::nn {

namespace {

// Elements per ReLU task: fixed, so chunk edges never depend on the pool.
constexpr std::size_t kReluChunk = std::size_t{1} << 14;

// Runs fn(begin, end) over [0, n) in kReluChunk pieces on the pool.
template <typename Fn>
void for_chunks(std::size_t n, const Fn& fn) {
  util::parallel_for(0, (n + kReluChunk - 1) / kReluChunk,
                     [&](std::size_t c) {
                       fn(c * kReluChunk, std::min(n, (c + 1) * kReluChunk));
                     });
}

}  // namespace

Tensor ReLU::forward(const Tensor& in, bool training) {
  Tensor out = Tensor::uninit(in.shape());
  const float* x = in.data();
  float* y = out.data();
  if (training) {
    cached_shape_ = in.shape();
    dead_.resize(in.numel());
  }
  std::uint8_t* dead = training ? dead_.data() : nullptr;
  for_chunks(in.numel(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) y[i] = x[i] < 0.0f ? 0.0f : x[i];
    if (dead != nullptr) {
      for (std::size_t i = b; i < e; ++i) dead[i] = x[i] <= 0.0f;
    }
  });
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (cached_shape_.empty()) {
    throw std::logic_error("relu backward without training forward");
  }
  if (grad_out.shape() != cached_shape_) {
    throw std::invalid_argument(
        "relu backward: grad_out shape " + grad_out.shape().to_string() +
        " differs from the training forward's " + cached_shape_.to_string() +
        " at " + name_);
  }
  Tensor grad_in = Tensor::uninit(cached_shape_);
  const float* g = grad_out.data();
  const std::uint8_t* dead = dead_.data();
  float* gi = grad_in.data();
  // gi = dead ? +0.0f : g, as a bit mask so the loop vectorizes.
  for_chunks(grad_in.numel(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const std::uint32_t keep = 0u - static_cast<std::uint32_t>(dead[i] == 0);
      gi[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(g[i]) & keep);
    }
  });
  return grad_in;
}

Shape Flatten::output_shape(const Shape& in) const {
  std::size_t features = 1;
  for (std::size_t i = 1; i < in.rank(); ++i) features *= in[i];
  return Shape{in[0], features};
}

Tensor Flatten::forward(const Tensor& in, bool training) {
  if (training) cached_input_shape_ = in.shape();
  return in.reshaped(output_shape(in.shape()));
}

Tensor Flatten::backward(const Tensor& grad_out) {
  if (cached_input_shape_.empty()) {
    throw std::logic_error("flatten backward without training forward");
  }
  return grad_out.reshaped(cached_input_shape_);
}

}  // namespace ls::nn
