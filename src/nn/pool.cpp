#include "nn/pool.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/parallel.hpp"

namespace ls::nn {

Pool2D::Pool2D(std::string name, PoolKind kind, std::size_t window,
               std::size_t stride)
    : name_(std::move(name)), kind_(kind), window_(window), stride_(stride) {
  if (window == 0 || stride == 0) {
    throw std::invalid_argument("pool: zero window or stride");
  }
}

Shape Pool2D::output_shape(const Shape& in) const {
  if (in.rank() != 4) throw std::invalid_argument("pool expects NCHW input");
  if (in[2] < window_ || in[3] < window_) {
    throw std::invalid_argument("pool window larger than input");
  }
  const std::size_t oh = (in[2] - window_) / stride_ + 1;
  const std::size_t ow = (in[3] - window_) / stride_ + 1;
  return Shape{in[0], in[1], oh, ow};
}

Tensor Pool2D::forward(const Tensor& in, bool training) {
  const Shape out_shape = output_shape(in.shape());
  Tensor out = Tensor::uninit(out_shape);
  const std::size_t C = in.shape()[1];
  const std::size_t H = in.shape()[2], W = in.shape()[3];
  const std::size_t OH = out_shape[2], OW = out_shape[3];
  const bool record = training && kind_ == PoolKind::kMax;
  if (record) argmax_.resize(out.numel());
  util::parallel_for(0, in.shape()[0] * C, [&](std::size_t plane) {
    const float* in_p = in.data() + plane * H * W;
    std::size_t out_idx = plane * OH * OW;
    for (std::size_t oh = 0; oh < OH; ++oh) {
      for (std::size_t ow = 0; ow < OW; ++ow, ++out_idx) {
        const std::size_t first = oh * stride_ * W + ow * stride_;
        if (kind_ == PoolKind::kMax) {
          // Strict > keeps the first maximum in scan order; a window with
          // no value above -inf (all -inf or NaN) routes to its first cell.
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = first;
          for (std::size_t kh = 0; kh < window_; ++kh) {
            for (std::size_t kw = 0; kw < window_; ++kw) {
              const std::size_t idx = first + kh * W + kw;
              if (in_p[idx] > best) {
                best = in_p[idx];
                best_idx = idx;
              }
            }
          }
          out[out_idx] = best;
          if (record) {
            argmax_[out_idx] =
                static_cast<std::uint32_t>(plane * H * W + best_idx);
          }
        } else {
          float acc = 0.0f;
          for (std::size_t kh = 0; kh < window_; ++kh) {
            for (std::size_t kw = 0; kw < window_; ++kw) {
              acc += in_p[first + kh * W + kw];
            }
          }
          out[out_idx] = acc / static_cast<float>(window_ * window_);
        }
      }
    }
  });
  if (training) cached_input_shape_ = in.shape();
  return out;
}

Tensor Pool2D::backward(const Tensor& grad_out) {
  if (cached_input_shape_.empty()) {
    throw std::logic_error("pool backward without training forward");
  }
  const Shape out_shape = output_shape(cached_input_shape_);
  if (grad_out.shape() != out_shape) {
    throw std::invalid_argument(
        "pool backward: grad_out shape " + grad_out.shape().to_string() +
        " differs from the training forward's " + out_shape.to_string() +
        " at " + name_);
  }
  Tensor grad_in = Tensor::uninit(cached_input_shape_);
  const std::size_t H = cached_input_shape_[2], W = cached_input_shape_[3];
  const std::size_t OH = out_shape[2], OW = out_shape[3];
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  const float* go = grad_out.data();
  float* gi = grad_in.data();
  util::parallel_for(0, cached_input_shape_[0] * cached_input_shape_[1],
                     [&](std::size_t plane) {
    // Every scatter stays inside the plane, so the task zeroes it here.
    float* gi_p = gi + plane * H * W;
    std::fill(gi_p, gi_p + H * W, 0.0f);
    const std::size_t o0 = plane * OH * OW, o1 = o0 + OH * OW;
    if (kind_ == PoolKind::kMax) {
      for (std::size_t i = o0; i < o1; ++i) gi[argmax_[i]] += go[i];
      return;
    }
    std::size_t out_idx = o0;
    for (std::size_t oh = 0; oh < OH; ++oh) {
      for (std::size_t ow = 0; ow < OW; ++ow, ++out_idx) {
        const float g = go[out_idx] * inv;
        float* first = gi_p + oh * stride_ * W + ow * stride_;
        for (std::size_t kh = 0; kh < window_; ++kh) {
          for (std::size_t kw = 0; kw < window_; ++kw) {
            first[kh * W + kw] += g;
          }
        }
      }
    }
  });
  return grad_in;
}

}  // namespace ls::nn
