#include "nn/fc.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "nn/block_sparsity.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ls::nn {

FullyConnected::FullyConnected(std::string name, std::size_t in_features,
                               std::size_t out_features, util::Rng& rng,
                               bool bias)
    : name_(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_(name_ + ".w", Tensor::he_normal(Shape{out_features, in_features},
                                              in_features, rng)),
      bias_(name_ + ".b", Tensor::zeros(Shape{out_features})) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("fc: zero-sized features");
  }
}

FullyConnected::~FullyConnected() = default;

void FullyConnected::set_sparsity_partition(std::size_t parts,
                                            std::size_t in_units) {
  if (in_units == 0 || in_features_ % in_units != 0) {
    throw std::invalid_argument(
        "fc block sparsity: in_features not a multiple of in_units at " +
        name_);
  }
  sparsity_ = std::make_unique<BlockSparsity>(parts, in_units, out_features_,
                                              in_features_ / in_units);
}

void FullyConnected::clear_sparsity_partition() { sparsity_.reset(); }

const BlockMap* FullyConnected::sparse_map() {
  if (!sparsity_) return nullptr;
  const BlockMap& m = sparsity_->map(weight_);
  return m.engaged() ? &m : nullptr;
}

Shape FullyConnected::output_shape(const Shape& in) const {
  std::size_t features = 1;
  for (std::size_t i = 1; i < in.rank(); ++i) features *= in[i];
  if (in.rank() == 1) features = in[0];
  const std::size_t n = in.rank() == 1 ? 1 : in[0];
  if (features != in_features_) {
    throw std::invalid_argument("fc input feature mismatch for " + name_);
  }
  return Shape{n, out_features_};
}

Tensor FullyConnected::forward(const Tensor& in, bool training) {
  obs::Span span;
  if (obs::trace_enabled()) span.begin(name_ + ".fwd", "kernel");
  const Shape out_shape = output_shape(in.shape());
  const std::size_t N = out_shape[0];
  Tensor out = Tensor::uninit(out_shape);
  for (std::size_t n = 0; n < N; ++n) {
    float* row = out.data() + n * out_features_;
    if (has_bias_) {
      std::memcpy(row, bias_.value.data(), out_features_ * sizeof(float));
    } else {
      std::fill(row, row + out_features_, 0.0f);
    }
  }
  // out (N x Out) += X (N x In) * W^T, column-parallel over output units.
  const BlockMap* bm = sparse_map();
  if (bm != nullptr) {
    static auto& blocks_skipped =
        obs::Registry::instance().counter("sparse.blocks_skipped");
    static auto& macs_skipped =
        obs::Registry::instance().counter("sparse.macs_skipped");
    blocks_skipped.inc(bm->zero_blocks * N);
    macs_skipped.inc(bm->zero_weight_elems * N);
    obs::Registry::instance()
        .gauge("sparse.layer." + name_ + ".block_density")
        .set(bm->block_density());
    gemm::gemm_nt_sparse(N, out_features_, in_features_, in.data(),
                         in_features_, weight_.value.data(), in_features_,
                         out.data(), out_features_, /*accumulate=*/true,
                         /*parallel=*/true, bm->mask());
  } else {
    gemm::gemm_nt(N, out_features_, in_features_, in.data(), in_features_,
                  weight_.value.data(), in_features_, out.data(),
                  out_features_,
                  /*accumulate=*/true, /*parallel=*/true);
  }
  if (training) {
    cached_input_ = in.reshaped(Shape{N, in_features_});
    cached_input_shape_ = in.shape();
  }
  return out;
}

Tensor FullyConnected::backward(const Tensor& grad_out) {
  return gemm_backward(grad_out, /*input_grad=*/true);
}

void FullyConnected::backward_params(const Tensor& grad_out) {
  gemm_backward(grad_out, /*input_grad=*/false);
}

Tensor FullyConnected::gemm_backward(const Tensor& grad_out,
                                     bool input_grad) {
  obs::Span span;
  if (obs::trace_enabled()) span.begin(name_ + ".bwd", "kernel");
  if (cached_input_.empty()) {
    throw std::logic_error("fc backward without training forward");
  }
  const std::size_t N = cached_input_.shape()[0];
  if (has_bias_) {
    for (std::size_t n = 0; n < N; ++n) {
      const float* go = grad_out.data() + n * out_features_;
      for (std::size_t o = 0; o < out_features_; ++o) bias_.grad[o] += go[o];
    }
  }
  // dW (Out x In) += dOut^T (Out x N) * X (N x In); k = sample index runs
  // ascending, matching the reference accumulation order.
  gemm::gemm_tn(out_features_, in_features_, N, grad_out.data(),
                out_features_, cached_input_.data(), in_features_,
                weight_.grad.data(), in_features_, /*accumulate=*/true,
                /*parallel=*/true);
  if (!input_grad) return Tensor();
  // dX (N x In) = dOut (N x Out) * W (Out x In)
  Tensor grad_flat = Tensor::uninit(Shape{N, in_features_});
  gemm::gemm_nn(N, in_features_, out_features_, grad_out.data(),
                out_features_, weight_.value.data(), in_features_,
                grad_flat.data(), in_features_, /*accumulate=*/false,
                /*parallel=*/true);
  return std::move(grad_flat).reshaped(cached_input_shape_);
}

std::vector<Param*> FullyConnected::params() {
  std::vector<Param*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

}  // namespace ls::nn
