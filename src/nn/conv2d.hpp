#pragma once
// 2D convolution with optional channel grouping.
//
// Grouping (`groups > 1`) is the mechanism behind the paper's
// *structure-level parallelization* (§IV.B, Fig. 4): with g groups, output
// channels in group i only read input channels in group i, so when group i's
// producer and consumer kernels are mapped to the same core, the layer
// transition needs no inter-core communication.
//
// Three compute kernels (DESIGN.md "Performance architecture" and §4i
// "Vectorized kernels"):
//   * kGemm  — im2col packing + the cache-blocked default GEMM (nn::gemm,
//     run as the host's widest ISA clone with the portable build's bits) on
//     the shared pool: forward and the data gradient fan out over (batch,
//     group), the weight gradient over dW tiles that each pack their own
//     im2row columns and sum samples in ascending order.
//     Default; used by every trainer/bench path.
//   * kSimd  — same im2col structure, but the GEMMs run on the packed
//     register-tiled backend in nn::simd (LS_CONV_IMPL=simd). Falls back to
//     kGemm when the toolchain lacks `#pragma omp simd`.
//   * kNaive — the original 7-deep loop nest, kept as the reference for the
//     parity suite and for microbenchmark baselines.
// All kernels are deterministic for any thread count; they differ only in
// floating-point accumulation grouping (parity within 1e-4, see
// tests/nn/conv_gemm_parity_test.cpp and tests/nn/gemm_simd_test.cpp).

#include <cstddef>
#include <memory>

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace ls::nn {

class BlockSparsity;

/// Conv/FC compute kernel selection. kAuto resolves to the LS_CONV_IMPL
/// environment variable ("gemm" | "naive" | "simd"), defaulting to kGemm.
enum class ConvImpl { kAuto, kGemm, kNaive, kSimd };

struct Conv2DConfig {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 3;     ///< square kernel Kh == Kw
  std::size_t stride = 1;
  std::size_t pad = 0;
  std::size_t groups = 1;     ///< channel groups; 1 = dense layer
  bool bias = true;
  ConvImpl impl = ConvImpl::kAuto;  ///< compute kernel selection
};

class Conv2D final : public Layer {
 public:
  Conv2D(std::string name, const Conv2DConfig& cfg, util::Rng& rng);
  ~Conv2D() override;

  Tensor forward(const Tensor& in, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  /// Skips the data gradient (the GEMM paths' whole first phase).
  void backward_params(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  const std::string& name() const override { return name_; }
  Shape output_shape(const Shape& in) const override;

  const Conv2DConfig& config() const { return cfg_; }
  /// Weight layout: {Cout, Cin/groups, K, K}.
  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  Param& bias() { return bias_; }

  /// Switches the compute kernel at runtime (parity tests, benches).
  void set_impl(ConvImpl impl) { cfg_.impl = impl; }
  /// The kernel forward/backward will actually run (kAuto resolved).
  ConvImpl resolved_impl() const;

  /// Arms the block-sparse fast path (DESIGN.md "Sparse execution"):
  /// in/out channels are split `parts` ways (balanced_bounds) and all-zero
  /// weight blocks are skipped by the GEMM path. Requires groups == 1.
  /// Dense behavior is unchanged until blocks are actually pruned.
  void set_sparsity_partition(std::size_t parts);
  void clear_sparsity_partition();
  const BlockSparsity* sparsity() const { return sparsity_.get(); }

 private:
  Tensor naive_forward(const Tensor& in, bool training);
  Tensor naive_backward(const Tensor& grad_out);
  Tensor gemm_forward(const Tensor& in, bool training);
  /// Parameter gradients, plus dL/d-input when `input_grad` (else empty).
  Tensor gemm_backward(const Tensor& grad_out, bool input_grad);

  /// Cached bitmap when armed and eligible, nullptr for the dense path.
  /// Rescans on weight-version change; cheap when nothing moved.
  const struct BlockMap* sparse_map();

  std::string name_;
  Conv2DConfig cfg_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
  std::unique_ptr<BlockSparsity> sparsity_;
};

}  // namespace ls::nn
