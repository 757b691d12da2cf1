#pragma once
// Build stamp names kept for result provenance. The GEMM kernels are
// nn/gemm.hpp's; this header only answers which of them a run used.

#include "nn/gemm.hpp"

namespace ls::nn::simd {

/// The GEMM kernel family. There is one: kScalar names the nn::gemm
/// kernels, whatever ISA clone they dispatch to.
enum class GemmBackend { kScalar, kSimd };

/// Always kScalar.
inline GemmBackend default_backend() { return GemmBackend::kScalar; }

/// The instruction set the GEMM kernels dispatch to: gemm::kernel_isa().
inline const char* microkernel_isa() { return gemm::kernel_isa(); }

}  // namespace ls::nn::simd
