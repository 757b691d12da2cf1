#pragma once
// Per-layer block-zero bitmaps over a P-way partitioned weight tensor
// (DESIGN.md "Sparse execution").
//
// The paper's group-Lasso training drives whole (producer core, consumer
// core) weight blocks to exact zero. This module scans a layer's weight
// tensor into a parts x parts bitmap of all-zero blocks and hands it to the
// block-sparse GEMM kernels (gemm.hpp) so pruned blocks cost no compute.
//
// Invalidation contract: the scan is cached per layer and keyed on
// Param::version, which every weight mutation path bumps (Sgd::step,
// proximal group-Lasso apply, LayerGroupSet::kill_block, load_params).
// Code that pokes weight values directly must call Param::bump() itself or
// the cached bitmap goes stale.
//
// Layering: ls::nn cannot depend on ls::core (core already depends on nn),
// so the P-way unit split is replicated here as balanced_bounds(); a
// consistency test pins it to core::balanced_ranges
// (tests/nn/sparse_parity_test.cpp).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/gemm.hpp"

namespace ls::nn {

class Network;
struct NetSpec;
struct Param;

/// Cumulative bounds of the P-way balanced unit split: parts + 1 entries,
/// bounds[p]..bounds[p+1] is panel p. Must match core::balanced_ranges —
/// the first units % parts panels get one extra unit.
std::vector<std::size_t> balanced_bounds(std::size_t units,
                                         std::size_t parts);

/// One scan result: which (producer panel p, consumer panel c) weight
/// blocks are entirely zero, in the coordinates the GEMM kernels use.
struct BlockMap {
  std::size_t parts = 0;
  /// Producer bounds over the weight's reduction extent (conv: Cin*K*K,
  /// fc: in_features) — in-unit bounds scaled by elements per unit.
  std::vector<std::size_t> k_bounds;
  /// Consumer bounds over the weight's output extent (Cout / out_features).
  std::vector<std::size_t> out_bounds;
  /// parts x parts, indexed zero[p * parts + c]; 1 = block all-zero.
  std::vector<std::uint8_t> zero;
  /// Per in-unit: 1 iff the unit's producer panel is dead for *every*
  /// consumer — its im2col rows need not be packed at all.
  std::vector<std::uint8_t> channel_skip;

  std::size_t zero_blocks = 0;
  /// Weight elements inside zero blocks; MACs scale with this (each weight
  /// element contributes the same output-pixel count).
  std::size_t zero_weight_elems = 0;

  /// Sparse path engages only when something is actually prunable, so the
  /// dense (0% sparsity) path carries no per-element bitmap checks.
  bool engaged() const { return zero_blocks > 0; }
  /// Live fraction of the parts x parts block grid.
  double block_density() const;

  gemm::BlockMask mask() const {
    return {parts, k_bounds.data(), out_bounds.data(), zero.data()};
  }
};

/// Per-layer cache of the scan, owned by Conv2D/FullyConnected once
/// set_sparsity_partition() arms them.
class BlockSparsity {
 public:
  /// `elems_per_in_unit`: reduction elements each in-unit spans (conv:
  /// K*K, fc: in_features / in_units).
  BlockSparsity(std::size_t parts, std::size_t in_units,
                std::size_t out_units, std::size_t elems_per_in_unit);

  /// Returns the bitmap for `weight`, rescanning iff weight.version moved
  /// since the last scan. Not thread-safe: call once per forward/backward
  /// before fanning out.
  const BlockMap& map(const Param& weight);

  std::size_t parts() const { return map_.parts; }

 private:
  BlockMap map_;
  std::uint64_t scanned_version_ = 0;
  bool scanned_ = false;
};

/// Arms the block-sparse fast path on every eligible compute layer of
/// `net`, mirroring core::build_group_sets eligibility: the first compute
/// layer (replicated input — never pruned) and grouped convs are skipped.
/// Returns the number of layers armed.
std::size_t enable_block_sparsity(Network& net, const NetSpec& spec,
                                  std::size_t parts);

}  // namespace ls::nn
