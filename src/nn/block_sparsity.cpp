#include "nn/block_sparsity.hpp"

#include <cstring>
#include <stdexcept>

#include "check/check.hpp"
#include "nn/conv2d.hpp"
#include "nn/fc.hpp"
#include "nn/layer.hpp"
#include "nn/layer_spec.hpp"
#include "nn/network.hpp"

namespace ls::nn {

std::vector<std::size_t> balanced_bounds(std::size_t units,
                                         std::size_t parts) {
  if (parts == 0) throw std::invalid_argument("balanced_bounds: zero parts");
  std::vector<std::size_t> bounds(parts + 1, 0);
  const std::size_t base = units / parts;
  const std::size_t extra = units % parts;
  for (std::size_t p = 0; p < parts; ++p) {
    bounds[p + 1] = bounds[p] + base + (p < extra ? 1 : 0);
  }
  return bounds;
}

double BlockMap::block_density() const {
  const std::size_t total = parts * parts;
  return total ? 1.0 - static_cast<double>(zero_blocks) /
                           static_cast<double>(total)
               : 1.0;
}

BlockSparsity::BlockSparsity(std::size_t parts, std::size_t in_units,
                             std::size_t out_units,
                             std::size_t elems_per_in_unit) {
  if (parts == 0) throw std::invalid_argument("block sparsity: zero parts");
  if (elems_per_in_unit == 0) {
    throw std::invalid_argument("block sparsity: zero elems per in unit");
  }
  map_.parts = parts;
  map_.out_bounds = balanced_bounds(out_units, parts);
  map_.k_bounds = balanced_bounds(in_units, parts);
  for (std::size_t& b : map_.k_bounds) b *= elems_per_in_unit;
  map_.channel_skip.assign(in_units, 0);
  map_.zero.assign(parts * parts, 0);
}

namespace {

// Checked-build probe: every block the bitmap marks zero must still be
// exactly zero in memory. A mismatch means the weights were mutated without
// Param::bump() — the stale-cache hazard the invalidation contract above
// exists to prevent — and the sparse kernels would silently skip live
// blocks.
void verify_zero_blocks(const BlockMap& map, const Param& weight) {
  const std::size_t parts = map.parts;
  const std::size_t red_extent = map.k_bounds[parts];
  const float* w = weight.value.data();
  for (std::size_t p = 0; p < parts; ++p) {
    for (std::size_t c = 0; c < parts; ++c) {
      if (!map.zero[p * parts + c]) continue;
      for (std::size_t oc = map.out_bounds[c]; oc < map.out_bounds[c + 1];
           ++oc) {
        const float* row = w + oc * red_extent;
        for (std::size_t k = map.k_bounds[p]; k < map.k_bounds[p + 1]; ++k) {
          LS_CHECK_MSG(
              row[k] == 0.0f,
              "sparsity bitmap stale for '%s': block (p=%zu,c=%zu) is "
              "marked zero but weight[%zu][%zu] = %g — value mutated "
              "without Param::bump()?",
              weight.name.c_str(), p, c, oc, k, static_cast<double>(row[k]));
        }
      }
    }
  }
}

}  // namespace

const BlockMap& BlockSparsity::map(const Param& weight) {
  LS_CHECK_MSG(!scanned_ || weight.version >= scanned_version_,
               "Param '%s' version moved backwards (%llu -> %llu); versions "
               "are monotonic by contract",
               weight.name.c_str(),
               static_cast<unsigned long long>(scanned_version_),
               static_cast<unsigned long long>(weight.version));
  if (scanned_ && scanned_version_ == weight.version) {
    if constexpr (check::kEnabled) verify_zero_blocks(map_, weight);
    return map_;
  }

  const std::size_t parts = map_.parts;
  const std::size_t out_extent = map_.out_bounds[parts];
  const std::size_t red_extent = map_.k_bounds[parts];
  if (weight.value.numel() != out_extent * red_extent) {
    throw std::logic_error("block sparsity: weight extent mismatch");
  }

  // Blocks start presumed zero; any nonzero element clears the bit. The
  // weight is row-major (out_extent x red_extent) for both conv
  // ({Cout, Cin, K, K}) and fc ({Out, In}), so block (p, c) is the
  // contiguous k_bounds[p]..[p+1] span of every row in out panel c.
  std::memset(map_.zero.data(), 1, map_.zero.size());
  const float* w = weight.value.data();
  for (std::size_t c = 0; c < parts; ++c) {
    for (std::size_t oc = map_.out_bounds[c]; oc < map_.out_bounds[c + 1];
         ++oc) {
      const float* row = w + oc * red_extent;
      for (std::size_t p = 0; p < parts; ++p) {
        std::uint8_t& z = map_.zero[p * parts + c];
        if (!z) continue;
        for (std::size_t k = map_.k_bounds[p]; k < map_.k_bounds[p + 1];
             ++k) {
          if (row[k] != 0.0f) {
            z = 0;
            break;
          }
        }
      }
    }
  }

  // Empty panels (parts > units) leave their bits set — harmless for the
  // kernels — but only blocks with actual weight elements count toward
  // zero_blocks, so engaged() stays false until something real is pruned.
  map_.zero_blocks = 0;
  map_.zero_weight_elems = 0;
  std::vector<std::uint8_t> panel_dead(parts, 1);
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t k_cnt = map_.k_bounds[p + 1] - map_.k_bounds[p];
    for (std::size_t c = 0; c < parts; ++c) {
      const std::size_t elems =
          k_cnt * (map_.out_bounds[c + 1] - map_.out_bounds[c]);
      if (map_.zero[p * parts + c]) {
        if (elems > 0) {
          ++map_.zero_blocks;
          map_.zero_weight_elems += elems;
        }
      } else {
        panel_dead[p] = 0;
      }
    }
  }

  // channel_skip: in-units whose producer panel is dead for every consumer.
  const std::size_t in_units = map_.channel_skip.size();
  const std::size_t elems =
      in_units ? red_extent / in_units : 0;
  for (std::size_t u = 0; u < in_units; ++u) {
    // owner panel of unit u: the panel whose (unscaled) bounds contain u.
    std::size_t p = 0;
    const std::size_t k = u * elems;
    while (p + 1 < parts && map_.k_bounds[p + 1] <= k) ++p;
    map_.channel_skip[u] = panel_dead[p];
  }

  scanned_version_ = weight.version;
  scanned_ = true;
  return map_;
}

std::size_t enable_block_sparsity(Network& net, const NetSpec& spec,
                                  std::size_t parts) {
  if (parts == 0) throw std::invalid_argument("zero parts");
  const auto analysis = analyze(spec);
  if (analysis.size() != net.num_layers()) {
    throw std::invalid_argument("spec/network layer count mismatch");
  }

  std::size_t armed = 0;
  bool seen_first_compute = false;
  std::size_t prev_out_units = spec.input.c;
  for (std::size_t li = 0; li < analysis.size(); ++li) {
    const LayerAnalysis& a = analysis[li];
    if (!a.is_compute()) continue;
    if (!seen_first_compute) {
      // First compute layer reads the replicated input: nothing is pruned
      // there (no group-Lasso blocks), so the dense path stays.
      seen_first_compute = true;
      prev_out_units = a.out.c;
      continue;
    }
    if (a.spec.kind == LayerKind::kConv && a.spec.groups > 1) {
      prev_out_units = a.out.c;
      continue;  // structure-level grouped layer; not block-sparse material
    }

    Layer& layer = net.layer(li);
    if (a.spec.kind == LayerKind::kConv) {
      auto* conv = dynamic_cast<Conv2D*>(&layer);
      if (conv == nullptr || conv->name() != a.spec.name) {
        throw std::logic_error("spec/network mismatch at " + a.spec.name);
      }
      conv->set_sparsity_partition(parts);
      prev_out_units = conv->config().out_channels;
    } else {
      auto* fc = dynamic_cast<FullyConnected*>(&layer);
      if (fc == nullptr || fc->name() != a.spec.name) {
        throw std::logic_error("spec/network mismatch at " + a.spec.name);
      }
      fc->set_sparsity_partition(parts, prev_out_units);
      prev_out_units = fc->out_features();
    }
    ++armed;
  }
  return armed;
}

}  // namespace ls::nn
