#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/block_sparsity.hpp"
#include "nn/gemm.hpp"
#include "nn/scratch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace ls::nn {

namespace {

// Weight-gradient fan-out in gemm_backward: one task per dW tile, at
// least kDwTileRows rows, columns in runs of whole 16-lane strips. Each
// tile repacks its columns of every sample, and the GEMM's per-call
// overhead shrinks as tiles widen, so tiles stay as large as still leaves
// kDwMinTiles tasks: rows split only when there are too few strips, and
// strips spread evenly over the column tiles. With the strip packer,
// ConvNet-expt's dW-only backward at batch 32 on 4 threads (4-vCPU
// AVX-512 host, median of 5 runs, ms for conv1 / conv2 / conv3) took
// 1.47 / 0.80 / 0.69 at 4 tiles, 1.34 / 0.82 / 0.77 at 5, 1.64 / 0.89 /
// 0.86 at 8 and 1.87 / 1.25 / 0.95 at 12. No count beat five on all
// three layers, so it stays. None depends on the thread count.
constexpr std::size_t kDwTileRows = 8;
constexpr std::size_t kDwStrip = gemm::Im2rowCols::kLanes;
constexpr std::size_t kDwMinTiles = 5;

// Kernel-span args: {"N":batch} — rendered only when tracing.
std::string conv_span_args(std::size_t batch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "{\"N\":%zu}", batch);
  return buf;
}
Shape weight_shape(const Conv2DConfig& cfg) {
  return Shape{cfg.out_channels, cfg.in_channels / cfg.groups, cfg.kernel,
               cfg.kernel};
}

void validate(const Conv2DConfig& cfg) {
  if (cfg.in_channels == 0 || cfg.out_channels == 0 || cfg.kernel == 0 ||
      cfg.stride == 0) {
    throw std::invalid_argument("conv2d: zero-sized config field");
  }
  if (cfg.groups == 0 || cfg.in_channels % cfg.groups != 0 ||
      cfg.out_channels % cfg.groups != 0) {
    throw std::invalid_argument(
        "conv2d: groups must divide in_channels and out_channels");
  }
}

}  // namespace

Conv2D::Conv2D(std::string name, const Conv2DConfig& cfg, util::Rng& rng)
    : name_(std::move(name)),
      cfg_(cfg),
      weight_(name_ + ".w",
              (validate(cfg),
               Tensor::he_normal(weight_shape(cfg),
                                 cfg.in_channels / cfg.groups * cfg.kernel *
                                     cfg.kernel,
                                 rng))),
      bias_(name_ + ".b", Tensor::zeros(Shape{cfg.out_channels})) {}

Conv2D::~Conv2D() = default;

void Conv2D::set_sparsity_partition(std::size_t parts) {
  if (cfg_.groups != 1) {
    throw std::invalid_argument(
        "block sparsity requires groups == 1 at " + name_);
  }
  sparsity_ = std::make_unique<BlockSparsity>(
      parts, cfg_.in_channels, cfg_.out_channels,
      cfg_.kernel * cfg_.kernel);
}

void Conv2D::clear_sparsity_partition() { sparsity_.reset(); }

const BlockMap* Conv2D::sparse_map() {
  if (!sparsity_ || cfg_.groups != 1) return nullptr;
  const BlockMap& m = sparsity_->map(weight_);
  return m.engaged() ? &m : nullptr;
}

Shape Conv2D::output_shape(const Shape& in) const {
  if (in.rank() != 4) throw std::invalid_argument("conv2d expects NCHW input");
  if (in[1] != cfg_.in_channels) {
    throw std::invalid_argument("conv2d input channel mismatch for " + name_);
  }
  const std::size_t H = in[2], W = in[3];
  if (H + 2 * cfg_.pad < cfg_.kernel || W + 2 * cfg_.pad < cfg_.kernel) {
    throw std::invalid_argument("conv2d kernel larger than padded input");
  }
  const std::size_t oh = (H + 2 * cfg_.pad - cfg_.kernel) / cfg_.stride + 1;
  const std::size_t ow = (W + 2 * cfg_.pad - cfg_.kernel) / cfg_.stride + 1;
  return Shape{in[0], cfg_.out_channels, oh, ow};
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  return gemm_backward(grad_out, /*input_grad=*/true);
}

void Conv2D::backward_params(const Tensor& grad_out) {
  gemm_backward(grad_out, /*input_grad=*/false);
}

// ---------------------------------------------------------------------------
// im2col + GEMM fast path.
//
// Forward parallelizes over (sample, group) tasks; each task copies its
// slice of the input into the cached input (training only), packs its
// group's input window into a thread-local im2col buffer and runs one
// row-parallel GEMM (the GEMM's internal parallel_for runs inline when the
// outer loop already fans out — see util::ThreadPool). Backward is one
// fan-out: the dW tiles come first, then one data-gradient task per
// (sample, group) (none when the caller needs no input gradient). A dW
// tile packs its own im2row columns and sums its samples in ascending
// order — the accumulation order of a serial sample loop — and a dX task
// zeroes and then fills only its own grad_in slice, so every result is
// bit-identical to the serial loop for any thread count. The dW tiles are
// the longest tasks; putting them first lets the dX tasks fill the threads
// the last tiles leave idle. A thread runs its tasks one after another, so
// the kBwdDrow slot a dW tile stages in and a dX task writes dRow into is
// never live twice on one thread.
//
// Packing share, ConvNet-expt on a 4-vCPU AVX-512 host, single thread per
// sample against a direct GEMM of the same MACs (DESIGN.md §4i): im2col
// is 15-22% of pack + GEMM, im2row 12-30% and row2im_add 23-38%. In a
// gprof profile of the train-sparsify benchmark the three packers take
// 18% of CPU samples and the GEMM 47%.
// ---------------------------------------------------------------------------

Tensor Conv2D::forward(const Tensor& in, bool training) {
  obs::Span span;
  if (obs::trace_enabled()) {
    span.begin(name_ + ".fwd", "kernel", conv_span_args(in.shape()[0]));
  }
  const Shape out_shape = output_shape(in.shape());
  Tensor out = Tensor::uninit(out_shape);
  const std::size_t N = in.shape()[0];
  const std::size_t C = cfg_.in_channels;
  const std::size_t H = in.shape()[2], W = in.shape()[3];
  const std::size_t OC = cfg_.out_channels;
  const std::size_t cin_g = C / cfg_.groups;
  const std::size_t cout_g = OC / cfg_.groups;

  gemm::PackShape ps;
  ps.channels = cin_g;
  ps.H = H;
  ps.W = W;
  ps.OH = out_shape[2];
  ps.OW = out_shape[3];
  ps.K = cfg_.kernel;
  ps.stride = cfg_.stride;
  ps.pad = cfg_.pad;
  const std::size_t ck2 = ps.patch();
  const std::size_t ohw = ps.cols();

  const float* in_base = in.data();
  const float* w_base = weight_.value.data();
  float* out_base = out.data();
  // Backward's copy of the input, kept while the shape holds; each task
  // copies its own slice.
  if (training && cached_input_.shape() != in.shape()) {
    cached_input_ = Tensor::uninit(in.shape());
  }
  float* cache_base = training ? cached_input_.data() : nullptr;

  // Resolve the block-zero bitmap once, outside the fan-out (the rescan is
  // not thread-safe). Null when unarmed, disabled, or nothing is pruned.
  const BlockMap* bm = sparse_map();
  if (bm != nullptr) {
    static auto& blocks_skipped =
        obs::Registry::instance().counter("sparse.blocks_skipped");
    static auto& macs_skipped =
        obs::Registry::instance().counter("sparse.macs_skipped");
    blocks_skipped.inc(bm->zero_blocks * N);
    macs_skipped.inc(bm->zero_weight_elems * ohw * N);
    obs::Registry::instance()
        .gauge("sparse.layer." + name_ + ".block_density")
        .set(bm->block_density());
  }

  util::parallel_for(0, N * cfg_.groups, [&](std::size_t t) {
    const std::size_t n = t / cfg_.groups;
    const std::size_t g = t % cfg_.groups;
    float* col = scratch::buffer(scratch::Slot::kIm2col, ck2 * ohw);
    const std::size_t in_off = (n * C + g * cin_g) * H * W;
    const float* in_g = in_base + in_off;
    if (cache_base != nullptr) {
      std::memcpy(cache_base + in_off, in_g, cin_g * H * W * sizeof(float));
    }
    if (bm != nullptr) {
      gemm::im2col_masked(ps, in_g, col, bm->channel_skip.data());
    } else {
      gemm::im2col(ps, in_g, col);
    }
    float* out_g = out_base + (n * OC + g * cout_g) * ohw;
    for (std::size_t ocg = 0; ocg < cout_g; ++ocg) {
      const float b = cfg_.bias ? bias_.value[g * cout_g + ocg] : 0.0f;
      std::fill(out_g + ocg * ohw, out_g + (ocg + 1) * ohw, b);
    }
    if (bm != nullptr) {
      gemm::gemm_nn_sparse(cout_g, ohw, ck2, w_base + g * cout_g * ck2, ck2,
                           col, ohw, out_g, ohw, /*accumulate=*/true,
                           /*parallel=*/true, bm->mask());
    } else {
      gemm::gemm_nn(cout_g, ohw, ck2, w_base + g * cout_g * ck2, ck2, col,
                    ohw, out_g, ohw, /*accumulate=*/true, /*parallel=*/true);
    }
  });
  return out;
}

Tensor Conv2D::gemm_backward(const Tensor& grad_out, bool input_grad) {
  obs::Span span;
  if (obs::trace_enabled()) {
    span.begin(name_ + ".bwd", "kernel", conv_span_args(grad_out.shape()[0]));
  }
  if (cached_input_.empty()) {
    throw std::logic_error("conv2d backward without training forward");
  }
  const Tensor& in = cached_input_;
  const Shape out_shape = grad_out.shape();
  const std::size_t N = in.shape()[0];
  const std::size_t C = cfg_.in_channels;
  const std::size_t H = in.shape()[2], W = in.shape()[3];
  const std::size_t OC = cfg_.out_channels;
  const std::size_t G = cfg_.groups;
  const std::size_t cin_g = C / G;
  const std::size_t cout_g = OC / G;

  gemm::PackShape ps;
  ps.channels = cin_g;
  ps.H = H;
  ps.W = W;
  ps.OH = out_shape[2];
  ps.OW = out_shape[3];
  ps.K = cfg_.kernel;
  ps.stride = cfg_.stride;
  ps.pad = cfg_.pad;
  const std::size_t ck2 = ps.patch();
  const std::size_t ohw = ps.cols();

  const float* in_base = in.data();
  const float* go_base = grad_out.data();
  const float* w_base = weight_.value.data();
  float* wg_base = weight_.grad.data();

  // Block sparsity in backward only accelerates the data-gradient GEMM.
  // The weight-gradient GEMM must stay dense: group-Lasso training needs
  // gradients *into* currently-zero blocks so they can revive. Resolved
  // once, outside the fan-out (the rescan is not thread-safe).
  const BlockMap* bm = input_grad ? sparse_map() : nullptr;
  Tensor grad_in;
  float* gi_base = nullptr;
  if (input_grad) {
    grad_in = Tensor::uninit(in.shape());
    gi_base = grad_in.data();
  }

  // Weight and bias gradients, one task per dW tile. A tile packs only its
  // own im2row columns of each sample, in 16-lane strips, into this
  // thread's buffer and runs the per-sample GEMM on each strip, samples
  // ascending. Every dW element therefore still reduces over n ascending,
  // then k ascending in the same absolute groups — bit-identical to a
  // serial sample loop. Bias sums ride along in each row range's first
  // tile.
  const std::size_t strips = (ck2 + kDwStrip - 1) / kDwStrip;
  const std::size_t row_tiles =
      std::min(std::max<std::size_t>(1, cout_g / kDwTileRows),
               (kDwMinTiles + G * strips - 1) / (G * strips));
  const std::size_t col_tiles =
      std::min(strips, (kDwMinTiles + G * row_tiles - 1) / (G * row_tiles));
  auto dw_tile = [&](std::size_t t) {
    const std::size_t g = t / (row_tiles * col_tiles);
    const std::size_t rt = t / col_tiles % row_tiles;
    const std::size_t ct = t % col_tiles;
    const std::size_t i0 = g * cout_g + cout_g * rt / row_tiles;
    const std::size_t rows = g * cout_g + cout_g * (rt + 1) / row_tiles - i0;
    const std::size_t j0 = kDwStrip * (strips * ct / col_tiles);
    const std::size_t cols =
        std::min(ck2, kDwStrip * (strips * (ct + 1) / col_tiles)) - j0;
    const gemm::Im2rowCols packer(ps, j0, cols);
    float* im2row = scratch::buffer(scratch::Slot::kIm2row, packer.size());
    // The tile accumulates in this thread's staging buffer: neighbouring
    // tiles share cache lines of dW, which the GEMM rewrites once per
    // sample. Copying in and out moves the same bits.
    float* wg = wg_base + i0 * ck2 + j0;
    float* acc = scratch::buffer(scratch::Slot::kBwdDrow, rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(acc + r * cols, wg + r * ck2, cols * sizeof(float));
    }
    for (std::size_t n = 0; n < N; ++n) {
      packer.pack(in_base + (n * C + g * cin_g) * H * W, im2row);
      const float* go = go_base + (n * OC + i0) * ohw;
      // acc += dOut_tile (rows x ohw) * im2row (ohw x cols), one strip at a
      // time: a full strip is read in place.
      for (std::size_t s = 0; s < packer.strips(); ++s) {
        gemm::gemm_nn(rows, std::min(kDwStrip, cols - s * kDwStrip), ohw, go,
                      ohw, im2row + s * ohw * kDwStrip, kDwStrip,
                      acc + s * kDwStrip, cols, /*accumulate=*/true,
                      /*parallel=*/false);
      }
      if (cfg_.bias && ct == 0) {
        for (std::size_t r = 0; r < rows; ++r) {
          float sum = 0.0f;
          for (std::size_t k = 0; k < ohw; ++k) sum += go[r * ohw + k];
          bias_.grad[i0 + r] += sum;
        }
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(wg + r * ck2, acc + r * cols, cols * sizeof(float));
    }
  };

  // Data gradient of one (sample, group): dRow (ohw x ck2) = dOut_g^T * W_g,
  // scattered into this task's grad_in slice, which it zeroes first. In
  // the sparse variant the reduction dim (cout) is the consumer partition
  // and the columns (ck2) are producer panels; pruned spans stay zero.
  auto dx_task = [&](std::size_t t) {
    const std::size_t n = t / G, g = t % G;
    float* drow = scratch::buffer(scratch::Slot::kBwdDrow, ohw * ck2);
    const float* go_g = go_base + (n * OC + g * cout_g) * ohw;
    const float* w_g = w_base + g * cout_g * ck2;
    if (bm != nullptr) {
      gemm::gemm_tn_sparse(ohw, ck2, cout_g, go_g, ohw, w_g, ck2, drow, ck2,
                           /*accumulate=*/false, /*parallel=*/true,
                           bm->mask());
    } else {
      gemm::gemm_tn(ohw, ck2, cout_g, go_g, ohw, w_g, ck2, drow, ck2,
                    /*accumulate=*/false, /*parallel=*/true);
    }
    float* gi = gi_base + (n * C + g * cin_g) * H * W;
    std::fill(gi, gi + cin_g * H * W, 0.0f);
    gemm::row2im_add(ps, drow, gi);
  };

  const std::size_t dw_tasks = G * row_tiles * col_tiles;
  const std::size_t dx_tasks = input_grad ? N * G : 0;
  util::parallel_for(0, dw_tasks + dx_tasks, [&](std::size_t t) {
    if (t < dw_tasks) {
      dw_tile(t);
    } else {
      dx_task(t - dw_tasks);
    }
  });
  return grad_in;
}

std::vector<Param*> Conv2D::params() {
  std::vector<Param*> p{&weight_};
  if (cfg_.bias) p.push_back(&bias_);
  return p;
}

}  // namespace ls::nn
