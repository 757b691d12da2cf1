// Microbenchmark: the conv and FC layers' GEMM kernels (nn/gemm.hpp) on
// every conv layer of the model-zoo experiment specs (LeNet / ConvNet /
// CaffeNet). Prints tables; `--json PATH` additionally emits
// machine-readable results for the tier-1 wrapper.
//
// Per layer: forward and backward wall clock at batch 8, plus a *direct*
// single-thread GEMM at the layer's forward GEMM shape (with GFLOP/s), for
// the kernels' portable clone (`mm_scalar_ms`) and the cpuid-selected
// clone the program runs (`mm_default_ms`, its ISA stamped as `gemm_isa`).
// The direct numbers are what the tier-1 gate reads — layer forward time
// includes the im2col packing, which dilutes the kernel speedup. Schema 3
// dropped schema 2's naive loop-nest and simd-backend columns.
//
// A second section measures the block-sparse fast path: dense GEMM vs the
// armed sparse path on the same pruned weights at 0/25/50/75/90 % block
// sparsity (`--sparse-json PATH` dumps it, tier-1 writes BENCH_sparse.json).
// The 0 % rows double as the sparse-dispatch overhead probe.
//
// A third table times the training step's kernels at the trainer's batch
// (32) on ConvNet-expt (json key "train_batch_bwd"): every conv backward,
// conv1's input-gradient-free backward (what Network::backward runs on the
// first layer), and relu1/pool1 forward and backward. Conv rows time the
// portable clone (`gemm_ms`) and the cpuid-selected clone (`default_ms`).
//
// A fourth table (json key "packers", new in schema 4) times the conv
// packers single-thread, per sample and group, on every ConvNet-expt and
// CaffeNet-expt conv: im2col (forward), im2row into 16-lane strips (the
// weight gradient's B operand) and row2im_add (the data-gradient scatter).
// Each moves the layer's patch x pixels matrix; floats/ns is its size over
// the time.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/block_sparsity.hpp"
#include "nn/conv2d.hpp"
#include "nn/fc.hpp"
#include "nn/gemm.hpp"
#include "nn/layer_spec.hpp"
#include "nn/model_zoo.hpp"
#include "nn/pool.hpp"
#include "tensor/tensor.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using ls::nn::Conv2D;
using ls::nn::Conv2DConfig;
using ls::tensor::Shape;
using ls::tensor::Tensor;

struct BenchCase {
  std::string net;
  std::string layer;
  Conv2DConfig cfg;
  Shape in_shape;
};

struct BenchResult {
  BenchCase c;
  double gemm_fwd_ms = 0.0, gemm_bwd_ms = 0.0;
  // Direct forward-GEMM shape (per group, per sample) and single-thread
  // kernel timings at it.
  std::size_t mm_m = 0, mm_n = 0, mm_k = 0;
  double mm_scalar_ms = 0.0, mm_default_ms = 0.0;
  double mm_flops() const {
    return 2.0 * static_cast<double>(mm_m) * static_cast<double>(mm_n) *
           static_cast<double>(mm_k);
  }
  double mm_scalar_gflops() const { return mm_flops() / mm_scalar_ms / 1e6; }
  double mm_default_gflops() const {
    return mm_flops() / mm_default_ms / 1e6;
  }
  double mm_default_speedup() const { return mm_scalar_ms / mm_default_ms; }
};

std::vector<BenchCase> conv_cases(
    const std::vector<ls::nn::NetSpec>& specs, std::size_t batch) {
  std::vector<BenchCase> cases;
  for (const ls::nn::NetSpec& spec : specs) {
    for (const ls::nn::LayerAnalysis& a : ls::nn::analyze(spec)) {
      if (a.spec.kind != ls::nn::LayerKind::kConv) continue;
      BenchCase c;
      c.net = spec.name;
      c.layer = a.spec.name;
      c.cfg.in_channels = a.in.c;
      c.cfg.out_channels = a.spec.out_channels;
      c.cfg.kernel = a.spec.kernel;
      c.cfg.stride = a.spec.stride;
      c.cfg.pad = a.spec.pad;
      c.cfg.groups = a.spec.groups;
      c.in_shape = Shape{batch, a.in.c, a.in.h, a.in.w};
      cases.push_back(c);
    }
  }
  return cases;
}

/// Wall-clock milliseconds per call of `fn`, repeated so each measurement
/// covers at least ~40 ms, best of three such windows — a single window on
/// a shared box can absorb a scheduler stall, which showed up as spurious
/// sub-threshold speedups in the tier-1 overhead gates.
template <typename Fn>
double time_ms(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm up caches and the thread pool
  std::size_t reps = 1;
  double ms = 0.0;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    ms = std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    if (ms >= 40.0 || reps >= 1024) break;
    reps *= 4;
  }
  double best = ms;
  for (int window = 0; window < 2; ++window) {
    const auto t0 = clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    const double again =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    best = std::min(best, again);
  }
  return best / static_cast<double>(reps);
}

/// time_ms with the default kernels pinned to their portable clone.
template <typename Fn>
double time_portable_ms(Fn&& fn) {
  ls::nn::gemm::testing::use_portable_kernels(true);
  const double ms = time_ms(fn);
  ls::nn::gemm::testing::use_portable_kernels(false);
  return ms;
}

BenchResult run_case(const BenchCase& c) {
  BenchResult r;
  r.c = c;
  ls::util::Rng rng_w(11), rng_in(5);
  Conv2D gemm("g", c.cfg, rng_w);
  const Tensor in = Tensor::uniform(c.in_shape, -1.f, 1.f, rng_in);

  r.gemm_fwd_ms = time_ms([&] { gemm.forward(in, true); });
  const Tensor grad = Tensor::uniform(gemm.output_shape(c.in_shape), -1.f,
                                      1.f, rng_in);
  gemm.forward(in, true);
  r.gemm_bwd_ms = time_ms([&] { gemm.backward(grad); });

  // Direct forward-GEMM shape: weights (Cout/g x Cin/g*K*K) times the
  // im2col matrix (rows x OH*OW), timed single-thread (parallel=false) so
  // the gate measures the kernel, not the pool.
  const Shape out_shape = gemm.output_shape(c.in_shape);
  r.mm_m = c.cfg.out_channels / c.cfg.groups;
  r.mm_n = out_shape[2] * out_shape[3];
  r.mm_k = (c.cfg.in_channels / c.cfg.groups) * c.cfg.kernel * c.cfg.kernel;
  std::vector<float> A(r.mm_m * r.mm_k), B(r.mm_k * r.mm_n),
      C(r.mm_m * r.mm_n);
  ls::util::Rng rng_mm(17);
  for (float& v : A) v = static_cast<float>(rng_mm.uniform() - 0.5);
  for (float& v : B) v = static_cast<float>(rng_mm.uniform() - 0.5);
  const auto default_mm = [&] {
    ls::nn::gemm::gemm_nn(r.mm_m, r.mm_n, r.mm_k, A.data(), r.mm_k, B.data(),
                          r.mm_n, C.data(), r.mm_n, false, false);
  };
  r.mm_scalar_ms = time_portable_ms(default_mm);
  r.mm_default_ms = time_ms(default_mm);
  return r;
}

// Training-step kernels at the trainer's batch (TrainConfig::batch_size) on
// the ConvNet-expt layers: the shapes the TABLE IV training run spends its
// time in.
constexpr std::size_t kTrainBatch = 32;

struct TrainBwdResult {
  std::string net, layer, pass;
  /// The kernels' portable and cpuid-selected clones; 0 when not measured.
  double gemm_ms = 0.0, default_ms = 0.0;
};

/// Conv backward per kernel; `params_only` times backward_params().
TrainBwdResult run_train_bwd(const BenchCase& c, bool params_only) {
  TrainBwdResult r{c.net, c.layer, params_only ? "bwd (no dX)" : "bwd"};
  ls::util::Rng rng_in(5);
  const Tensor in = Tensor::uniform(c.in_shape, -1.f, 1.f, rng_in);
  for (double* ms : {&r.gemm_ms, &r.default_ms}) {
    ls::util::Rng rng_w(11), rng_go(3);
    Conv2D conv("t", c.cfg, rng_w);
    const Tensor grad = Tensor::uniform(conv.output_shape(c.in_shape), -1.f,
                                        1.f, rng_go);
    conv.forward(in, true);
    const auto step = [&] {
      if (params_only) {
        conv.backward_params(grad);
      } else {
        conv.backward(grad);
      }
    };
    *ms = ms == &r.gemm_ms ? time_portable_ms(step) : time_ms(step);
  }
  return r;
}

/// Appends forward and backward rows for a backend-free layer (ReLU,
/// pooling) on `in`; the times go in the gemm column.
void add_train_layer(std::vector<TrainBwdResult>& rs, ls::nn::Layer& layer,
                     const Tensor& in) {
  ls::util::Rng rng_go(3);
  const Tensor grad =
      Tensor::uniform(layer.output_shape(in.shape()), -1.f, 1.f, rng_go);
  TrainBwdResult fwd{"ConvNet", layer.name(), "fwd"};
  TrainBwdResult bwd{"ConvNet", layer.name(), "bwd"};
  fwd.gemm_ms = time_ms([&] { layer.forward(in, true); });
  bwd.gemm_ms = time_ms([&] { layer.backward(grad); });
  rs.push_back(fwd);
  rs.push_back(bwd);
}

std::vector<TrainBwdResult> run_train_step_kernels() {
  const std::vector<BenchCase> convs =
      conv_cases({ls::nn::convnet_expt_spec()}, kTrainBatch);
  std::vector<TrainBwdResult> rs;
  for (const BenchCase& c : convs) {
    rs.push_back(run_train_bwd(c, /*params_only=*/false));
  }
  rs.push_back(run_train_bwd(convs.front(), /*params_only=*/true));
  // relu1 and pool1 both see conv1's output.
  ls::util::Rng rng_act(7);
  const Tensor act = Tensor::uniform(
      Conv2D("shape", convs.front().cfg, rng_act)
          .output_shape(convs.front().in_shape),
      -1.f, 1.f, rng_act);
  ls::nn::ReLU relu("relu1");
  ls::nn::Pool2D pool("pool1", ls::nn::PoolKind::kMax, 2, 2);
  add_train_layer(rs, relu, act);
  add_train_layer(rs, pool, act);
  return rs;
}

struct PackerResult {
  std::string net, layer, packer;
  double us = 0.0;
  double floats = 0.0;  ///< size of the packed matrix
  double floats_per_ns() const { return floats / us / 1e3; }
};

std::vector<PackerResult> run_packers() {
  std::vector<PackerResult> rs;
  for (const BenchCase& c : conv_cases(
           {ls::nn::convnet_expt_spec(), ls::nn::caffenet_expt_spec()}, 1)) {
    ls::nn::gemm::PackShape s;
    s.channels = c.cfg.in_channels / c.cfg.groups;
    s.H = c.in_shape[2];
    s.W = c.in_shape[3];
    s.K = c.cfg.kernel;
    s.stride = c.cfg.stride;
    s.pad = c.cfg.pad;
    s.OH = (s.H + 2 * s.pad - s.K) / s.stride + 1;
    s.OW = (s.W + 2 * s.pad - s.K) / s.stride + 1;
    ls::util::Rng rng(5);
    const Tensor in =
        Tensor::uniform(Shape{s.channels, s.H, s.W}, -1.f, 1.f, rng);
    const ls::nn::gemm::Im2rowCols im2row(s, 0, s.patch());
    std::vector<float> col(s.patch() * s.cols()), strips(im2row.size());
    std::vector<float> grad(in.numel());
    const double floats = static_cast<double>(col.size());
    const auto add = [&](const char* packer, double ms) {
      rs.push_back({c.net, c.layer, packer, ms * 1e3, floats});
    };
    add("im2col", time_ms([&] {
          ls::nn::gemm::im2col(s, in.data(), col.data());
        }));
    add("im2row", time_ms([&] { im2row.pack(in.data(), strips.data()); }));
    add("row2im_add", time_ms([&] {
          ls::nn::gemm::row2im_add(s, col.data(), grad.data());
        }));
  }
  return rs;
}

void write_json(const std::string& path, const std::vector<BenchResult>& rs,
                const std::vector<TrainBwdResult>& train_rs,
                const std::vector<PackerResult>& packer_rs) {
  ls::util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("kernel_micro");
  w.key("schema").value(static_cast<std::uint64_t>(4));
  w.key("threads").value(static_cast<std::uint64_t>(ls::util::num_threads()));
  w.key("gemm_isa").value(ls::nn::gemm::kernel_isa());
  w.key("cases").begin_array();
  for (const BenchResult& r : rs) {
    w.begin_object();
    w.key("net").value(r.c.net);
    w.key("layer").value(r.c.layer);
    w.key("gemm_fwd_ms").value(r.gemm_fwd_ms);
    w.key("gemm_bwd_ms").value(r.gemm_bwd_ms);
    w.key("mm_m").value(static_cast<std::uint64_t>(r.mm_m));
    w.key("mm_n").value(static_cast<std::uint64_t>(r.mm_n));
    w.key("mm_k").value(static_cast<std::uint64_t>(r.mm_k));
    w.key("mm_scalar_ms").value(r.mm_scalar_ms);
    w.key("mm_default_ms").value(r.mm_default_ms);
    w.key("mm_scalar_gflops").value(r.mm_scalar_gflops());
    w.key("mm_default_gflops").value(r.mm_default_gflops());
    w.key("mm_default_speedup").value(r.mm_default_speedup());
    w.end_object();
  }
  w.end_array();
  w.key("train_batch_bwd").begin_object();
  w.key("batch").value(static_cast<std::uint64_t>(kTrainBatch));
  w.key("cases").begin_array();
  for (const TrainBwdResult& r : train_rs) {
    w.begin_object();
    w.key("net").value(r.net);
    w.key("layer").value(r.layer);
    w.key("pass").value(r.pass);
    w.key("gemm_ms").value(r.gemm_ms);
    w.key("default_ms").value(r.default_ms);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("packers").begin_array();
  for (const PackerResult& r : packer_rs) {
    w.begin_object();
    w.key("net").value(r.net);
    w.key("layer").value(r.layer);
    w.key("packer").value(r.packer);
    w.key("us").value(r.us);
    w.key("floats_per_ns").value(r.floats_per_ns());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.write_file(path);
}

// ---------------------------------------------------------------------------
// Block-sparse fast path: dense GEMM vs sparse-armed GEMM on pruned weights.

struct SparseBenchResult {
  std::string kind;  ///< "conv" or "fc"
  int sparsity_pct = 0;
  double dense_fwd_ms = 0.0, sparse_fwd_ms = 0.0;
  double speedup() const { return dense_fwd_ms / sparse_fwd_ms; }
};

/// Zeroes `frac` of the P x P weight blocks. Kill order is producer-panel-
/// major (all consumers of panel 0, then panel 1, ...) so that at high
/// sparsity whole input-unit panels go dead and the im2col channel skip
/// engages — the structure group-Lasso training converges to.
void kill_block_fraction(ls::nn::Param& w, std::size_t parts,
                         std::size_t in_units, std::size_t out_units,
                         std::size_t elems_per_in_unit, double frac) {
  const auto kb = ls::nn::balanced_bounds(in_units, parts);
  const auto ob = ls::nn::balanced_bounds(out_units, parts);
  const std::size_t target =
      static_cast<std::size_t>(frac * static_cast<double>(parts * parts) + 0.5);
  const std::size_t row_elems = w.value.numel() / out_units;
  float* data = w.value.data();
  std::size_t killed = 0;
  for (std::size_t p = 0; p < parts && killed < target; ++p) {
    for (std::size_t c = 0; c < parts && killed < target; ++c, ++killed) {
      for (std::size_t o = ob[c]; o < ob[c + 1]; ++o) {
        float* row = data + o * row_elems;
        std::fill(row + kb[p] * elems_per_in_unit,
                  row + kb[p + 1] * elems_per_in_unit, 0.0f);
      }
    }
  }
  w.bump();
}

SparseBenchResult run_sparse_conv(int pct, std::size_t parts) {
  SparseBenchResult r;
  r.kind = "conv";
  r.sparsity_pct = pct;
  Conv2DConfig cfg;
  cfg.in_channels = 64;
  cfg.out_channels = 64;
  cfg.kernel = 3;
  cfg.pad = 1;
  ls::util::Rng rng_w(11), rng_w2(11), rng_in(5);
  Conv2D dense("d", cfg, rng_w);
  Conv2D sparse("s", cfg, rng_w2);
  sparse.set_sparsity_partition(parts);
  const double frac = pct / 100.0;
  // Same pruned weights on both layers: the dense baseline multiplies the
  // zeros, the sparse path skips them.
  kill_block_fraction(dense.weight(), parts, cfg.in_channels,
                      cfg.out_channels, cfg.kernel * cfg.kernel, frac);
  kill_block_fraction(sparse.weight(), parts, cfg.in_channels,
                      cfg.out_channels, cfg.kernel * cfg.kernel, frac);
  const Tensor in =
      Tensor::uniform(Shape{8, cfg.in_channels, 32, 32}, -1.f, 1.f, rng_in);
  r.dense_fwd_ms = time_ms([&] { dense.forward(in, false); });
  r.sparse_fwd_ms = time_ms([&] { sparse.forward(in, false); });
  return r;
}

SparseBenchResult run_sparse_fc(int pct, std::size_t parts) {
  SparseBenchResult r;
  r.kind = "fc";
  r.sparsity_pct = pct;
  const std::size_t in_f = 512, out_f = 512;
  ls::util::Rng rng_w(11), rng_w2(11), rng_in(5);
  ls::nn::FullyConnected dense("d", in_f, out_f, rng_w);
  ls::nn::FullyConnected sparse("s", in_f, out_f, rng_w2);
  sparse.set_sparsity_partition(parts, /*in_units=*/in_f);
  const double frac = pct / 100.0;
  kill_block_fraction(dense.weight(), parts, in_f, out_f, 1, frac);
  kill_block_fraction(sparse.weight(), parts, in_f, out_f, 1, frac);
  const Tensor in = Tensor::uniform(Shape{64, in_f, 1, 1}, -1.f, 1.f, rng_in);
  r.dense_fwd_ms = time_ms([&] { dense.forward(in, false); });
  r.sparse_fwd_ms = time_ms([&] { sparse.forward(in, false); });
  return r;
}

void write_sparse_json(const std::string& path,
                       const std::vector<SparseBenchResult>& rs) {
  ls::util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("kernel_sparse");
  w.key("schema").value(static_cast<std::uint64_t>(4));
  w.key("threads").value(static_cast<std::uint64_t>(ls::util::num_threads()));
  w.key("cases").begin_array();
  for (const SparseBenchResult& r : rs) {
    w.begin_object();
    w.key("kind").value(r.kind);
    w.key("sparsity_pct").value(static_cast<std::uint64_t>(r.sparsity_pct));
    w.key("dense_fwd_ms").value(r.dense_fwd_ms);
    w.key("sparse_fwd_ms").value(r.sparse_fwd_ms);
    w.key("speedup").value(r.speedup());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.write_file(path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string sparse_json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sparse-json") == 0 && i + 1 < argc) {
      sparse_json_path = argv[++i];
    }
  }

  std::printf(
      "Learn-to-Scale bench: conv kernel micro (im2col+GEMM, %s clone, %zu "
      "threads)\n\n",
      ls::nn::gemm::kernel_isa(), ls::util::num_threads());

  std::vector<BenchResult> results;
  ls::util::Table table(
      std::string("conv fwd/bwd wall-clock per call at batch 8, and direct "
                  "1-thread GEMM at the fwd shape: the ") +
      ls::nn::gemm::kernel_isa() + " clone vs the portable one");
  table.set_header({"net", "layer", "fwd", "bwd", "MxNxK", "portable GF/s",
                    "GF/s", "speedup"});
  for (const BenchCase& c :
       conv_cases({ls::nn::lenet_expt_spec(), ls::nn::convnet_expt_spec(),
                   ls::nn::caffenet_expt_spec()},
                  8)) {
    const BenchResult r = run_case(c);
    table.add_row({r.c.net, r.c.layer,
                   ls::util::fmt_double(r.gemm_fwd_ms, 2) + " ms",
                   ls::util::fmt_double(r.gemm_bwd_ms, 2) + " ms",
                   std::to_string(r.mm_m) + "x" + std::to_string(r.mm_n) +
                       "x" + std::to_string(r.mm_k),
                   ls::util::fmt_double(r.mm_scalar_gflops(), 1),
                   ls::util::fmt_double(r.mm_default_gflops(), 1),
                   ls::util::fmt_speedup(r.mm_default_speedup(), 2)});
    results.push_back(r);
  }
  table.print();

  const std::vector<TrainBwdResult> train_results = run_train_step_kernels();
  ls::util::Table train_table(
      "training-step kernels per call at the trainer's batch " +
      std::to_string(kTrainBatch) +
      " (gemm: portable clone, default: " + ls::nn::gemm::kernel_isa() +
      " clone; relu/pool have one kernel: gemm column)");
  train_table.set_header({"net", "layer", "pass", "gemm", "default"});
  const auto ms_cell = [](double ms) {
    return ms > 0.0 ? ls::util::fmt_double(ms, 2) + " ms" : std::string("-");
  };
  for (const TrainBwdResult& r : train_results) {
    train_table.add_row({r.net, r.layer, r.pass, ms_cell(r.gemm_ms),
                         ms_cell(r.default_ms)});
  }
  std::printf("\n");
  train_table.print();

  const std::vector<PackerResult> packer_results = run_packers();
  ls::util::Table packer_table(
      "conv packers per sample, single thread (floats/ns: packed matrix "
      "size over time)");
  packer_table.set_header({"net", "layer", "packer", "time", "floats/ns"});
  for (const PackerResult& r : packer_results) {
    packer_table.add_row({r.net, r.layer, r.packer,
                          ls::util::fmt_double(r.us, 1) + " us",
                          ls::util::fmt_double(r.floats_per_ns(), 2)});
  }
  std::printf("\n");
  packer_table.print();

  if (!json_path.empty()) {
    write_json(json_path, results, train_results, packer_results);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  // --- Block-sparse fast path ------------------------------------------
  const std::size_t parts = 8;
  std::vector<SparseBenchResult> sparse_results;
  ls::util::Table sparse_table(
      "block-sparse GEMM forward vs dense, P=8 partitions");
  sparse_table.set_header(
      {"kind", "sparsity", "dense fwd", "sparse fwd", "speedup"});
  for (const int pct : {0, 25, 50, 75, 90}) {
    for (const bool is_fc : {false, true}) {
      const SparseBenchResult r =
          is_fc ? run_sparse_fc(pct, parts) : run_sparse_conv(pct, parts);
      sparse_table.add_row({r.kind, std::to_string(r.sparsity_pct) + "%",
                            ls::util::fmt_double(r.dense_fwd_ms, 2) + " ms",
                            ls::util::fmt_double(r.sparse_fwd_ms, 2) + " ms",
                            ls::util::fmt_speedup(r.speedup(), 2)});
      sparse_results.push_back(r);
    }
  }
  std::printf("\n");
  sparse_table.print();

  if (!sparse_json_path.empty()) {
    write_sparse_json(sparse_json_path, sparse_results);
    std::printf("\nwrote %s\n", sparse_json_path.c_str());
  }
  return 0;
}
