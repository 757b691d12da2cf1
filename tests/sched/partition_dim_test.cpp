// Golden equivalence suite for the per-layer partition dimensions
// (sched::PartitionDim) and the placement permutation — the tuner's search
// space. Each dimension's lowering is pinned against an independent
// reference computation of what that split must produce (work shares, halo
// bytes, reduce-scatter traffic), and the kernel-wise fallback is pinned
// bit-exact against the historical path (`ctest -L sched`).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/partition.hpp"
#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/topology.hpp"
#include "sched/builders.hpp"
#include "sched/cost_model.hpp"
#include "sched/schedule.hpp"
#include "sim/system.hpp"

namespace ls {
namespace {

constexpr std::size_t kCores = 16;
constexpr std::size_t kBpv = 2;

core::InferenceTraffic convnet_traffic() {
  return core::traffic_dense(nn::convnet_spec(),
                             noc::MeshTopology::for_cores(kCores), kBpv);
}

sched::Schedule lower_convnet(std::vector<sched::PartitionDim> dims,
                              std::vector<std::size_t> placement = {}) {
  sched::BuildOptions opts;
  opts.cores = kCores;
  opts.bytes_per_value = kBpv;
  opts.layer_dims = std::move(dims);
  opts.placement = std::move(placement);
  return sched::lower(nn::convnet_spec(), convnet_traffic(), opts, nullptr,
                      sched::Strategy::kTraditional);
}

const sched::Event& compute_event(const sched::Schedule& s,
                                  std::size_t layer_index) {
  std::size_t seen = 0;
  for (const sched::Event& e : s.events) {
    if (e.kind != sched::EventKind::kCompute) continue;
    if (seen == layer_index) return e;
    ++seen;
  }
  ADD_FAILURE() << "no compute event " << layer_index;
  static sched::Event none;
  return none;
}

std::uint64_t total_macs(const sched::Event& e) {
  std::uint64_t total = 0;
  for (const auto& w : e.per_core_work) total += w.macs;
  return total;
}

// Compute-layer analyses of ConvNet, in order: conv1..conv3, ip1, ip2.
std::vector<nn::LayerAnalysis> convnet_computes() {
  std::vector<nn::LayerAnalysis> computes;
  for (const nn::LayerAnalysis& a : nn::analyze(nn::convnet_spec())) {
    if (a.is_compute()) computes.push_back(a);
  }
  return computes;
}

// --- kernel-wise fallback: bit-exact with the historical path --------------

TEST(PartitionDim, ExplicitKernelDimsAndIdentityPlacementAreBitExact) {
  const sched::Schedule legacy = lower_convnet({});
  std::vector<std::size_t> identity(kCores);
  std::iota(identity.begin(), identity.end(), 0);
  const sched::Schedule tuned_default = lower_convnet(
      std::vector<sched::PartitionDim>(5, sched::PartitionDim::kKernel),
      identity);
  // Same document byte for byte: events, work arrays, messages, bytes.
  EXPECT_EQ(sched::to_json(legacy), sched::to_json(tuned_default));

  // And the executed result equals the pre-IR reference loop exactly.
  sim::SystemConfig cfg;
  cfg.cores = kCores;
  cfg.noc_result_cache = false;
  const sim::CmpSystem system(cfg);
  const nn::NetSpec spec = nn::convnet_spec();
  const auto traffic = convnet_traffic();
  EXPECT_EQ(system.execute(tuned_default),
            sim::testing::reference_run_inference(cfg, spec, traffic));
}

// --- placement permutation: endpoints move, numbers do not -----------------

TEST(PartitionDim, PlacementPermutationRemapsEndpointsOnly) {
  const sched::Schedule base = lower_convnet({});
  std::vector<std::size_t> place(kCores);
  for (std::size_t i = 0; i < kCores; ++i) place[i] = kCores - 1 - i;
  const sched::Schedule permuted = lower_convnet({}, place);
  ASSERT_EQ(permuted.events.size(), base.events.size());
  EXPECT_EQ(permuted.placement, place);

  for (std::size_t i = 0; i < base.events.size(); ++i) {
    const sched::Event& b = base.events[i];
    const sched::Event& p = permuted.events[i];
    if (b.kind == sched::EventKind::kComm) {
      // Same messages in the same order, endpoints mapped through place.
      ASSERT_EQ(p.messages.size(), b.messages.size());
      EXPECT_EQ(p.traffic_bytes, b.traffic_bytes);
      for (std::size_t m = 0; m < b.messages.size(); ++m) {
        EXPECT_EQ(p.messages[m].src, place[b.messages[m].src]);
        EXPECT_EQ(p.messages[m].dst, place[b.messages[m].dst]);
        EXPECT_EQ(p.messages[m].bytes, b.messages[m].bytes);
      }
    } else {
      // Partition j's work lands on physical core place[j], unchanged.
      for (std::size_t j = 0; j < kCores; ++j) {
        EXPECT_EQ(p.per_core_work[place[j]], b.per_core_work[j]);
      }
    }
  }

  // Compute cost is a max over cores — placement-invariant.
  sim::SystemConfig cfg;
  cfg.cores = kCores;
  cfg.noc_result_cache = false;
  const sim::CmpSystem system(cfg);
  EXPECT_EQ(system.execute(permuted).compute_cycles,
            system.execute(base).compute_cycles);
}

// --- height / width: spatial slices with halo inputs -----------------------

TEST(PartitionDim, HeightSplitMatchesReferenceSlices) {
  std::vector<sched::PartitionDim> dims(5, sched::PartitionDim::kKernel);
  dims[1] = sched::PartitionDim::kHeight;
  const sched::Schedule s = lower_convnet(dims);
  const nn::LayerAnalysis conv2 = convnet_computes()[1];
  const sched::Event& e = compute_event(s, 1);
  EXPECT_EQ(e.partition_dim, sched::PartitionDim::kHeight);

  const auto rows = core::balanced_ranges(conv2.out.h, kCores);
  const std::size_t in_bytes = conv2.in.numel() * kBpv;
  for (std::size_t c = 0; c < kCores; ++c) {
    const auto r = rows[c];
    if (r.count() == 0) {
      EXPECT_EQ(e.per_core_work[c].macs, 0u);
      continue;
    }
    // Reference: MACs scale with the row share, weights are replicated in
    // full, inputs are the halo-extended row slice.
    const double share = double(r.count()) / double(conv2.out.h);
    EXPECT_EQ(e.per_core_work[c].macs,
              std::uint64_t(double(conv2.macs) * share + 0.5));
    EXPECT_EQ(e.per_core_work[c].weight_bytes, conv2.weight_count * kBpv);
    const std::size_t s_ = conv2.spec.stride;
    const std::size_t k = conv2.spec.kernel;
    const std::size_t pad = conv2.spec.pad;
    const std::size_t lo = r.begin * s_ > pad ? r.begin * s_ - pad : 0;
    const std::size_t hi =
        std::min(conv2.in.h, (r.end - 1) * s_ + k - pad);
    EXPECT_EQ(e.per_core_work[c].input_bytes,
              in_bytes / conv2.in.h * (hi - lo));
  }
  // Rounding each per-core share to nearest keeps the total within P/2.
  EXPECT_NEAR(double(total_macs(e)), double(conv2.macs), kCores / 2.0);

  // The gather into a height-split conv is halo-sized: strictly less
  // traffic than the kernel-wise full-input gather.
  const sched::Schedule kernel_wise = lower_convnet({});
  EXPECT_LT(s.events[1].traffic_bytes, kernel_wise.events[1].traffic_bytes);
  EXPECT_GT(s.events[1].traffic_bytes, 0u);
}

TEST(PartitionDim, WidthSplitConservesMacs) {
  std::vector<sched::PartitionDim> dims(5, sched::PartitionDim::kKernel);
  dims[2] = sched::PartitionDim::kWidth;
  const sched::Schedule s = lower_convnet(dims);
  const nn::LayerAnalysis conv3 = convnet_computes()[2];
  const sched::Event& e = compute_event(s, 2);
  EXPECT_EQ(e.partition_dim, sched::PartitionDim::kWidth);
  EXPECT_NEAR(double(total_macs(e)), double(conv3.macs), kCores / 2.0);
  for (const auto& w : e.per_core_work) {
    if (w.macs == 0) continue;
    EXPECT_EQ(w.weight_bytes, conv3.weight_count * kBpv);
    EXPECT_LT(w.input_bytes, conv3.in.numel() * kBpv);  // a slice, not all
  }
}

// --- batch: partition 0 executes the whole layer ---------------------------

TEST(PartitionDim, BatchPutsAllWorkOnPartitionZero) {
  std::vector<sched::PartitionDim> dims(5, sched::PartitionDim::kKernel);
  dims[3] = sched::PartitionDim::kBatch;
  const sched::Schedule s = lower_convnet(dims);
  const nn::LayerAnalysis ip1 = convnet_computes()[3];
  const sched::Event& e = compute_event(s, 3);
  EXPECT_EQ(e.per_core_work[0].macs, ip1.macs);
  EXPECT_EQ(e.per_core_work[0].weight_bytes, ip1.weight_count * kBpv);
  for (std::size_t c = 1; c < kCores; ++c) {
    EXPECT_EQ(e.per_core_work[c].macs, 0u);
  }
}

// --- channel: full-output partial sums + reduce-scatter on the next burst --

TEST(PartitionDim, ChannelSplitFullOutputsAndReduceScatter) {
  std::vector<sched::PartitionDim> dims(5, sched::PartitionDim::kKernel);
  dims[3] = sched::PartitionDim::kChannel;  // ip1: 1024 -> 64
  const sched::Schedule s = lower_convnet(dims);
  const auto computes = convnet_computes();
  const nn::LayerAnalysis& ip1 = computes[3];
  const sched::Event& e = compute_event(s, 3);
  EXPECT_EQ(e.partition_dim, sched::PartitionDim::kChannel);
  EXPECT_NEAR(double(total_macs(e)), double(ip1.macs), kCores / 2.0);
  const auto in_ranges = core::balanced_ranges(ip1.in.c, kCores);
  const std::size_t in_bytes = ip1.in.numel() * kBpv;
  for (std::size_t c = 0; c < kCores; ++c) {
    if (in_ranges[c].count() == 0) continue;
    // Partial sums cover the whole output volume on every active core.
    EXPECT_EQ(e.per_core_work[c].output_bytes, ip1.out.numel() * kBpv);
    EXPECT_EQ(e.per_core_work[c].input_bytes,
              in_bytes / ip1.in.c * in_ranges[c].count());
  }

  // The transition into ip2 now carries ip1's reduce-scatter on top of the
  // kernel-wise gather: every partition p ships its partials of q's
  // output slice, sized by q's kernel range over ip1's 64 outputs.
  const auto kernel_ranges = core::balanced_ranges(64, kCores);
  std::size_t reduce_bytes = 0;
  for (std::size_t p = 0; p < kCores; ++p) {
    for (std::size_t q = 0; q < kCores; ++q) {
      if (p != q) reduce_bytes += kernel_ranges[q].count() * kBpv;
    }
  }
  const sched::Schedule kernel_wise = lower_convnet({});
  std::size_t burst_tuned = 0, burst_base = 0;
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (s.events[i].kind == sched::EventKind::kComm &&
        s.events[i].layer_name == "ip2") {
      burst_tuned = s.events[i].traffic_bytes;
    }
    if (kernel_wise.events[i].kind == sched::EventKind::kComm &&
        kernel_wise.events[i].layer_name == "ip2") {
      burst_base = kernel_wise.events[i].traffic_bytes;
    }
  }
  ASSERT_GT(burst_base, 0u);
  EXPECT_EQ(burst_tuned, burst_base + reduce_bytes);
}

// --- every dim executes and the analytic compute half is exact -------------

TEST(PartitionDim, ExecutedComputeMatchesAnalyticEstimateExactly) {
  std::vector<sched::PartitionDim> dims = {
      sched::PartitionDim::kHeight, sched::PartitionDim::kWidth,
      sched::PartitionDim::kChannel, sched::PartitionDim::kBatch,
      sched::PartitionDim::kKernel};
  std::vector<std::size_t> place(kCores);
  for (std::size_t i = 0; i < kCores; ++i) place[i] = (i + 5) % kCores;
  const sched::Schedule s = lower_convnet(dims, place);

  sim::SystemConfig cfg;
  cfg.cores = kCores;
  cfg.noc_result_cache = false;
  const sim::CmpSystem system(cfg);
  const sim::InferenceResult r = system.execute(s);
  EXPECT_GT(r.total_cycles, 0u);

  sched::CostModelConfig cost;
  cost.accel = cfg.accel;
  cost.chip_dram_bytes_per_cycle = cfg.chip_dram_bytes_per_cycle;
  cost.noc = cfg.noc;
  cost.noc_clock_divider = cfg.noc_clock_divider;
  const sched::CycleEstimate est = sched::estimate_cycles(s, cost);
  // The scorer's compute half is the executor's own partition_cost — it
  // must agree cycle for cycle; only comm is approximated.
  EXPECT_EQ(est.compute_cycles, r.compute_cycles);
}

// --- compatibility matrix --------------------------------------------------

TEST(PartitionDim, DimCompatibleRules) {
  const nn::NetSpec spec = nn::convnet_spec();  // conv1..3, ip1, ip2
  const core::InferenceTraffic traffic = convnet_traffic();
  const sched::LoweringContext ctx(spec, traffic, kCores, kBpv);
  using sched::PartitionDim;
  for (std::size_t li = 0; li < 5; ++li) {
    EXPECT_TRUE(ctx.compatible(li, PartitionDim::kKernel));
    EXPECT_TRUE(ctx.compatible(li, PartitionDim::kBatch));
  }
  // Spatial dims: convs only.
  EXPECT_TRUE(ctx.compatible(0, PartitionDim::kHeight));
  EXPECT_TRUE(ctx.compatible(2, PartitionDim::kWidth));
  EXPECT_FALSE(ctx.compatible(3, PartitionDim::kHeight));
  EXPECT_FALSE(ctx.compatible(4, PartitionDim::kWidth));
  // Channel: fine mid-net, never on the last compute layer.
  EXPECT_TRUE(ctx.compatible(1, PartitionDim::kChannel));
  EXPECT_TRUE(ctx.compatible(3, PartitionDim::kChannel));
  EXPECT_FALSE(ctx.compatible(4, PartitionDim::kChannel));
  // Out-of-range layer index is simply incompatible.
  EXPECT_FALSE(ctx.compatible(99, PartitionDim::kKernel));

  // On two chips conv2 ends stage 0: no channel split there, while the
  // same split mid-stage stays legal.
  const sched::LoweringContext two(spec, traffic, kCores, kBpv, 2);
  ASSERT_EQ(two.stages(), (std::vector<std::size_t>{0, 0, 1, 1, 1}));
  EXPECT_FALSE(two.compatible(1, PartitionDim::kChannel));
  EXPECT_TRUE(two.compatible(0, PartitionDim::kChannel));
  EXPECT_TRUE(two.compatible(2, PartitionDim::kChannel));
  EXPECT_TRUE(two.compatible(1, PartitionDim::kHeight));
}

// --- lowering rejects malformed knobs in every build -------------------------

// Lowering throws std::invalid_argument whose message contains `what`.
template <typename F>
void expect_rejected(F&& lower, const std::string& what) {
  try {
    lower();
    ADD_FAILURE() << "expected std::invalid_argument containing '" << what
                  << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

std::vector<std::size_t> identity_placement() {
  std::vector<std::size_t> p(kCores);
  std::iota(p.begin(), p.end(), std::size_t{0});
  return p;
}

TEST(LoweringRejects, NonBijectivePlacement) {
  std::vector<std::size_t> placement = identity_placement();
  placement[3] = 5;  // core 5 duplicated, core 3 missing
  expect_rejected([&] { lower_convnet({}, placement); },
                  "not a bijective permutation");
}

TEST(LoweringRejects, OutOfRangePlacementEntry) {
  std::vector<std::size_t> placement = identity_placement();
  placement[3] = 4000;
  expect_rejected([&] { lower_convnet({}, placement); },
                  "core 4000 out of range or repeated");
}

TEST(LoweringRejects, WrongLengthPlacement) {
  expect_rejected([] { lower_convnet({}, {0, 1, 2, 3}); },  // 4 of 16 cores
                  "placement maps 4 partitions on a 16-core machine");
}

TEST(LoweringRejects, LayerDimsCountMismatch) {
  using sched::PartitionDim;
  expect_rejected([] { lower_convnet({PartitionDim::kWidth}); },
                  "1 layer dims for 5 compute layers");
  expect_rejected(
      [] { lower_convnet(std::vector(6, PartitionDim::kKernel)); },
      "6 layer dims for 5 compute layers");
}

TEST(LoweringRejects, SpatialDimOnFcLayer) {
  // ConvNet computes: conv1..conv3, ip1, ip2 — height cannot split an FC.
  std::vector<sched::PartitionDim> dims(5, sched::PartitionDim::kKernel);
  dims[3] = sched::PartitionDim::kHeight;
  expect_rejected([&] { lower_convnet(dims); },
                  "dim 'height' is incompatible with compute layer 3");
}

TEST(LoweringRejects, ChannelDimOnLastLayer) {
  // Channel's reduce-scatter rides the next transition; ip2 has none.
  std::vector<sched::PartitionDim> dims(5, sched::PartitionDim::kKernel);
  dims[4] = sched::PartitionDim::kChannel;
  expect_rejected([&] { lower_convnet(dims); },
                  "dim 'channel' is incompatible with compute layer 4");
}

TEST(LoweringRejects, ChannelDimEndingPipelineStage) {
  // On two chips conv2 ends stage 0; its reduce-scatter cannot ride the
  // gateway link. The same dims lower on one chip.
  std::vector<sched::PartitionDim> dims(5, sched::PartitionDim::kKernel);
  dims[1] = sched::PartitionDim::kChannel;
  sched::BuildOptions opts;
  opts.cores = kCores;
  opts.bytes_per_value = kBpv;
  opts.layer_dims = dims;
  EXPECT_NO_THROW(lower_convnet(dims));
  expect_rejected(
      [&] {
        sched::lower_pipelined(nn::convnet_spec(), convnet_traffic(), opts, 2);
      },
      "dim 'channel' is incompatible with compute layer 1 ('conv2')");
}

TEST(LoweringRejects, PermutedPlacementOnMultiChip) {
  sched::BuildOptions opts;
  opts.cores = kCores;
  opts.bytes_per_value = kBpv;
  opts.placement = identity_placement();
  std::swap(opts.placement[0], opts.placement[1]);
  expect_rejected(
      [&] {
        sched::lower_pipelined(nn::convnet_spec(), convnet_traffic(), opts, 2);
      },
      "placement permutations are per-chip concepts");
}

TEST(LoweringRejects, NonKernelDimUnderSparsityProfile) {
  sched::BuildOptions opts;
  opts.cores = kCores;
  opts.bytes_per_value = kBpv;
  opts.layer_dims.assign(5, sched::PartitionDim::kKernel);
  opts.layer_dims[0] = sched::PartitionDim::kHeight;
  const core::SparsityProfile profile;  // liveness is kernel-split-defined
  expect_rejected(
      [&] {
        sched::lower(nn::convnet_spec(), convnet_traffic(), opts, &profile,
                     sched::Strategy::kSparsified);
      },
      "defined on the kernel");
}

TEST(PartitionDim, StringRoundTrip) {
  using sched::PartitionDim;
  for (const PartitionDim d :
       {PartitionDim::kKernel, PartitionDim::kBatch, PartitionDim::kHeight,
        PartitionDim::kWidth, PartitionDim::kChannel}) {
    PartitionDim parsed;
    ASSERT_TRUE(sched::parse_partition_dim(sched::to_string(d), &parsed));
    EXPECT_EQ(parsed, d);
  }
  PartitionDim parsed;
  EXPECT_FALSE(sched::parse_partition_dim("diagonal", &parsed));
}

}  // namespace
}  // namespace ls
