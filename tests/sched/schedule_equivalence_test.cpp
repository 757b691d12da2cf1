// Golden equivalence suite (`ctest -L sched`): the Schedule-IR path
// (build_schedule + execute) must reproduce the pre-IR per-layer loop
// bit-for-bit — InferenceResult::operator== is exact, down to the doubles.
// Coverage: all four strategies × {overlap on, off} × {sparsity profile
// present, absent}, plus the run_stream(n = 1) identity.

#include <gtest/gtest.h>

#include "core/grouping.hpp"
#include "core/sparsity_profile.hpp"
#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "nn/network.hpp"
#include "sched/builders.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"

namespace ls::sim {
namespace {

core::InferenceTraffic dense_traffic(const nn::NetSpec& spec,
                                     const SystemConfig& cfg) {
  return core::traffic_dense(spec, noc::MeshTopology::for_cores(cfg.cores),
                             cfg.bytes_per_value);
}

core::InferenceTraffic live_traffic(const nn::NetSpec& spec,
                                    const SystemConfig& cfg,
                                    std::uint64_t seed = 7) {
  util::Rng rng(seed);
  nn::Network net = nn::build_network(spec, rng);
  return core::traffic_live(net, spec,
                            noc::MeshTopology::for_cores(cfg.cores),
                            cfg.bytes_per_value,
                            core::Granularity::kFeatureMap);
}

// Hand-built profile with varied (and non-trivial) per-core live fractions
// for every compute layer but the first — the shape profile_from_groups
// produces, without paying for group-Lasso training in the test.
core::SparsityProfile synthetic_profile(const nn::NetSpec& spec,
                                        std::size_t cores) {
  core::SparsityProfile profile;
  bool first = true;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    if (!a.is_compute()) continue;
    if (first) {
      first = false;
      continue;
    }
    core::LayerSparsity ls;
    ls.layer_name = a.spec.name;
    ls.live_fraction.resize(cores);
    double sum = 0.0;
    for (std::size_t c = 0; c < cores; ++c) {
      ls.live_fraction[c] =
          0.25 + 0.70 * static_cast<double>((c * 7 + 3) % cores) /
                     static_cast<double>(cores);
      sum += ls.live_fraction[c];
    }
    ls.layer_live_fraction = sum / static_cast<double>(cores);
    profile.layers.push_back(std::move(ls));
  }
  return profile;
}

// One golden comparison: schedule path vs the preserved pre-IR loop.
void expect_bit_identical(const SystemConfig& cfg, const nn::NetSpec& spec,
                          const core::InferenceTraffic& traffic,
                          const core::SparsityProfile* profile) {
  const CmpSystem system(cfg);
  const InferenceResult via_schedule =
      system.run_inference(spec, traffic, profile);
  const InferenceResult golden =
      testing::reference_run_inference(cfg, spec, traffic, profile);
  EXPECT_EQ(via_schedule, golden) << spec.name;
}

class ScheduleEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(ScheduleEquivalence, TraditionalMatchesGolden) {
  SystemConfig cfg;
  cfg.overlap_comm = GetParam();
  for (const nn::NetSpec& spec :
       {nn::mlp_expt_spec(), nn::lenet_expt_spec(), nn::convnet_spec()}) {
    expect_bit_identical(cfg, spec, dense_traffic(spec, cfg), nullptr);
  }
}

TEST_P(ScheduleEquivalence, StructureLevelMatchesGolden) {
  SystemConfig cfg;
  cfg.overlap_comm = GetParam();
  // Grouped variant: the grouping transform removed transitions, the
  // lowering is unchanged.
  const nn::NetSpec grouped = nn::convnet_variant_expt_spec(16, 32, 64, 4);
  expect_bit_identical(cfg, grouped, dense_traffic(grouped, cfg), nullptr);
}

TEST_P(ScheduleEquivalence, SparsifiedMatchesGolden) {
  SystemConfig cfg;
  cfg.overlap_comm = GetParam();
  const nn::NetSpec spec = nn::lenet_expt_spec();
  const auto traffic = live_traffic(spec, cfg);
  const auto profile = synthetic_profile(spec, cfg.cores);
  expect_bit_identical(cfg, spec, traffic, &profile);
}

TEST_P(ScheduleEquivalence, SparsifiedWithModelOffMatchesGolden) {
  SystemConfig cfg;
  cfg.overlap_comm = GetParam();
  cfg.sparse_cycle_model = false;  // profile present but discounts disabled
  const nn::NetSpec spec = nn::lenet_expt_spec();
  const auto traffic = live_traffic(spec, cfg);
  const auto profile = synthetic_profile(spec, cfg.cores);
  expect_bit_identical(cfg, spec, traffic, &profile);
}

TEST_P(ScheduleEquivalence, HybridMatchesGolden) {
  SystemConfig cfg;
  cfg.overlap_comm = GetParam();
  const nn::NetSpec grouped = nn::convnet_variant_expt_spec(16, 32, 64, 4);
  const auto traffic = live_traffic(grouped, cfg);
  const auto profile = synthetic_profile(grouped, cfg.cores);
  expect_bit_identical(cfg, grouped, traffic, &profile);
}

INSTANTIATE_TEST_SUITE_P(OverlapOnOff, ScheduleEquivalence,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "overlap" : "no_overlap";
                         });

// The four strategy builders and the system's own build_schedule agree with
// the executor: executing an explicitly built schedule equals run_inference.
TEST(ScheduleEquivalence, ExplicitBuildersMatchRunInference) {
  SystemConfig cfg;
  const CmpSystem system(cfg);
  const nn::NetSpec spec = nn::convnet_spec();
  const auto traffic = dense_traffic(spec, cfg);

  sched::BuildOptions opts;
  opts.cores = cfg.cores;
  opts.bytes_per_value = cfg.bytes_per_value;
  opts.overlap_comm = cfg.overlap_comm;
  opts.sparse_cycle_model = cfg.sparse_cycle_model;
  const sched::Schedule traditional =
      sched::lower(spec, traffic, opts, nullptr, sched::Strategy::kTraditional);
  EXPECT_EQ(system.execute(traditional), system.run_inference(spec, traffic));

  const auto profile = synthetic_profile(spec, cfg.cores);
  const sched::Schedule sparsified =
      sched::lower(spec, traffic, opts, &profile, sched::Strategy::kSparsified);
  EXPECT_EQ(system.execute(sparsified),
            system.run_inference(spec, traffic, &profile));
}

// A one-request stream degenerates to a single pass: same result object,
// makespan == single-pass latency (non-overlapped schedules).
TEST(ScheduleEquivalence, StreamOfOneIsRunInference) {
  SystemConfig cfg;
  const CmpSystem system(cfg);
  const nn::NetSpec spec = nn::convnet_spec();
  const auto traffic = dense_traffic(spec, cfg);
  const sched::Schedule schedule = system.build_schedule(spec, traffic);

  const InferenceResult single = system.run_inference(spec, traffic);
  const StreamResult stream = system.run_stream(schedule, 1);
  EXPECT_EQ(stream.single_pass, single);
  EXPECT_EQ(stream.makespan_cycles, single.total_cycles);
  EXPECT_EQ(stream.fill_cycles, single.total_cycles);
  ASSERT_EQ(stream.request_finish_cycle.size(), 1u);
  EXPECT_EQ(stream.request_finish_cycle[0], single.total_cycles);
  EXPECT_DOUBLE_EQ(stream.speedup_vs_back_to_back, 1.0);
}

// Streaming is work-conserving: makespan grows monotonically in request
// count but by at most one non-overlapped pass per extra request, and the
// pipeline beats back-to-back execution once bursts hide under compute.
TEST(ScheduleEquivalence, StreamPipelinesRequests) {
  SystemConfig cfg;
  cfg.noc_clock_divider = 2.0;  // embedded NoC: comm-heavy enough to matter
  const CmpSystem system(cfg);
  const nn::NetSpec spec = nn::convnet_spec();
  const auto traffic = dense_traffic(spec, cfg);
  const sched::Schedule schedule = system.build_schedule(spec, traffic);

  const StreamResult s1 = system.run_stream(schedule, 1);
  const StreamResult s8 = system.run_stream(schedule, 8);
  EXPECT_GT(s8.makespan_cycles, s1.makespan_cycles);
  EXPECT_LE(s8.makespan_cycles, 8 * s1.makespan_cycles);
  EXPECT_GT(s8.throughput_per_mcycle, s1.throughput_per_mcycle);
  EXPECT_GT(s8.speedup_vs_back_to_back, 1.0);
  EXPECT_GT(s8.compute_occupancy, 0.0);
  EXPECT_LE(s8.compute_occupancy, 1.0);
  EXPECT_GT(s8.noc_occupancy, 0.0);
  EXPECT_LE(s8.noc_occupancy, 1.0);
  // Requests finish in order (FCFS tie-break) and all inside the makespan.
  for (std::size_t r = 1; r < s8.request_finish_cycle.size(); ++r) {
    EXPECT_GE(s8.request_finish_cycle[r], s8.request_finish_cycle[r - 1]);
    EXPECT_LE(s8.request_finish_cycle[r], s8.makespan_cycles);
  }
}

}  // namespace
}  // namespace ls::sim
