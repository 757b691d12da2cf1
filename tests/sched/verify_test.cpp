// Static schedule verifier suite (invariant class 10, DESIGN.md §4j).
//
// Negative half: seed each corruption class into an otherwise-valid
// lowered schedule via sched::testing::corrupt and assert verify()
// pinpoints the exact event with the exact violation code — no reliance
// on runtime LS_CHECK aborts, so these run identically in release and
// checked builds. Positive half: every builder strategy x partition dim x
// net in the golden suite verifies clean, and the verifier stays cheap
// next to the analytic cost model it gates in the tuner loop.

#include "sched/verify.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/topology.hpp"
#include "sched/builders.hpp"
#include "sched/cost_model.hpp"
#include "sched/schedule.hpp"
#include "sim/system.hpp"
#include "tune/tuner.hpp"

namespace ls::sched {
namespace {

BuildOptions options(std::size_t cores = 16) {
  BuildOptions opts;
  opts.cores = cores;
  return opts;
}

core::InferenceTraffic dense_traffic(const nn::NetSpec& spec,
                                     std::size_t cores) {
  return core::traffic_dense(spec, noc::MeshTopology::for_cores(cores), 2);
}

Schedule lowered_convnet(std::size_t cores = 16) {
  const nn::NetSpec spec = nn::convnet_spec();
  return lower(spec, dense_traffic(spec, cores), options(cores), nullptr,
               Strategy::kTraditional);
}

// Synthetic per-core live fractions (the profile_from_groups shape)
// without paying for group-Lasso training in the test.
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

// Asserts the report contains a violation of `code` pinned to `event`
// (a corruption may legitimately ripple into further violations of the
// same class — zeroing a core's work orphans bursts on both sides — but
// the seeded event must be among them, with the seeded code).
void expect_pinpointed(const VerifyReport& report, VerifyCode code,
                       EventId event) {
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const Violation& v : report.violations) {
    found = found || (v.code == code && v.event == event);
  }
  EXPECT_TRUE(found) << "expected [" << to_string(code) << "] at event "
                     << static_cast<long long>(event) << "; report:\n"
                     << report.to_string();
}

EventId first_event(const Schedule& s, EventKind kind) {
  for (EventId id = 0; id < s.events.size(); ++id) {
    if (s.events[id].kind == kind) return id;
  }
  return kNoEvent;
}

// --- negative suite: one seeded corruption per violation class ----------

TEST(VerifyNegative, CyclicDependencePinpointed) {
  Schedule s = lowered_convnet();
  const EventId id =
      testing::corrupt(&s, testing::Corruption::kCyclicDependence);
  expect_pinpointed(verify(s), VerifyCode::kCyclicDependence, id);
}

TEST(VerifyNegative, NonBijectivePlacementPinpointed) {
  Schedule s = lowered_convnet();
  const EventId id =
      testing::corrupt(&s, testing::Corruption::kNonBijectivePlacement);
  EXPECT_EQ(id, kNoEvent);
  expect_pinpointed(verify(s), VerifyCode::kPlacementNotBijective, kNoEvent);
}

TEST(VerifyNegative, OrphanBurstEndpointPinpointed) {
  Schedule s = lowered_convnet();
  const EventId id =
      testing::corrupt(&s, testing::Corruption::kOrphanBurstEndpoint);
  expect_pinpointed(verify(s), VerifyCode::kOrphanBurstEndpoint, id);
}

TEST(VerifyNegative, ByteTotalMismatchPinpointed) {
  Schedule s = lowered_convnet();
  const EventId id =
      testing::corrupt(&s, testing::Corruption::kByteTotalMismatch);
  expect_pinpointed(verify(s), VerifyCode::kByteTotalMismatch, id);
}

TEST(VerifyNegative, OffMeshRoutePinpointed) {
  Schedule s = lowered_convnet();
  const EventId id = testing::corrupt(&s, testing::Corruption::kOffMeshRoute);
  expect_pinpointed(verify(s), VerifyCode::kOffMeshRoute, id);
}

TEST(VerifyNegative, CapacityOverflowPinpointed) {
  Schedule s = lowered_convnet();
  const EventId id =
      testing::corrupt(&s, testing::Corruption::kCapacityOverflow);
  // The capacity class only fires when the accelerator model has no DRAM
  // path to stream oversized weights; the default config streams.
  VerifyOptions opts;
  opts.accel.dram_bytes_per_cycle = 0.0;
  expect_pinpointed(verify(s, opts), VerifyCode::kCapacityOverflow, id);
  EXPECT_TRUE(verify(s).ok()) << "streaming config must tolerate big weights";
}

TEST(VerifyNegative, NondeterministicReductionPinpointed) {
  Schedule s = lowered_convnet();
  const EventId id =
      testing::corrupt(&s, testing::Corruption::kNondeterministicReduction);
  expect_pinpointed(verify(s), VerifyCode::kNondeterministicReduction, id);
}

TEST(VerifyNegative, ChannelSplitOnLastComputeLayerFlagged) {
  Schedule s = lowered_convnet();
  EventId last_compute = kNoEvent;
  for (EventId id = 0; id < s.events.size(); ++id) {
    if (s.events[id].kind == EventKind::kCompute) last_compute = id;
  }
  ASSERT_NE(last_compute, kNoEvent);
  s.events[last_compute].partition_dim = PartitionDim::kChannel;
  expect_pinpointed(verify(s), VerifyCode::kNondeterministicReduction,
                    last_compute);
}

// A channel split that ends a pipeline stage leaves its partial sums
// unreduced: the next event is the gateway transfer, not an on-chip burst.
TEST(VerifyNegative, ChannelSplitEndingStageFlagged) {
  const nn::NetSpec spec = nn::convnet_spec();
  Schedule s =
      lower_pipelined(spec, dense_traffic(spec, 16), options(16), /*chips=*/2);
  ASSERT_TRUE(verify(s).ok());
  EventId conv2 = kNoEvent;
  for (EventId id = 0; id < s.events.size(); ++id) {
    if (s.events[id].kind == EventKind::kCompute &&
        s.events[id].layer_name == "conv2") {
      conv2 = id;
    }
  }
  ASSERT_NE(conv2, kNoEvent);
  ASSERT_TRUE(s.events[conv2 + 1].inter_chip) << "conv2 must end stage 0";
  s.events[conv2].partition_dim = PartitionDim::kChannel;
  const VerifyReport report = verify(s);
  expect_pinpointed(report, VerifyCode::kNondeterministicReduction, conv2);
  EXPECT_NE(report.to_string().find("'conv2'"), std::string::npos)
      << report.to_string();
}

TEST(VerifyNegative, CommNotFollowedByItsComputeFlagged) {
  Schedule s = lowered_convnet();
  const EventId comm = first_event(s, EventKind::kComm);
  ASSERT_NE(comm, kNoEvent);
  s.events[comm + 1].layer_name = "someone_else";  // breaks the pairing
  expect_pinpointed(verify(s), VerifyCode::kUnpairedEvent, comm);
}

TEST(VerifyNegative, ShortPerCoreWorkFlagged) {
  Schedule s = lowered_convnet();
  const EventId compute = first_event(s, EventKind::kCompute);
  ASSERT_NE(compute, kNoEvent);
  s.events[compute].per_core_work.pop_back();  // no longer covers the machine
  expect_pinpointed(verify(s), VerifyCode::kPlacementNotBijective, compute);
}

TEST(VerifyNegative, EmptyBurstFlagged) {
  Schedule s = lowered_convnet();
  const EventId comm = first_event(s, EventKind::kComm);
  ASSERT_NE(comm, kNoEvent);
  s.events[comm].messages.clear();
  s.events[comm].traffic_bytes = 0;
  expect_pinpointed(verify(s), VerifyCode::kUnpairedEvent, comm);
}

TEST(VerifyNegative, ComputeEventWithCommPayloadFlagged) {
  Schedule s = lowered_convnet();
  const EventId compute = first_event(s, EventKind::kCompute);
  ASSERT_NE(compute, kNoEvent);
  s.events[compute].messages.push_back({0, 1, 64, 0});
  s.events[compute].traffic_bytes = 64;
  expect_pinpointed(verify(s), VerifyCode::kUnpairedEvent, compute);
}

TEST(VerifyNegative, ZeroCoresIsScheduleLevelViolation) {
  Schedule s = lowered_convnet();
  s.cores = 0;
  expect_pinpointed(verify(s), VerifyCode::kPlacementNotBijective, kNoEvent);
}

// The front door: a corrupted schedule must be rejected by execute() with
// a structured diagnostic in every build — before a single flit is
// simulated, with no reliance on a checked-build LS_CHECK abort.
TEST(VerifyFrontDoor, ExecuteRejectsCorruptSchedule) {
  sim::SystemConfig cfg;
  cfg.cores = 16;
  const sim::CmpSystem system(cfg);
  Schedule s = lowered_convnet(cfg.cores);
  ASSERT_NO_THROW(system.execute(s));
  testing::corrupt(&s, testing::Corruption::kByteTotalMismatch);
  EXPECT_THROW(system.execute(s), std::invalid_argument);
}

TEST(VerifyFrontDoor, ExecuteRejectsCoreCountMismatch) {
  sim::SystemConfig cfg;
  cfg.cores = 16;
  const sim::CmpSystem system(cfg);
  const Schedule s = lowered_convnet(64);
  EXPECT_THROW(system.execute(s), std::invalid_argument);
}

// --- positive sweep: the golden suite verifies clean ---------------------

// The options a caller outside CmpSystem would build by hand: the chip's
// DRAM channel split across its cores.
VerifyOptions hand_built_options(const sim::SystemConfig& cfg) {
  VerifyOptions v;
  v.accel = cfg.accel;
  v.accel.dram_bytes_per_cycle = cfg.chip_dram_bytes_per_cycle /
                                 static_cast<double>(cfg.cores / cfg.chips);
  v.noc = cfg.noc;
  return v;
}

TEST(VerifyFrontDoor, SystemVerifyMatchesHandBuiltOptions) {
  for (const nn::NetSpec& spec : {nn::convnet_spec(), nn::alexnet_spec()}) {
    for (const std::size_t chips : {1u, 2u, 4u}) {
      sim::SystemConfig cfg;
      cfg.cores = 16 * chips;
      cfg.chips = chips;
      const sim::CmpSystem system(cfg);
      const auto traffic =
          core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
      Schedule s = system.build_schedule(spec, traffic);
      const VerifyOptions opts = hand_built_options(cfg);
      const VerifyReport clean = system.verify(s);
      EXPECT_TRUE(clean.ok()) << spec.name << " x" << chips << ":\n"
                              << clean.to_string();
      EXPECT_EQ(clean.to_string(), verify(s, opts).to_string());

      testing::corrupt(&s, testing::Corruption::kByteTotalMismatch);
      const VerifyReport corrupted = system.verify(s);
      EXPECT_FALSE(corrupted.ok()) << spec.name << " x" << chips;
      EXPECT_EQ(corrupted.to_string(), verify(s, opts).to_string());
    }
  }
}

TEST(VerifyPositive, EveryBuilderStrategyVerifiesClean) {
  const auto opts = options();
  for (const nn::NetSpec& spec : {nn::mlp_spec(), nn::lenet_spec(),
                                  nn::convnet_spec(), nn::alexnet_spec()}) {
    const auto traffic = dense_traffic(spec, opts.cores);
    const VerifyReport r =
        verify(lower(spec, traffic, opts, nullptr, Strategy::kTraditional));
    EXPECT_TRUE(r.ok()) << spec.name << " traditional:\n" << r.to_string();
  }

  const nn::NetSpec grouped = nn::convnet_variant_expt_spec(32, 64, 128, 16);
  const auto grouped_traffic = dense_traffic(grouped, opts.cores);
  const core::SparsityProfile profile =
      synthetic_profile(grouped, opts.cores);
  const VerifyReport structure =
      verify(lower(grouped, grouped_traffic, opts, nullptr,
                   Strategy::kStructureLevel));
  EXPECT_TRUE(structure.ok()) << structure.to_string();
  const VerifyReport hybrid =
      verify(lower(grouped, grouped_traffic, opts, &profile,
                   Strategy::kHybrid));
  EXPECT_TRUE(hybrid.ok()) << hybrid.to_string();

  const nn::NetSpec convnet = nn::convnet_spec();
  const core::SparsityProfile convnet_profile =
      synthetic_profile(convnet, opts.cores);
  const VerifyReport sparsified =
      verify(lower(convnet, dense_traffic(convnet, opts.cores), opts,
                   &convnet_profile, Strategy::kSparsified));
  EXPECT_TRUE(sparsified.ok()) << sparsified.to_string();
}

// Every partition dim, applied to every layer it is legal on, across the
// nets the tuner actually searches — the schedules the tuner's candidate
// gate sees must all pass it.
TEST(VerifyPositive, EveryPartitionDimVerifiesClean) {
  sim::SystemConfig cfg;
  cfg.cores = 16;
  for (const nn::NetSpec& spec : {nn::convnet_spec(), nn::alexnet_spec()}) {
    const auto traffic = dense_traffic(spec, cfg.cores);
    const LoweringContext ctx(spec, traffic, cfg.cores, cfg.bytes_per_value);
    for (const PartitionDim dim :
         {PartitionDim::kKernel, PartitionDim::kBatch, PartitionDim::kHeight,
          PartitionDim::kWidth, PartitionDim::kChannel}) {
      tune::Candidate cand;
      for (std::size_t i = 0; i < ctx.layers(); ++i) {
        cand.layer_dims.push_back(ctx.compatible(i, dim)
                                      ? dim
                                      : PartitionDim::kKernel);
      }
      const Schedule s = tune::lower_candidate(spec, traffic, cfg, cand,
                                               Strategy::kTraditional);
      const VerifyReport r = verify(s);
      EXPECT_TRUE(r.ok()) << spec.name << " dim=" << to_string(dim) << ":\n"
                          << r.to_string();
    }
  }
}

// A permuted placement exercises the inverse-placement mapping inside the
// burst-order determinism check (message order is ascending in partition
// space, not physical-core space).
TEST(VerifyPositive, PermutedPlacementVerifiesClean) {
  const nn::NetSpec spec = nn::convnet_spec();
  sim::SystemConfig cfg;
  cfg.cores = 16;
  tune::Candidate cand;
  for (std::size_t i = 0; i < cfg.cores; ++i) {
    cand.placement.push_back(cfg.cores - 1 - i);
  }
  const Schedule s =
      tune::lower_candidate(spec, dense_traffic(spec, cfg.cores), cfg, cand,
                            Strategy::kTraditional);
  const VerifyReport r = verify(s);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

// The verifier gates every schedule the tuner flit-validates (top_k
// finalists) and every tuned schedule ls_experiment executes, so it must
// stay cheaper than pricing the same schedule analytically with
// estimate_cycles — the yardstick for "negligible next to the search": the
// tuner's memoized scorer prices each move from the same per-event pricer,
// a few layers at a time, and no longer calls estimate_cycles per
// evaluation.
TEST(VerifyPerf, CheaperThanAnalyticCostModel) {
  const Schedule s = lowered_convnet();
  const CostModelConfig cost;
  constexpr int kIters = 50;

  using clock = std::chrono::steady_clock;
  std::size_t sink = 0;
  const auto v0 = clock::now();
  for (int i = 0; i < kIters; ++i) sink += verify(s).violations.size();
  const auto v1 = clock::now();
  std::uint64_t cycles = 0;
  for (int i = 0; i < kIters; ++i) {
    cycles += estimate_cycles(s, cost).total_cycles;
  }
  const auto v2 = clock::now();
  EXPECT_EQ(sink, 0u);
  EXPECT_GT(cycles, 0u);
  EXPECT_LE((v1 - v0).count(), (v2 - v1).count())
      << "verify() must not dominate the cost model it gates";
}

}  // namespace
}  // namespace ls::sched
