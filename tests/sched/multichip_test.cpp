// Multi-chip stage-pipelining suite (DESIGN.md §4k).
//
// Covers the whole chip-spanning stack: partition_stages structure and
// optimality (against an exhaustive search over every zoo net and stage
// count), lower_pipelined's chip-major schedule shape (verify-clean on
// every net x chip-count point), the single-chip degenerate case staying
// bit-identical to the flat lowering (IR JSON, analytic estimate, and
// executor results), CmpSystem's multi-chip front door (config validation,
// per-chip-resource streaming, inter-chip link accounting), and the
// verifier's kChipBoundaryViolation negative via the seeded corruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/topology.hpp"
#include "prof/attribution.hpp"
#include "sched/builders.hpp"
#include "sched/cost_model.hpp"
#include "sched/schedule.hpp"
#include "sched/verify.hpp"
#include "sim/system.hpp"

namespace ls::sched {
namespace {

/// Compute-layer MACs in layer order.
std::vector<std::uint64_t> layer_macs(const nn::NetSpec& spec) {
  std::vector<std::uint64_t> macs;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    if (a.is_compute()) macs.push_back(a.macs);
  }
  return macs;
}

core::InferenceTraffic chip_traffic(const nn::NetSpec& spec,
                                    std::size_t cores_per_chip) {
  return core::traffic_dense(spec, noc::MeshTopology::for_cores(cores_per_chip),
                             2);
}

Schedule pipelined(const nn::NetSpec& spec, std::size_t chips,
                   std::size_t cores_per_chip = 16) {
  BuildOptions opts;
  opts.cores = cores_per_chip;
  return lower_pipelined(spec, chip_traffic(spec, cores_per_chip), opts, chips);
}

std::vector<nn::NetSpec> zoo() {
  return {nn::mlp_spec(), nn::lenet_spec(), nn::convnet_spec(),
          nn::alexnet_spec(), nn::vgg19_spec()};
}

std::vector<std::uint64_t> stage_macs(const std::vector<std::uint64_t>& macs,
                                      const std::vector<std::size_t>& stages) {
  std::vector<std::uint64_t> out(stages.back() + 1, 0);
  for (std::size_t i = 0; i < macs.size(); ++i) out[stages[i]] += macs[i];
  return out;
}

std::uint64_t bottleneck(const std::vector<std::uint64_t>& macs,
                         const std::vector<std::size_t>& stages) {
  const std::vector<std::uint64_t> per = stage_macs(macs, stages);
  return *std::max_element(per.begin(), per.end());
}

/// Smallest largest-stage MACs over every way to cut macs[begin..] into
/// `parts` non-empty contiguous stages, by trying each first stage and
/// recursing (visits all C(n-1, parts-1) cut sets).
std::uint64_t exhaustive_min_max(const std::vector<std::uint64_t>& macs,
                                 std::size_t begin, std::size_t parts) {
  if (parts == 1) {
    return std::accumulate(macs.begin() + static_cast<std::ptrdiff_t>(begin),
                           macs.end(), std::uint64_t{0});
  }
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t head = 0;
  for (std::size_t end = begin + 1; end + parts - 1 <= macs.size(); ++end) {
    head += macs[end - 1];
    best = std::min(best,
                    std::max(head, exhaustive_min_max(macs, end, parts - 1)));
  }
  return best;
}

TEST(PartitionStages, ContiguousOntoAndMonotone) {
  for (const nn::NetSpec& spec : zoo()) {
    const std::size_t layers = layer_macs(spec).size();
    for (std::size_t k = 1; k <= layers; ++k) {
      const std::vector<std::size_t> stages = partition_stages(spec, k);
      ASSERT_EQ(stages.size(), layers) << spec.name << " k=" << k;
      EXPECT_EQ(stages.front(), 0u) << spec.name << " k=" << k;
      EXPECT_EQ(stages.back(), k - 1) << spec.name << " k=" << k;
      for (std::size_t i = 1; i < stages.size(); ++i) {
        // Non-decreasing in steps of at most one => contiguous and onto.
        ASSERT_GE(stages[i], stages[i - 1]) << spec.name << " k=" << k;
        ASSERT_LE(stages[i] - stages[i - 1], 1u) << spec.name << " k=" << k;
      }
    }
  }
}

TEST(PartitionStages, BottleneckIsExhaustiveMinimum) {
  for (const nn::NetSpec& spec : zoo()) {
    const std::vector<std::uint64_t> macs = layer_macs(spec);
    for (std::size_t k = 1; k <= macs.size(); ++k) {
      EXPECT_EQ(bottleneck(macs, partition_stages(spec, k)),
                exhaustive_min_max(macs, 0, k))
          << spec.name << " k=" << k;
    }
  }
}

TEST(PartitionStages, PinsAlexNetTieBreak) {
  // Several cut sets can share the optimal bottleneck; every multi-chip
  // cycle number depends on which one is emitted. Stages fill left to
  // right under the optimal cap.
  const nn::NetSpec spec = nn::alexnet_spec();
  EXPECT_EQ(partition_stages(spec, 2),
            (std::vector<std::size_t>{0, 0, 1, 1, 1, 1, 1, 1}));
  EXPECT_EQ(partition_stages(spec, 4),
            (std::vector<std::size_t>{0, 1, 2, 2, 3, 3, 3, 3}));
}

TEST(PartitionStages, RejectsZeroAndTooManyStages) {
  for (const nn::NetSpec& spec : zoo()) {
    const std::size_t layers = layer_macs(spec).size();
    EXPECT_THROW(partition_stages(spec, 0), std::invalid_argument);
    EXPECT_THROW(partition_stages(spec, layers + 1), std::invalid_argument);
  }
  try {
    partition_stages(nn::mlp_spec(), 4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "partition_stages('MLP'): 3 compute layers cannot fill 4 "
                 "pipeline stages");
  }
  // The multi-chip front door rejects the same net before lowering.
  sim::SystemConfig cfg;
  cfg.cores = 64;
  cfg.chips = 4;
  const sim::CmpSystem system(cfg);
  const nn::NetSpec mlp = nn::mlp_spec();
  EXPECT_THROW(system.build_schedule(
                   mlp, core::traffic_dense(mlp, system.topology(),
                                            cfg.bytes_per_value)),
               std::invalid_argument);
}

TEST(PartitionStages, SingleChipIsAllStageZero) {
  const std::vector<std::size_t> stages =
      partition_stages(nn::convnet_spec(), 1);
  for (const std::size_t s : stages) EXPECT_EQ(s, 0u);
}

TEST(Pipeline, StageMacsSumToNetwork) {
  for (const nn::NetSpec& spec : zoo()) {
    const std::vector<std::uint64_t> macs = layer_macs(spec);
    for (std::size_t k = 1; k <= macs.size(); ++k) {
      const std::vector<std::uint64_t> per =
          stage_macs(macs, partition_stages(spec, k));
      EXPECT_EQ(std::accumulate(per.begin(), per.end(), std::uint64_t{0}),
                nn::total_macs(spec))
          << spec.name << " k=" << k;
    }
  }
}

TEST(Pipeline, MaxStageIsAtLeastLargestLayer) {
  for (const nn::NetSpec& spec : zoo()) {
    const std::vector<std::uint64_t> macs = layer_macs(spec);
    const std::uint64_t largest = *std::max_element(macs.begin(), macs.end());
    for (std::size_t k = 1; k <= macs.size(); ++k) {
      EXPECT_GE(bottleneck(macs, partition_stages(spec, k)), largest)
          << spec.name << " k=" << k;
    }
  }
}

TEST(Pipeline, BottleneckShrinksWithMoreCores) {
  for (const nn::NetSpec& spec : zoo()) {
    const std::vector<std::uint64_t> macs = layer_macs(spec);
    for (std::size_t k = 2; k <= macs.size(); ++k) {
      EXPECT_LE(bottleneck(macs, partition_stages(spec, k)),
                bottleneck(macs, partition_stages(spec, k - 1)))
          << spec.name << " k=" << k;
    }
  }
}

TEST(LowerPipelined, ChipMajorStructureVerifiesClean) {
  for (const nn::NetSpec& spec : {nn::convnet_spec(), nn::alexnet_spec()}) {
    for (std::size_t chips : {std::size_t{2}, std::size_t{4}}) {
      const Schedule s = pipelined(spec, chips);
      EXPECT_EQ(s.chips, chips);
      EXPECT_EQ(s.cores, chips * 16);
      std::size_t inter = 0;
      std::size_t prev_chip = 0;
      for (const Event& e : s.events) {
        ASSERT_GE(e.chip, prev_chip);  // stage order == event order
        prev_chip = e.chip;
        if (!e.inter_chip) continue;
        ++inter;
        ASSERT_EQ(e.kind, EventKind::kComm);
        // Single gateway(chip-1) -> gateway(chip) message per boundary.
        ASSERT_EQ(e.messages.size(), 1u);
        EXPECT_EQ(e.messages[0].src, (e.chip - 1) * 16);
        EXPECT_EQ(e.messages[0].dst, e.chip * 16);
        EXPECT_EQ(e.messages[0].bytes, e.traffic_bytes);
      }
      EXPECT_EQ(inter, chips - 1);  // one transfer per stage boundary
      const VerifyReport report = verify(s);
      EXPECT_TRUE(report.ok()) << report.to_string();
    }
  }
}

TEST(LowerPipelined, SingleChipDegeneratesToFlatLoweringExactly) {
  for (const nn::NetSpec& spec : {nn::convnet_spec(), nn::alexnet_spec()}) {
    BuildOptions opts;
    opts.cores = 16;
    const core::InferenceTraffic traffic = chip_traffic(spec, 16);
    const Schedule flat = lower(spec, traffic, opts);
    const Schedule pipe = lower_pipelined(spec, traffic, opts, 1);
    EXPECT_EQ(pipe.chips, 1u);
    // Byte-identical IR dump — the strongest equality the IR exposes.
    EXPECT_EQ(to_json(pipe), to_json(flat));
    // And byte-identical analytic estimates on top of it.
    const CostModelConfig cost;
    const CycleEstimate a = estimate_cycles(flat, cost);
    const CycleEstimate b = estimate_cycles(pipe, cost);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.compute_cycles, b.compute_cycles);
    EXPECT_EQ(a.comm_cycles, b.comm_cycles);
  }
}

TEST(LowerPipelined, SingleChipSystemResultsBitIdentical) {
  // cfg.chips = 1 must be indistinguishable from a config that never heard
  // of chips: same schedule bytes, same executed cycle counts, same stream.
  sim::SystemConfig base;
  base.cores = 16;
  sim::SystemConfig one = base;
  one.chips = 1;
  const sim::CmpSystem sys_base(base);
  const sim::CmpSystem sys_one(one);
  const nn::NetSpec spec = nn::convnet_spec();
  const auto traffic =
      core::traffic_dense(spec, sys_base.topology(), base.bytes_per_value);
  const Schedule a = sys_base.build_schedule(spec, traffic);
  const Schedule b = sys_one.build_schedule(spec, traffic);
  EXPECT_EQ(to_json(a), to_json(b));
  const sim::InferenceResult ra = sys_base.execute(a);
  const sim::InferenceResult rb = sys_one.execute(b);
  EXPECT_EQ(ra.total_cycles, rb.total_cycles);
  EXPECT_EQ(ra.compute_cycles, rb.compute_cycles);
  EXPECT_EQ(ra.comm_cycles, rb.comm_cycles);
  const sim::StreamResult sa = sys_base.run_stream(a, 8);
  const sim::StreamResult sb = sys_one.run_stream(b, 8);
  EXPECT_EQ(sa.makespan_cycles, sb.makespan_cycles);
  EXPECT_EQ(sa.request_finish_cycle, sb.request_finish_cycle);
  EXPECT_EQ(sa.compute_occupancy, sb.compute_occupancy);
  EXPECT_EQ(sa.noc_occupancy, sb.noc_occupancy);
  EXPECT_EQ(sb.inter_chip_occupancy, 0.0);
}

TEST(MultiChipSystem, RejectsBadChipTilingAndMismatchedSchedule) {
  sim::SystemConfig cfg;
  cfg.cores = 16;
  cfg.chips = 3;  // does not divide 16
  EXPECT_THROW(sim::CmpSystem{cfg}, std::invalid_argument);
  cfg.chips = 0;
  EXPECT_THROW(sim::CmpSystem{cfg}, std::invalid_argument);

  // A schedule lowered for 2 chips must not run on a 1-chip system.
  cfg.cores = 32;
  cfg.chips = 2;
  const sim::CmpSystem two(cfg);
  const nn::NetSpec spec = nn::convnet_spec();
  const auto traffic =
      core::traffic_dense(spec, two.topology(), cfg.bytes_per_value);
  const Schedule s = two.build_schedule(spec, traffic);
  EXPECT_EQ(s.chips, 2u);
  sim::SystemConfig flat = cfg;
  flat.chips = 1;
  EXPECT_THROW(sim::CmpSystem(flat).execute(s), std::invalid_argument);
}

TEST(MultiChipSystem, InterChipEventsPricedByLinkClassInExecute) {
  sim::SystemConfig cfg;
  cfg.cores = 32;
  cfg.chips = 2;
  const sim::CmpSystem system(cfg);
  const nn::NetSpec spec = nn::convnet_spec();
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
  const Schedule s = system.build_schedule(spec, traffic);
  const sim::InferenceResult r = system.execute(s);
  EXPECT_GT(r.total_cycles, 0u);
  // Every inter-chip event's analytic price is the shared helper's answer
  // and shows up in the per-layer comm record.
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (!s.events[i].inter_chip) continue;
    const std::uint64_t want =
        inter_chip_transfer_cycles(cfg.inter_chip, s.events[i].traffic_bytes);
    EXPECT_EQ(want, cfg.inter_chip.latency_cycles +
                        (s.events[i].traffic_bytes +
                         static_cast<std::uint64_t>(
                             cfg.inter_chip.bytes_per_cycle) -
                         1) /
                            static_cast<std::uint64_t>(
                                cfg.inter_chip.bytes_per_cycle));
  }
}

TEST(MultiChipSystem, StreamPipelinesStagesAcrossChips) {
  sim::SystemConfig cfg;
  cfg.cores = 64;
  cfg.chips = 4;
  const sim::CmpSystem system(cfg);
  const nn::NetSpec spec = nn::convnet_spec();
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
  const Schedule s = system.build_schedule(spec, traffic);
  ASSERT_TRUE(verify(s).ok());
  const std::size_t requests = 16;
  const sim::StreamResult r = system.run_stream(s, requests);
  EXPECT_EQ(r.requests, requests);
  // Pipelining across stages must beat back-to-back single passes.
  EXPECT_GT(r.speedup_vs_back_to_back, 1.0);
  EXPECT_LT(r.makespan_cycles, requests * r.single_pass.total_cycles);
  // The boundary links carried real traffic and the accounting saw it.
  EXPECT_GT(r.inter_chip_occupancy, 0.0);
  EXPECT_LE(r.inter_chip_occupancy, 1.0);
  // Finish cycles are per-request monotone (identical requests, in-order
  // release through identical stage resources).
  for (std::size_t i = 1; i < r.request_finish_cycle.size(); ++i) {
    EXPECT_GE(r.request_finish_cycle[i], r.request_finish_cycle[i - 1]);
  }
}

TEST(MultiChipSystem, StreamBlameCoversInterChipClass) {
  sim::SystemConfig cfg;
  cfg.cores = 32;
  cfg.chips = 2;
  const sim::CmpSystem system(cfg);
  const nn::NetSpec spec = nn::convnet_spec();
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
  const Schedule s = system.build_schedule(spec, traffic);
  sim::StreamTimeline timeline;
  const sim::StreamResult r = system.run_stream(s, 8, 0, &timeline);
  const prof::StreamAttribution attr = prof::attribute_stream(s, timeline);
  // The blame walk still sums to the makespan with the inter-chip classes
  // in play (the sums-to-makespan invariant is LS_CHECKed inside, but pin
  // it here for unchecked builds too).
  EXPECT_EQ(attr.blame.total(), r.makespan_cycles);
  EXPECT_EQ(attr.makespan_cycles, r.makespan_cycles);
}

TEST(StreamResources, IdsFollowTheChipMajorMap) {
  // Gang c, NoC chips + c, boundary link into chip c at 2 * chips + c - 1.
  for (const std::size_t chips : {1u, 2u, 4u}) {
    const Schedule s = pipelined(nn::convnet_spec(), chips);
    ASSERT_EQ(resource_count(s), 3 * chips - 1);
    for (EventId i = 0; i < s.events.size(); ++i) {
      const Event& e = s.events[i];
      const std::size_t want =
          e.kind == EventKind::kCompute ? e.chip
          : e.inter_chip                ? 2 * chips + e.chip - 1
                                        : chips + e.chip;
      EXPECT_EQ(resource_of(s, i), want) << chips << " chips, event " << i;
    }
  }
}

TEST(StreamResources, ItemsOnOneResourceNeverOverlap) {
  for (const std::size_t chips : {1u, 2u, 4u}) {
    sim::SystemConfig cfg;
    cfg.cores = 16 * chips;
    cfg.chips = chips;
    const sim::CmpSystem system(cfg);
    const nn::NetSpec spec = nn::convnet_spec();
    const auto traffic =
        core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
    const Schedule s = system.build_schedule(spec, traffic);
    sim::StreamTimeline timeline;
    system.run_stream(s, 8, 0, &timeline);
    ASSERT_EQ(timeline.items.size(), 8 * s.events.size());

    std::vector<std::vector<sim::StreamTimelineItem>> on(resource_count(s));
    for (const sim::StreamTimelineItem& it : timeline.items) {
      const std::size_t r = resource_of(s, it.event);
      ASSERT_LT(r, resource_count(s)) << chips << " chips";
      on[r].push_back(it);
    }
    for (std::size_t r = 0; r < on.size(); ++r) {
      std::sort(on[r].begin(), on[r].end(),
                [](const sim::StreamTimelineItem& a,
                   const sim::StreamTimelineItem& b) {
                  return a.start_cycle < b.start_cycle;
                });
      for (std::size_t k = 1; k < on[r].size(); ++k) {
        EXPECT_LE(on[r][k - 1].finish_cycle, on[r][k].start_cycle)
            << chips << " chips, resource " << r;
      }
    }
  }
}

TEST(Verify, PinpointsChipBoundaryViolation) {
  Schedule s = pipelined(nn::convnet_spec(), 2);
  ASSERT_TRUE(verify(s).ok());
  const EventId seeded =
      testing::corrupt(&s, testing::Corruption::kChipBoundaryViolation);
  const VerifyReport report = verify(s);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const Violation& v : report.violations) {
    found |= v.code == VerifyCode::kChipBoundaryViolation && v.event == seeded;
  }
  EXPECT_TRUE(found) << report.to_string();
}

}  // namespace
}  // namespace ls::sched
