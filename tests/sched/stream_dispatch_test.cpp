// Differential test of CmpSystem::run_stream's dispatch loop.
//
// run_stream keeps one cursor per schedule event and compares E candidates
// per step. The reference below is the full-scan dispatcher it replaced:
// every step rescans every request's pending event (R^2 * E). Both must
// produce the same StreamTimeline item for item — same dispatch order, same
// start and finish cycles — across nets x cores x chips x NoC divider x
// overlap x request counts, and on tuner candidates with non-kernel
// partition dims (channel-split reduce-scatters included) and permuted
// placements. The profiling views computed on those timelines
// (prof::attribute_stream, prof::stream_latency) are checked against
// independent reference computations too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/topology.hpp"
#include "prof/attribution.hpp"
#include "sched/builders.hpp"
#include "sched/schedule.hpp"
#include "sched/verify.hpp"
#include "sim/system.hpp"
#include "tune/tuner.hpp"
#include "util/stats.hpp"

namespace ls::sim {
namespace {

/// Per-event durations exactly as run_stream reads them off the single
/// pass: a comm event charges the next layer's full drain.
std::vector<std::uint64_t> event_durations(const sched::Schedule& schedule,
                                           const InferenceResult& single) {
  std::vector<std::uint64_t> dur(schedule.events.size(), 0);
  std::size_t layer = 0;
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    if (schedule.events[i].kind == sched::EventKind::kComm) {
      dur[i] = single.layers[layer].comm_cycles;
    } else {
      dur[i] = single.layers[layer].compute_cycles;
      ++layer;
    }
  }
  return dur;
}

/// The full-scan list scheduler: each step evaluates every request's
/// pending event and starts the one with the earliest feasible start,
/// lowest request index on ties.
std::vector<StreamTimelineItem> reference_dispatch(
    const sched::Schedule& schedule, const InferenceResult& single,
    std::size_t requests) {
  const std::size_t E = schedule.events.size();
  const std::vector<std::uint64_t> dur = event_durations(schedule, single);
  const std::size_t C = schedule.chips;
  std::vector<std::vector<std::uint64_t>> end(
      requests, std::vector<std::uint64_t>(E, 0));
  std::vector<std::size_t> next(requests, 0);
  std::vector<std::uint64_t> gang_free(C, 0);
  std::vector<std::uint64_t> noc_free(C, 0);
  std::vector<std::uint64_t> link_free(C > 1 ? C - 1 : 0, 0);
  std::vector<StreamTimelineItem> items;
  items.reserve(requests * E);
  for (std::size_t remaining = requests * E; remaining > 0; --remaining) {
    std::size_t best_r = requests;
    std::uint64_t best_start = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t r = 0; r < requests; ++r) {
      if (next[r] == E) continue;
      const sched::Event& e = schedule.events[next[r]];
      std::uint64_t ready = 0;
      for (const sched::EventId dep : e.deps) {
        ready = std::max(ready, end[r][dep]);
      }
      const std::uint64_t res_free =
          e.kind == sched::EventKind::kComm
              ? (e.inter_chip ? link_free[e.chip - 1] : noc_free[e.chip])
              : gang_free[e.chip];
      const std::uint64_t start = std::max(ready, res_free);
      if (start < best_start) {
        best_start = start;
        best_r = r;
      }
    }
    const std::size_t id = next[best_r];
    const sched::Event& e = schedule.events[id];
    const std::uint64_t finish = best_start + dur[id];
    end[best_r][id] = finish;
    items.push_back({best_r, id, best_start, finish});
    if (e.kind == sched::EventKind::kCompute) {
      gang_free[e.chip] = finish;
    } else if (e.inter_chip) {
      link_free[e.chip - 1] = finish;
    } else {
      noc_free[e.chip] = finish;
    }
    ++next[best_r];
  }
  return items;
}

/// CPM late-finish slack over the dispatch sequence, keyed through an
/// ordered map: successors are the next item on the same resource and the
/// same request's dependency successors.
std::vector<std::uint64_t> reference_slack(
    const sched::Schedule& schedule,
    const std::vector<StreamTimelineItem>& items, std::uint64_t makespan) {
  const std::size_t C = schedule.chips;
  auto resource = [&](sched::EventId id) {
    const sched::Event& e = schedule.events[id];
    if (e.kind == sched::EventKind::kCompute) return e.chip;
    return e.inter_chip ? 2 * C + e.chip - 1 : C + e.chip;
  };
  std::map<std::pair<std::size_t, sched::EventId>, std::size_t> at;
  std::map<std::size_t, std::size_t> last_on;
  std::vector<std::size_t> res_pred(items.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    at[{items[i].request, items[i].event}] = i;
    const auto prev = last_on.find(resource(items[i].event));
    if (prev != last_on.end()) res_pred[i] = prev->second;
    last_on[resource(items[i].event)] = i;
  }
  std::vector<std::uint64_t> late_finish(items.size(), makespan);
  for (std::size_t i = items.size(); i-- > 0;) {
    const std::uint64_t late_start =
        late_finish[i] - (items[i].finish_cycle - items[i].start_cycle);
    if (res_pred[i] < items.size()) {
      late_finish[res_pred[i]] = std::min(late_finish[res_pred[i]], late_start);
    }
    for (const sched::EventId dep : schedule.events[items[i].event].deps) {
      const std::size_t p = at.at({items[i].request, dep});
      late_finish[p] = std::min(late_finish[p], late_start);
    }
  }
  std::vector<std::uint64_t> slack(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    slack[i] = late_finish[i] - items[i].finish_cycle;
  }
  return slack;
}

void expect_matches_reference(const CmpSystem& system,
                              const sched::Schedule& schedule,
                              std::size_t requests, const std::string& label) {
  SCOPED_TRACE(label + " requests=" + std::to_string(requests));
  StreamTimeline timeline;
  const StreamResult got = system.run_stream(schedule, requests, 0, &timeline);
  const std::vector<StreamTimelineItem> want =
      reference_dispatch(schedule, got.single_pass, requests);
  const std::vector<StreamTimelineItem>& items = timeline.items;
  ASSERT_EQ(items.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const StreamTimelineItem& a = items[i];
    const StreamTimelineItem& b = want[i];
    ASSERT_EQ(a, b) << "first divergence at item " << i << ": got r"
                    << a.request << "/e" << a.event << " [" << a.start_cycle
                    << ", " << a.finish_cycle << "), want r" << b.request
                    << "/e" << b.event << " [" << b.start_cycle << ", "
                    << b.finish_cycle << ")";
  }

  // Stream summary numbers follow from the reference timeline.
  const std::size_t E = schedule.events.size();
  std::uint64_t makespan = 0;
  std::vector<std::uint64_t> finish(requests, 0);
  for (const StreamTimelineItem& it : want) {
    makespan = std::max(makespan, it.finish_cycle);
    if (it.event + 1 == E) finish[it.request] = it.finish_cycle;
  }
  EXPECT_EQ(got.makespan_cycles, makespan);
  EXPECT_EQ(got.request_finish_cycle, finish);

  // Blame: a gapless chain from cycle 0 to the makespan whose buckets sum
  // to it; slack: the map-keyed CPM pass.
  const prof::StreamAttribution attr = prof::attribute_stream(schedule, timeline);
  EXPECT_EQ(attr.makespan_cycles, makespan);
  EXPECT_EQ(attr.blame.total(), makespan);
  const std::vector<std::size_t>& chain = attr.critical_chain;
  ASSERT_FALSE(chain.empty());
  EXPECT_EQ(items[chain.front()].start_cycle, 0u);
  EXPECT_EQ(items[chain.back()].finish_cycle, makespan);
  for (std::size_t k = 1; k < chain.size(); ++k) {
    ASSERT_EQ(items[chain[k - 1]].finish_cycle, items[chain[k]].start_cycle)
        << "chain gap at step " << k;
  }
  const std::vector<std::uint64_t> slack =
      reference_slack(schedule, want, makespan);
  ASSERT_EQ(attr.items.size(), slack.size());
  for (std::size_t i = 0; i < slack.size(); ++i) {
    ASSERT_EQ(attr.items[i].slack_cycles, slack[i]) << "item " << i;
    if (attr.items[i].on_critical_chain) {
      ASSERT_EQ(slack[i], 0u) << "critical item " << i;
    }
  }

  // Per-request latency: one row per request in id order, split into the
  // single pass's compute and full-drain comm plus queueing.
  std::uint64_t compute = 0;
  std::uint64_t comm = 0;
  for (const LayerTimeline& tl : got.single_pass.layers) {
    compute += tl.compute_cycles;
    comm += tl.comm_cycles;
  }
  const prof::StreamLatency lat = prof::stream_latency(schedule, timeline);
  ASSERT_EQ(lat.requests.size(), requests);
  std::vector<double> latencies;
  for (std::size_t r = 0; r < requests; ++r) {
    const prof::RequestLatency& row = lat.requests[r];
    EXPECT_EQ(row.request, r);
    EXPECT_EQ(row.latency_cycles, finish[r]);
    EXPECT_EQ(row.compute_cycles, compute);
    EXPECT_EQ(row.comm_cycles, comm);
    EXPECT_EQ(row.compute_cycles + row.comm_cycles + row.queue_wait_cycles,
              row.latency_cycles);
    latencies.push_back(static_cast<double>(finish[r]));
  }
  EXPECT_EQ(lat.p50_cycles, util::percentile(latencies, 50.0));
  EXPECT_EQ(lat.p99_cycles, util::percentile(latencies, 99.0));
}

std::size_t compute_layer_count(const nn::NetSpec& spec) {
  std::size_t n = 0;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    n += a.is_compute() ? 1 : 0;
  }
  return n;
}

nn::NetSpec net_named(const std::string& name) {
  if (name == "mlp") return nn::mlp_spec();
  if (name == "lenet") return nn::lenet_spec();
  if (name == "convnet") return nn::convnet_spec();
  return nn::alexnet_spec();
}

class StreamDispatchGrid : public ::testing::TestWithParam<std::string> {};

// cores 16/64 x chips 1/2/4 x NoC divider 1/4 x overlap on/off x the
// request counts; chip counts above the net's compute-layer count cannot
// be stage-partitioned and are skipped (MLP at 4 chips).
TEST_P(StreamDispatchGrid, MatchesFullScanReference) {
  const nn::NetSpec spec = net_named(GetParam());
  const std::size_t layers = compute_layer_count(spec);
  for (const std::size_t cores : {std::size_t{16}, std::size_t{64}}) {
    for (const std::size_t chips :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      if (chips > layers) continue;
      for (const double divider : {1.0, 4.0}) {
        for (const bool overlap : {false, true}) {
          SystemConfig cfg;
          cfg.cores = cores;
          cfg.chips = chips;
          cfg.noc_clock_divider = divider;
          cfg.overlap_comm = overlap;
          const CmpSystem system(cfg);
          const core::InferenceTraffic traffic = core::traffic_dense(
              spec, system.topology(), cfg.bytes_per_value);
          const sched::Schedule schedule =
              system.build_schedule(spec, traffic);
          const std::string label =
              spec.name + " cores=" + std::to_string(cores) +
              " chips=" + std::to_string(chips) +
              " divider=" + std::to_string(divider) +
              " overlap=" + std::to_string(overlap);
          for (const std::size_t requests : {1, 2, 3, 7, 64, 513}) {
            expect_matches_reference(system, schedule, requests, label);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Nets, StreamDispatchGrid,
                         ::testing::Values("mlp", "lenet", "convnet",
                                           "alexnet"),
                         [](const auto& info) { return info.param; });

// Tuner-lowered schedules: every non-kernel dim wherever it is legal (a
// channel split never ends a pipeline stage), one mixed-dim candidate, and
// on one chip a reversed and a rotated placement.
TEST(StreamDispatch, MatchesFullScanReferenceOnTunerCandidates) {
  using sched::PartitionDim;
  bool saw_channel_split = false;
  for (const nn::NetSpec& spec : {nn::convnet_spec(), nn::alexnet_spec()}) {
    const std::size_t layers = compute_layer_count(spec);
    for (const std::size_t chips : {std::size_t{1}, std::size_t{2}}) {
      SystemConfig cfg;
      cfg.cores = 16 * chips;
      cfg.chips = chips;
      const CmpSystem system(cfg);
      const core::InferenceTraffic traffic =
          core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
      const sched::LoweringContext ctx(spec, traffic, 16,
                                       cfg.bytes_per_value, chips);

      std::vector<tune::Candidate> candidates;
      const std::vector<PartitionDim> dims = {
          PartitionDim::kBatch, PartitionDim::kHeight, PartitionDim::kWidth,
          PartitionDim::kChannel};
      for (const PartitionDim dim : dims) {
        tune::Candidate cand;
        for (std::size_t i = 0; i < layers; ++i) {
          cand.layer_dims.push_back(ctx.compatible(i, dim)
                                        ? dim
                                        : PartitionDim::kKernel);
        }
        cand.overlap_comm = dim == PartitionDim::kHeight;
        candidates.push_back(cand);
      }
      tune::Candidate mixed;
      for (std::size_t i = 0; i < layers; ++i) {
        const PartitionDim dim = dims[i % dims.size()];
        mixed.layer_dims.push_back(ctx.compatible(i, dim)
                                       ? dim
                                       : PartitionDim::kKernel);
      }
      candidates.push_back(mixed);
      if (chips == 1) {
        tune::Candidate reversed = mixed;
        tune::Candidate rotated;
        for (std::size_t c = 0; c < cfg.cores; ++c) {
          reversed.placement.push_back(cfg.cores - 1 - c);
          rotated.placement.push_back((c + 5) % cfg.cores);
        }
        candidates.push_back(reversed);
        candidates.push_back(rotated);
      }

      for (std::size_t k = 0; k < candidates.size(); ++k) {
        const sched::Schedule schedule = tune::lower_candidate(
            spec, traffic, cfg, candidates[k], sched::Strategy::kTraditional);
        const sched::VerifyReport report = sched::verify(schedule);
        ASSERT_TRUE(report.ok()) << report.to_string();
        for (const sched::Event& e : schedule.events) {
          saw_channel_split |= e.partition_dim == PartitionDim::kChannel;
        }
        for (const std::size_t requests : {1, 7, 64}) {
          expect_matches_reference(system, schedule, requests,
                                   spec.name + " chips=" +
                                       std::to_string(chips) +
                                       " candidate=" + std::to_string(k));
        }
      }
    }
  }
  EXPECT_TRUE(saw_channel_split);
}

}  // namespace
}  // namespace ls::sim
