// Structural tests of the Schedule IR and its builders: event ordering and
// dependency invariants, payload accounting, sparsity discounts, and the
// --schedule-dump JSON shape.

#include "sched/builders.hpp"
#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/topology.hpp"

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

TEST(ScheduleIr, LowersOneComputeEventPerComputeLayer) {
  const nn::NetSpec spec = nn::convnet_spec();
  const auto opts = options();
  const Schedule s =
      lower(spec, dense_traffic(spec, opts.cores), opts, nullptr,
            Strategy::kTraditional);

  std::size_t compute_layers = 0;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    compute_layers += a.is_compute() ? 1 : 0;
  }
  EXPECT_EQ(s.compute_event_count(), compute_layers);
  EXPECT_EQ(s.cores, opts.cores);
  EXPECT_EQ(s.strategy, Strategy::kTraditional);

  // Every comm event is immediately followed by its consumer compute event;
  // every dependency points backwards.
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const Event& e = s.events[i];
    for (const EventId dep : e.deps) EXPECT_LT(dep, i);
    if (e.kind == EventKind::kComm) {
      ASSERT_LT(i + 1, s.events.size());
      EXPECT_EQ(s.events[i + 1].kind, EventKind::kCompute);
      EXPECT_EQ(s.events[i + 1].layer_name, e.layer_name);
      EXPECT_FALSE(e.messages.empty());
    } else {
      EXPECT_EQ(e.per_core_work.size(), s.cores);
    }
  }
}

TEST(ScheduleIr, TrafficBytesMatchInputTraffic) {
  const nn::NetSpec spec = nn::alexnet_spec();
  const auto opts = options();
  const auto traffic = dense_traffic(spec, opts.cores);
  const Schedule s =
      lower(spec, traffic, opts, nullptr, Strategy::kTraditional);
  EXPECT_EQ(s.traffic_bytes(), traffic.total_bytes());
  // Per-event bytes equal the sum of the event's messages.
  for (const Event& e : s.events) {
    if (e.kind != EventKind::kComm) continue;
    std::size_t bytes = 0;
    for (const noc::Message& m : e.messages) bytes += m.bytes;
    EXPECT_EQ(bytes, e.traffic_bytes);
  }
}

TEST(ScheduleIr, OverlapFlagStampsEveryCommEvent) {
  const nn::NetSpec spec = nn::convnet_spec();
  auto opts = options();
  opts.overlap_comm = true;
  const Schedule s =
      lower(spec, dense_traffic(spec, opts.cores), opts, nullptr,
            Strategy::kTraditional);
  std::size_t comm = 0;
  for (const Event& e : s.events) {
    if (e.kind != EventKind::kComm) continue;
    EXPECT_TRUE(e.overlap_with_prev_compute);
    ++comm;
  }
  EXPECT_EQ(comm, s.comm_event_count());
  EXPECT_GT(comm, 0u);
}

TEST(ScheduleIr, SparsityProfileDiscountsWork) {
  const nn::NetSpec spec = nn::lenet_expt_spec();
  auto opts = options();
  const auto traffic = dense_traffic(spec, opts.cores);

  core::SparsityProfile profile;
  core::LayerSparsity ls;
  ls.layer_name = "conv2";
  ls.live_fraction.assign(opts.cores, 0.5);
  ls.layer_live_fraction = 0.5;
  profile.layers.push_back(ls);

  const Schedule dense =
      lower(spec, traffic, opts, nullptr, Strategy::kTraditional);
  const Schedule sparse =
      lower(spec, traffic, opts, &profile, Strategy::kSparsified);
  ASSERT_EQ(dense.events.size(), sparse.events.size());
  EXPECT_EQ(sparse.strategy, Strategy::kSparsified);
  bool saw_discount = false;
  for (std::size_t i = 0; i < dense.events.size(); ++i) {
    const Event& d = dense.events[i];
    const Event& sp = sparse.events[i];
    if (d.kind != EventKind::kCompute) continue;
    if (d.layer_name == "conv2") {
      EXPECT_GT(sp.macs_discounted, 0u);
      saw_discount = true;
      for (std::size_t c = 0; c < d.per_core_work.size(); ++c) {
        EXPECT_LE(sp.per_core_work[c].macs, d.per_core_work[c].macs);
      }
    } else {
      // Unprofiled layers stay dense.
      EXPECT_EQ(sp.macs_discounted, 0u);
    }
  }
  EXPECT_TRUE(saw_discount);

  // The ablation switch kills the discount even with a profile in hand.
  opts.sparse_cycle_model = false;
  const Schedule ablated =
      lower(spec, traffic, opts, &profile, Strategy::kSparsified);
  for (const Event& e : ablated.events) EXPECT_EQ(e.macs_discounted, 0u);
}

TEST(ScheduleIr, ToJsonCarriesTheDumpShape) {
  const nn::NetSpec spec = nn::convnet_spec();
  const auto opts = options();
  const Schedule s =
      lower(spec, dense_traffic(spec, opts.cores), opts, nullptr,
            Strategy::kTraditional);
  const std::string json = to_json(s);
  EXPECT_NE(json.find("\"net\":\"ConvNet\""), std::string::npos);
  EXPECT_NE(json.find("\"strategy\":\"traditional\""), std::string::npos);
  EXPECT_NE(json.find("\"cores\":16"), std::string::npos);
  EXPECT_NE(json.find("\"events\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"comm\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"messages\":["), std::string::npos);
  EXPECT_NE(json.find("\"per_core\":["), std::string::npos);
}

TEST(ScheduleIr, StrategyNamesRoundTrip) {
  EXPECT_STREQ(to_string(Strategy::kTraditional), "traditional");
  EXPECT_STREQ(to_string(Strategy::kStructureLevel), "structure_level");
  EXPECT_STREQ(to_string(Strategy::kSparsified), "sparsified");
  EXPECT_STREQ(to_string(Strategy::kHybrid), "hybrid");
  EXPECT_STREQ(to_string(EventKind::kComm), "comm");
  EXPECT_STREQ(to_string(EventKind::kCompute), "compute");
}

}  // namespace
}  // namespace ls::sched
