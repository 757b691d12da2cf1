// Extension experiment: communication-aware *placement* vs communication-
// aware *training*.
//
// SS_Mask teaches the network to keep its surviving traffic between nearby
// cores. A post-hoc alternative for a distance-unaware SS model is to
// permute which mesh core hosts which partition (simulated annealing over
// byte-hops, core/placement.hpp). This bench trains MLP with SS and with
// SS_Mask, then reports for each: identity placement vs optimized
// placement. The question: can placement recover SS_Mask's advantage
// without distance-aware training?

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "core/placement.hpp"
#include "core/traffic.hpp"
#include "core/weight_groups.hpp"
#include "nn/model_zoo.hpp"
#include "sched/builders.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "train/masks.hpp"
#include "train/trainer.hpp"
#include "util/table.hpp"

namespace {

using namespace ls;

struct Row {
  std::string label;
  core::InferenceTraffic traffic;
};

}  // namespace

int main() {
  std::puts("Learn-to-Scale bench: placement optimization vs "
            "communication-aware training (MLP, 16 cores)\n");

  const std::size_t cores = 16;
  const nn::NetSpec spec = nn::mlp_expt_spec();
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(cores);
  const data::Dataset train_set = sim::dataset_for(spec, 768, 1);
  const data::Dataset test_set = sim::dataset_for(spec, 256, 2);

  train::TrainConfig tcfg;
  tcfg.epochs = 5;

  std::vector<Row> rows;
  // Dense baseline.
  rows.push_back({"Baseline", core::traffic_dense(spec, topo, 2)});

  // SS and SS_Mask live traffic.
  for (const bool distance_aware : {false, true}) {
    util::Rng rng(42);
    nn::Network net = nn::build_network(spec, rng);
    train::GroupLassoRegularizer reg(
        core::build_group_sets(net, spec, cores),
        distance_aware ? train::distance_mask(topo)
                       : train::uniform_mask(cores),
        0.6);
    train::train_classifier(net, train_set, test_set, tcfg, &reg);
    rows.push_back({distance_aware ? "SS_Mask" : "SS",
                    core::traffic_live(net, spec, topo, 2)});
  }

  sim::SystemConfig cfg;
  cfg.cores = cores;
  sim::CmpSystem system(cfg);

  // One batched execution prices the dense baseline and all six (scheme x
  // placement) schedules; bursts they share are simulated once.
  sched::BuildOptions opts;
  opts.cores = cores;
  opts.bytes_per_value = cfg.bytes_per_value;
  opts.overlap_comm = cfg.overlap_comm;
  opts.sparse_cycle_model = cfg.sparse_cycle_model;
  std::vector<sched::Schedule> schedules;
  schedules.push_back(system.build_schedule(spec, rows[0].traffic));
  // scheme, placement, byte-hops: the table's first three columns.
  std::vector<std::array<std::string, 3>> labels;
  for (const Row& row : rows) {
    for (const bool optimized : {false, true}) {
      util::Rng rng(7);
      const core::Placement placement =
          optimized ? core::optimize_placement(row.traffic, topo, rng)
                    : core::Placement::identity(cores);
      // The lowering moves each partition's work and message endpoints
      // together, so the schedule stays verifiable under any permutation.
      opts.placement = placement.partition_to_core;
      schedules.push_back(sched::lower(spec, row.traffic, opts));
      labels.push_back(
          {row.label, optimized ? "annealed" : "identity",
           std::to_string(
               core::placement_cost(row.traffic, placement, topo))});
    }
  }
  const std::vector<sim::InferenceResult> results = system.execute(schedules);
  const sim::InferenceResult& base = results.front();

  util::Table t("identity vs annealed placement (byte-hops and system "
                "metrics)");
  t.set_header({"scheme", "placement", "byte-hops", "comm-cyc", "speedup",
                "noc-energy-red"});
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const sim::InferenceResult& r = results[i + 1];
    t.add_row({labels[i][0], labels[i][1], labels[i][2],
               std::to_string(r.comm_cycles),
               util::fmt_speedup(sim::speedup(base, r)),
               util::fmt_percent(sim::comm_energy_reduction(base, r))});
  }
  t.print();
  std::puts(
      "\nReading: annealed placement cannot help the dense baseline or SS\n"
      "much — their traffic is all-to-all-ish, and every permutation of an\n"
      "all-to-all is an all-to-all. SS_Mask's structured traffic is already\n"
      "placed well by construction (training assumed the identity mapping),\n"
      "so the lesson is that locality must be *learned into the sparsity\n"
      "pattern*, not bolted on afterwards.");
  return 0;
}
