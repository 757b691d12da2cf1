// Paper driver: reproduces the paper's evaluation (TABLE I, III-VI, Fig. 7/8,
// the §I-§III.B positioning arguments) plus the ablations and two
// extensions.
//
//   bench_paper [section...]
//
// Sections, in the order a bare `bench_paper` runs them:
//   table1               TABLE I    per-layer NoC data volume (analytic)
//   motivation           §III.B     communication share of inference latency
//   pipeline             §II.B      inter-layer pipelining vs intra-layer
//   positioning          §I/§II.A   input-level vs intra-layer parallelism
//   table3               TABLE III  structure-level accuracy / speedup
//   fig7                 Fig. 7     structure-level speedup & energy
//   table4               TABLE IV   SS / SS_Mask on four networks
//   table5               TABLE V    structure-level vs core count
//   table6               TABLE VI   sparsified LeNet on 8 / 32 cores
//   fig8                 Fig. 8     structure-level speedup & energy vs cores
//   ablation-lasso       proximal vs subgradient, mask exponent, granularity
//   ablation-system      NoC clock ratio, comm overlap, weight streaming
//   extension-hybrid     structure-level grouping + SS_Mask composed
//   extension-placement  tuned placement vs SS_Mask training
//
// Sections run in the order given; an unknown name exits 2. Trainings are
// memoized by sim::TrainRecipe, so a network shared by several sections
// (Fig. 7 reuses TABLE III, Fig. 8 reuses TABLE V, the ablations, the
// hybrid and the placement extension reuse TABLE III/IV nets, a dense
// baseline serves every core count) trains once. The number of networks
// trained goes to stderr.
//
// Architectures are channel-scaled and datasets synthetic (DESIGN.md
// substitution table); the comparison targets the *shape* — ordering and
// rough win factors — not absolute numbers.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/comm_volume.hpp"
#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/topology.hpp"
#include "sched/schedule.hpp"
#include "sim/experiment.hpp"
#include "sim/pipeline_model.hpp"
#include "tune/tuner.hpp"
#include "util/table.hpp"

namespace {

using namespace ls;
using sched::Strategy;
using util::fmt_double;
using util::fmt_percent;
using util::fmt_speedup;

// Trains each distinct recipe once, on the sample splits the paper runs
// use: 768 training and 256 test samples of the spec's synthetic task.
class Trainings {
 public:
  sim::TrainedNet& get(const sim::TrainRecipe& recipe) {
    for (const auto& net : nets_) {
      if (net->recipe == recipe) return *net;
    }
    const data::Dataset train_set = sim::dataset_for(recipe.spec, 768, 1);
    const data::Dataset test_set = sim::dataset_for(recipe.spec, 256, 2);
    nets_.push_back(std::make_unique<sim::TrainedNet>(
        sim::train(recipe, train_set, test_set)));
    return *nets_.back();
  }
  std::size_t count() const { return nets_.size(); }

 private:
  std::vector<std::unique_ptr<sim::TrainedNet>> nets_;
};

sim::ExperimentConfig experiment(std::size_t cores, std::size_t epochs,
                                 double lambda = 2e-3) {
  sim::ExperimentConfig cfg;
  cfg.cores = cores;
  cfg.train.epochs = epochs;
  cfg.lambda_ss = lambda;
  cfg.lambda_mask = lambda;
  cfg.seed = 42;
  return cfg;
}

// A dense net under structure-level parallelization (n = 1 is the baseline).
sim::StrategyOutcome structure_level(Trainings& t, const nn::NetSpec& spec,
                                     const sim::ExperimentConfig& cfg,
                                     const sim::StrategyOutcome* baseline) {
  return sim::simulate(t.get(sim::dense_recipe(spec, cfg)),
                       Strategy::kStructureLevel, cfg, baseline);
}

// The sparsified pipeline's dense baseline: traditional parallelization.
sim::StrategyOutcome traditional(Trainings& t, const nn::NetSpec& spec,
                                 const sim::ExperimentConfig& cfg) {
  sim::StrategyOutcome out = sim::simulate(
      t.get(sim::dense_recipe(spec, cfg)), Strategy::kTraditional, cfg);
  out.scheme = "Baseline";
  return out;
}

// SS (`distance_aware` false) or SS_Mask against `baseline`.
sim::StrategyOutcome sparsified(Trainings& t, const nn::NetSpec& spec,
                                const sim::ExperimentConfig& cfg,
                                bool distance_aware,
                                const sim::StrategyOutcome& baseline) {
  sim::StrategyOutcome out =
      sim::simulate(t.get(sim::lasso_recipe(spec, cfg, distance_aware)),
                    Strategy::kSparsified, cfg, &baseline);
  out.scheme = distance_aware ? "SS_Mask" : "SS";
  return out;
}

// {Baseline, SS, SS_Mask}, as sim::run_sparsified_experiment returns them.
std::vector<sim::StrategyOutcome> sparsified_rows(
    Trainings& t, const nn::NetSpec& spec, const sim::ExperimentConfig& cfg) {
  std::vector<sim::StrategyOutcome> rows{traditional(t, spec, cfg)};
  rows.push_back(sparsified(t, spec, cfg, false, rows.front()));
  rows.push_back(sparsified(t, spec, cfg, true, rows.front()));
  return rows;
}

// TABLE III's ConvNet variants. Channel counts are scaled from the paper's
// 64-128-256 / 64-160-320 to 32-64-128 / 32-96-160 so CPU training
// completes in seconds (DESIGN.md); the published ratios (Parallel#3
// ~1.25-1.5x wider than #2) are preserved.
nn::NetSpec parallel1() {
  return nn::convnet_variant_expt_spec(32, 64, 128, 1);
}
nn::NetSpec parallel2() {
  return nn::convnet_variant_expt_spec(32, 64, 128, 16);
}
nn::NetSpec parallel3(std::size_t groups = 16) {
  return nn::convnet_variant_expt_spec(32, 96, 160, groups);
}

// --- TABLE I: data volume to transmit in the NoC after layer partitioning
// (traditional parallelization, 16 cores). Per network, every layer
// transition with the analytic volume (elements x 4 B x (P-1)^2/P; see
// core/comm_volume.hpp) next to the published value where one exists.

// Published TABLE I entries (bytes), keyed by (network, consumer layer).
const std::map<std::pair<std::string, std::string>, double> kTable1Bytes = {
    {{"MLP", "ip2"}, 28.0 * 1024},       {{"MLP", "ip3"}, 17.0 * 1024},
    {{"LeNet", "conv2"}, 225.0 * 1024},  {{"LeNet", "ip1"}, 57.0 * 1024},
    {{"LeNet", "ip2"}, 29.0 * 1024},     {{"ConvNet", "conv2"}, 450.0 * 1024},
    {{"ConvNet", "conv3"}, 113.0 * 1024},
    {{"ConvNet", "ip1"}, 57.0 * 1024},   {{"AlexNet", "conv2"}, 2.0e6},
    {{"AlexNet", "conv3"}, 2.4e6},       {{"AlexNet", "conv4"}, 1.8e6},
    {{"AlexNet", "conv5"}, 1.8e6},       {{"AlexNet", "ip1"}, 450.0 * 1024},
    {{"AlexNet", "ip2"}, 57.0 * 1024},   {{"VGG19", "conv2_1"}, 42.0e6},
    {{"VGG19", "conv3_1"}, 22.0e6},      {{"VGG19", "conv4_1"}, 11.0e6},
    {{"VGG19", "conv5_1"}, 5.4e6},       {{"VGG19", "ip1"}, 1.4e6},
    {{"VGG19", "ip2"}, 57.0 * 1024},
};

void table1(Trainings&) {
  std::puts("Learn-to-Scale bench: TABLE I (NoC data volume, traditional "
            "parallelization)\n");
  const std::size_t cores = 16;
  for (const nn::NetSpec& spec :
       {nn::mlp_spec(), nn::lenet_spec(), nn::convnet_spec(),
        nn::alexnet_spec(), nn::vgg19_spec()}) {
    util::Table t("TABLE I / " + spec.name + " (" + spec.dataset + ", " +
                  std::to_string(cores) + " cores)");
    t.set_header({"transition into", "elements", "ours", "paper"});
    for (const auto& e : core::comm_volume_table(spec, cores)) {
      const auto it = kTable1Bytes.find({spec.name, e.layer_name});
      t.add_row({e.layer_name, std::to_string(e.elements),
                 util::fmt_bytes(e.bytes),
                 it != kTable1Bytes.end() ? util::fmt_bytes(it->second)
                                          : "-"});
    }
    t.print();
    std::puts("");
  }
}

// Dense traffic of `spec` on `cfg`'s system, one traditional inference.
sim::InferenceResult dense_inference(const nn::NetSpec& spec,
                                     const sim::SystemConfig& cfg) {
  const sim::CmpSystem system(cfg);
  return system.run_inference(
      spec,
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value));
}

// --- §I / §III.B motivation: "data communication may account for more than
// 30% of inference latency in DaDianNao" as the system scales, and "it
// costs about 23% time for AlexNet to communicate between cores" on a
// 16-core embedded chip. Traditional parallelization of each full-scale
// network: the share of latency blocked on NoC communication.
void motivation(Trainings&) {
  std::puts(
      "Learn-to-Scale bench: motivation — communication share of "
      "single-pass inference latency (traditional parallelization)\n");
  util::Table table("blocking-communication share of inference latency");
  table.set_header({"network", "4 cores", "8 cores", "16 cores", "32 cores"});
  for (const nn::NetSpec& spec : {nn::mlp_spec(), nn::lenet_spec(),
                                  nn::convnet_spec(), nn::alexnet_spec()}) {
    std::vector<std::string> row{spec.name};
    for (const std::size_t cores : {4u, 8u, 16u, 32u}) {
      sim::SystemConfig sys;
      sys.cores = cores;
      row.push_back(fmt_percent(dense_inference(spec, sys).comm_fraction()));
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::puts(
      "\nPaper reference points: ~23% for AlexNet on a 16-core embedded\n"
      "chip; >30% and growing with scale for DaDianNao-style systems.");
}

// --- §II.B: the argument against inter-layer (pipeline) model parallelism
// on embedded CMPs: "pipelining layers with distinct hyper-parameters cause
// severe load-imbalance issue on cores", and a pipeline does nothing for
// *single-pass* latency, which is the metric embedded/real-time inference
// cares about. For each network on the same 16-core system: intra-layer
// (traditional parallelization) single-pass latency, pipeline single-pass
// latency (stages run one after another), and the pipeline's steady-state
// initiation interval (its best case, with many inferences in flight) with
// the load imbalance that gates it.
void pipeline(Trainings&) {
  std::puts("Learn-to-Scale bench: inter-layer pipelining vs intra-layer "
            "parallelization (16 cores)\n");
  util::Table t("single-pass latency and pipeline characteristics");
  t.set_header({"network", "intra-cyc", "pipe-cyc", "pipe-penalty",
                "pipe-interval", "imbalance", "stages"});
  for (const nn::NetSpec& spec : {nn::mlp_spec(), nn::lenet_spec(),
                                  nn::convnet_spec(), nn::alexnet_spec()}) {
    sim::SystemConfig cfg;
    cfg.cores = 16;
    const auto intra = dense_inference(spec, cfg);
    const auto pipe = sim::run_pipeline(spec, cfg);
    t.add_row({spec.name, std::to_string(intra.total_cycles),
               std::to_string(pipe.single_pass_cycles),
               fmt_speedup(static_cast<double>(pipe.single_pass_cycles) /
                               static_cast<double>(intra.total_cycles),
                           1),
               std::to_string(pipe.initiation_interval),
               fmt_double(pipe.load_imbalance, 2),
               std::to_string(pipe.stage_compute_cycles.size())});
  }
  t.print();
  std::puts(
      "\nReading: pipe-penalty is how much *slower* a pipelined single pass\n"
      "is than intra-layer parallelization (stages execute sequentially on\n"
      "one core each). Even the pipeline's steady-state interval — its\n"
      "throughput best case — is gated by the largest layer (imbalance =\n"
      "max/mean stage MACs), supporting the paper's choice of intra-layer\n"
      "partitioning for latency-focused embedded inference.");
}

// --- §I / §II.A positioning: throughput-oriented designs (DaDianNao /
// TPU-class) run *independent* inferences on different cores — input-level
// parallelism, no inter-core traffic — which maximizes throughput but does
// nothing for the latency of one inference. For each network on a 16-core
// CMP:
//   * single-core     — one inference on one core (latency reference)
//   * input-parallel  — 16 independent inferences, one per core:
//                       throughput x16, single-pass latency unchanged
//   * partitioned     — the paper's intra-layer parallelization:
//                       single-pass latency improves by ~P / comm-tax
void positioning(Trainings&) {
  std::puts("Learn-to-Scale bench: input-level vs intra-layer parallelism "
            "(16 cores)\n");
  util::Table t("single-pass latency (cycles) and throughput (inferences / "
                "Mcycle)");
  t.set_header({"network", "1-core lat", "input-par lat", "input-par thrpt",
                "partitioned lat", "partitioned thrpt", "latency gain"});
  for (const nn::NetSpec& spec : {nn::mlp_spec(), nn::lenet_spec(),
                                  nn::convnet_spec(), nn::alexnet_spec()}) {
    sim::SystemConfig one;
    one.cores = 1;
    const auto r1 = dense_inference(spec, one);
    sim::SystemConfig sixteen;
    sixteen.cores = 16;
    const auto rp = dense_inference(spec, sixteen);

    const double m = 1e6;
    const double thr_input = 16.0 * m / static_cast<double>(r1.total_cycles);
    const double thr_part = m / static_cast<double>(rp.total_cycles);
    t.add_row({spec.name, std::to_string(r1.total_cycles),
               std::to_string(r1.total_cycles),  // input-parallel: same
               fmt_double(thr_input, 1), std::to_string(rp.total_cycles),
               fmt_double(thr_part, 1),
               fmt_speedup(static_cast<double>(r1.total_cycles) /
                               static_cast<double>(rp.total_cycles),
                           1)});
  }
  t.print();
  std::puts(
      "\nReading: input-level parallelism wins on throughput (16 concurrent\n"
      "passes) but a single inference is exactly as slow as on one core —\n"
      "useless for a real-time QoS deadline. Partitioning the single pass\n"
      "delivers the latency gain, at the cost of the synchronization\n"
      "traffic this library is about reducing.");
}

// --- TABLE III: structure-level parallelization on 16 cores.
//   Parallel#1 — ConvNet variant (c1-c2-c3), n = 1 group  -> baseline
//   Parallel#2 — same channels, conv2/conv3 split into n = 16 groups
//   Parallel#3 — widened channels (compensating accuracy), n = 16 groups
void table3(Trainings& t) {
  std::puts(
      "Learn-to-Scale bench: TABLE III (structure-level parallelization, "
      "16 cores)\n");
  const auto cfg = experiment(16, 3);
  const auto base = structure_level(t, parallel1(), cfg, nullptr);
  const auto r2 = structure_level(t, parallel2(), cfg, &base);
  const auto r3 = structure_level(t, parallel3(), cfg, &base);

  util::Table table(
      "TABLE III: structure-level parallelization (ours | paper accu/speedup)");
  table.set_header(
      {"variant", "kernels", "n", "accuracy", "speedup", "paper"});
  table.add_row({"Parallel#1", "32-64-128", "1", fmt_double(base.accuracy, 3),
                 "1x", "0.726 / 1x"});
  table.add_row({"Parallel#2", "32-64-128", "16", fmt_double(r2.accuracy, 3),
                 fmt_speedup(r2.speedup, 1), "0.698 / 4.9x"});
  table.add_row({"Parallel#3", "32-96-160", "16", fmt_double(r3.accuracy, 3),
                 fmt_speedup(r3.speedup, 1), "0.742 / 4.6x"});
  table.print();
  std::puts(
      "\nExpected shape: both grouped variants speed up well beyond 1x\n"
      "(conv2/conv3 transitions carry zero NoC traffic and their kernels\n"
      "shrink by the group factor); Parallel#2 loses some accuracy to the\n"
      "removed cross-group connections, Parallel#3 wins it back by widening\n"
      "at a slightly lower speedup.");
}

// --- Fig. 7: TABLE III's experiment through the figure's metrics, plus the
// overall energy reductions quoted in §V.A.1 (91% / 88% for #2 / #3):
//   * system speedup           — total baseline cycles / variant cycles
//   * comm speedup             — blocking-communication cycle ratio
//   * comm energy reduction    — 1 - variant NoC energy / baseline
//   * overall energy reduction — 1 - variant total energy / baseline
void fig7(Trainings& t) {
  std::puts(
      "Learn-to-Scale bench: Fig. 7 (structure-level speedup & energy, 16 "
      "cores)\n");
  const auto cfg = experiment(16, 3);
  const auto base = structure_level(t, parallel1(), cfg, nullptr);
  const auto r2 = structure_level(t, parallel2(), cfg, &base);
  const auto r3 = structure_level(t, parallel3(), cfg, &base);

  util::Table table("Fig. 7 metrics (paper: #2 4.9x perf / 91% overall "
                    "energy, #3 4.6x / 88%)");
  table.set_header({"variant", "perf-speedup", "comm-speedup",
                    "comm-energy-red", "overall-energy-red"});
  for (const auto* o : {&r2, &r3}) {
    const auto v_comm = o->result.comm_cycles;
    const double cs = v_comm == 0
                          ? 0.0
                          : static_cast<double>(base.result.comm_cycles) /
                                static_cast<double>(v_comm);
    table.add_row({o == &r2 ? "Parallel#2" : "Parallel#3",
                   fmt_speedup(o->speedup, 1),
                   cs == 0.0 ? "inf (no traffic)" : fmt_speedup(cs, 1),
                   fmt_percent(o->comm_energy_reduction),
                   fmt_percent(o->total_energy_reduction)});
  }
  table.print();
}

// --- TABLE IV: communication-aware sparsified parallelization, 16 cores.
//   Baseline — dense training, traditional parallelization
//   SS       — structured sparsity (uniform group-Lasso strength)
//   SS_Mask  — communication-aware strength (distance-weighted mask)

struct PaperRow {
  double accuracy, traffic, speedup, energy_red;
};

// Published TABLE IV values, keyed by (network, scheme).
const std::map<std::pair<std::string, std::string>, PaperRow> kTable4 = {
    {{"MLP", "Baseline"}, {0.9836, 1.00, 1.00, 0.00}},
    {{"MLP", "SS"}, {0.9838, 0.30, 1.40, 0.59}},
    {{"MLP", "SS_Mask"}, {0.9836, 0.11, 1.59, 0.81}},
    {{"LeNet", "Baseline"}, {0.9917, 1.00, 1.00, 0.00}},
    {{"LeNet", "SS"}, {0.9898, 0.82, 1.20, 0.15}},
    {{"LeNet", "SS_Mask"}, {0.9860, 0.23, 1.51, 0.89}},
    {{"ConvNet", "Baseline"}, {0.7875, 1.00, 1.00, 0.00}},
    {{"ConvNet", "SS"}, {0.8015, 0.46, 1.19, 0.25}},
    {{"ConvNet", "SS_Mask"}, {0.7961, 0.35, 1.32, 0.55}},
    {{"CaffeNet", "Baseline"}, {0.5519, 1.00, 1.00, 0.00}},
    {{"CaffeNet", "SS"}, {0.5502, 0.98, 1.02, 0.17}},
    {{"CaffeNet", "SS_Mask"}, {0.5421, 0.57, 1.10, 0.38}},
};

std::string paper_tse(const PaperRow& p) {
  return fmt_percent(p.traffic) + "/" + fmt_speedup(p.speedup) + "/" +
         fmt_percent(p.energy_red);
}

// The MLP's TABLE IV recipe, which the lasso ablations vary.
sim::ExperimentConfig mlp_experiment() { return experiment(16, 5, 0.6); }

void table4(Trainings& t) {
  std::puts(
      "Learn-to-Scale bench: TABLE IV (communication-aware sparsified "
      "parallelization, 16 cores)\n");
  struct NetCase {
    nn::NetSpec spec;
    double lambda;
    std::size_t epochs;
  };
  const NetCase cases[] = {
      {nn::mlp_expt_spec(), 0.6, 5},
      {nn::lenet_expt_spec(), 0.5, 4},
      {nn::convnet_expt_spec(), 0.4, 3},
      {nn::caffenet_expt_spec(), 0.45, 3},
  };

  util::Table table("TABLE IV: accuracy / NoC traffic rate / system speedup "
                    "/ NoC energy reduction (ours | paper)");
  table.set_header({"net", "scheme", "accuracy", "traffic", "speedup",
                    "energy-red", "avg-hops", "paper(t/s/e)"});
  for (const NetCase& c : cases) {
    const auto cfg = experiment(16, c.epochs, c.lambda);
    for (const auto& o : sparsified_rows(t, c.spec, cfg)) {
      const auto it = kTable4.find({c.spec.name, o.scheme});
      table.add_row({c.spec.name, o.scheme, fmt_percent(o.accuracy, 1),
                     fmt_percent(o.traffic_rate), fmt_speedup(o.speedup),
                     fmt_percent(o.comm_energy_reduction),
                     fmt_double(o.mean_traffic_hops, 2),
                     it != kTable4.end() ? paper_tse(it->second) : "-"});
    }
  }
  table.print();
  std::puts(
      "\nPaper's claim: SS_Mask >= SS > Baseline on speedup and NoC energy\n"
      "reduction, with SS_Mask holding accuracy at or near the baseline.\n"
      "Here both schemes beat the baseline, but SS_Mask leads SS on speedup\n"
      "only for the MLP and trails it on NoC energy everywhere: SS prunes\n"
      "deeper on these synthetic tasks (see EXPERIMENTS.md, TABLE IV\n"
      "deviations). avg-hops shows the mechanism the paper names: SS_Mask's\n"
      "surviving traffic flows between nearby cores (1-2 hops), while SS's\n"
      "and the baseline's average the full mesh distance (~2.67 on a 4x4\n"
      "mesh).");
}

// --- TABLE V / Fig. 8: Parallel#3 on 4 / 8 / 16 / 32 cores with the group
// count n equal to the core count, against traditional (n = 1)
// parallelization of the same base network on the same core count. The
// baseline trains once: its accuracy does not depend on the core count,
// only its traffic and cycles do.
constexpr std::size_t kScalingCores[] = {4, 8, 16, 32};

void table5(Trainings& t) {
  std::puts(
      "Learn-to-Scale bench: TABLE V (structure-level scaling with core "
      "count)\n");
  struct Paper {
    double accuracy, speedup;
  };
  const Paper paper[] = {{0.694, 2.7}, {0.718, 4.6}, {0.742, 6.0},
                         {0.722, 6.9}};

  util::Table table("TABLE V: Parallel#3 vs core count (ours | paper)");
  table.set_header(
      {"cores", "n", "accuracy", "speedup", "paper accu", "paper speedup"});
  for (std::size_t i = 0; i < std::size(kScalingCores); ++i) {
    const std::size_t cores = kScalingCores[i];
    const auto cfg = experiment(cores, 3);
    const auto base = structure_level(t, parallel3(1), cfg, nullptr);
    const auto r = structure_level(t, parallel3(cores), cfg, &base);
    table.add_row({std::to_string(cores), std::to_string(cores),
                   fmt_double(r.accuracy, 3), fmt_speedup(r.speedup, 1),
                   fmt_double(paper[i].accuracy, 3),
                   fmt_speedup(paper[i].speedup, 1)});
  }
  table.print();
  std::puts(
      "\nExpected shape: speedup grows with core count — per-core compute\n"
      "shrinks while the avoided synchronization grows with the mesh.");
}

// --- TABLE VI: communication-aware sparsified LeNet on 8 and 32 cores
// (16-core results are in TABLE IV).
void table6(Trainings& t) {
  std::puts(
      "Learn-to-Scale bench: TABLE VI (sparsified LeNet on 8 and 32 "
      "cores)\n");
  const std::pair<std::size_t, std::vector<PaperRow>> paper[] = {
      {8,
       {{0.991, 1.00, 1.00, 0.00},
        {0.989, 0.80, 1.20, 0.10},
        {0.989, 0.68, 1.22, 0.32}}},
      {32,
       {{0.991, 1.00, 1.00, 0.00},
        {0.987, 0.32, 1.49, 0.34},
        {0.986, 0.18, 1.58, 0.56}}},
  };

  util::Table table(
      "TABLE VI: LeNet scaling (ours | paper traffic/speedup/energy-red)");
  table.set_header({"cores", "scheme", "accuracy", "traffic", "speedup",
                    "energy-red", "paper(t/s/e)"});
  for (const auto& [cores, rows] : paper) {
    const auto outcomes =
        sparsified_rows(t, nn::lenet_expt_spec(), experiment(cores, 4, 0.5));
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& o = outcomes[i];
      table.add_row({std::to_string(cores), o.scheme,
                     fmt_percent(o.accuracy, 1), fmt_percent(o.traffic_rate),
                     fmt_speedup(o.speedup),
                     fmt_percent(o.comm_energy_reduction),
                     paper_tse(rows.at(i))});
    }
  }
  table.print();
  std::puts(
      "\nPaper's claim: both schemes improve as cores scale up (smaller\n"
      "per-core kernel groups prune at lower accuracy risk; the NoC\n"
      "diameter grows), with SS_Mask ahead of SS on energy. Here both\n"
      "improve with cores, but SS_Mask ties SS on energy at 8 cores and\n"
      "trails it at 32 (see EXPERIMENTS.md, TABLE VI).");
}

// --- Fig. 8: beyond TABLE V's speedup column, the computation and
// communication components the figure plots: compute-cycle speedup,
// communication-cycle ratio, and the NoC energy of the baseline vs the
// grouped variant at each scale (normalized to the 4-core baseline).
void fig8(Trainings& t) {
  std::puts(
      "Learn-to-Scale bench: Fig. 8 (structure-level across core counts)\n");
  util::Table table("Fig. 8 series (normalized to the 4-core baseline)");
  table.set_header({"cores", "perf-speedup", "compute-speedup",
                    "base-comm-cycles", "base-noc-energy", "variant-noc-energy",
                    "comm-energy-red"});
  double norm_energy = 0.0;
  for (const std::size_t cores : kScalingCores) {
    const auto cfg = experiment(cores, 3);
    const auto base = structure_level(t, parallel3(1), cfg, nullptr);
    const auto r = structure_level(t, parallel3(cores), cfg, &base);
    if (norm_energy == 0.0) norm_energy = base.result.noc_energy_pj;

    const double compute_speedup =
        static_cast<double>(base.result.compute_cycles) /
        static_cast<double>(
            std::max<std::uint64_t>(1, r.result.compute_cycles));
    table.add_row({std::to_string(cores), fmt_speedup(r.speedup, 1),
                   fmt_speedup(compute_speedup, 1),
                   std::to_string(base.result.comm_cycles),
                   fmt_double(base.result.noc_energy_pj / norm_energy, 2),
                   fmt_double(r.result.noc_energy_pj / norm_energy, 2),
                   fmt_percent(r.comm_energy_reduction)});
  }
  table.print();
  std::puts(
      "\nExpected shape (paper §V.B.1): compute speedup keeps climbing with\n"
      "core count while the baseline's communication cost stays roughly\n"
      "level (mean hop distance grows, bisection bandwidth grows too), so\n"
      "the grouped variant's relative advantage keeps increasing.");
}

// --- Ablations on the sparsified-training design choices (DESIGN.md §5),
// all on TABLE IV's MLP recipe:
//   1. Proximal vs subgradient group-Lasso: the proximal operator drives
//      blocks to *exact* zero, which the dead-block traffic analysis needs;
//      the subgradient form only shrinks them asymptotically.
//   2. Distance-mask exponent: how hard to push sparsity onto far pairs.
//   3. Traffic granularity: per-feature-map vs per-(core,core)-block
//      liveness.
void ablation_lasso(Trainings& t) {
  std::puts("Learn-to-Scale bench: sparsified-training ablations (MLP, 16 "
            "cores)\n");
  const nn::NetSpec spec = nn::mlp_expt_spec();

  {
    util::Table tab("proximal vs subgradient group-Lasso (same lambda)");
    tab.set_header({"mode", "accuracy", "traffic", "dead-blocks", "sparsity"});
    const auto cfg = mlp_experiment();
    const auto base = traditional(t, spec, cfg);
    for (const auto mode :
         {train::LassoMode::kProximal, train::LassoMode::kSubgradient}) {
      sim::TrainRecipe recipe = sim::lasso_recipe(spec, cfg, true);
      recipe.lasso->mode = mode;
      const auto o =
          sim::simulate(t.get(recipe), Strategy::kSparsified, cfg, &base);
      tab.add_row({mode == train::LassoMode::kProximal ? "proximal"
                                                       : "subgradient",
                   fmt_percent(o.accuracy, 1), fmt_percent(o.traffic_rate),
                   fmt_percent(o.dead_block_fraction),
                   fmt_percent(o.weight_sparsity)});
    }
    tab.print();
    std::puts("Expected: subgradient mode leaves ~no exact zeros, so the\n"
              "traffic analysis sees a dense network; proximal mode is what\n"
              "makes the technique deployable.\n");
  }

  {
    util::Table tab("distance-mask exponent sweep (SS_Mask)");
    tab.set_header({"exponent", "accuracy", "traffic", "speedup",
                    "energy-red", "avg-hops"});
    for (const double expo : {0.5, 1.0, 2.0, 3.0}) {
      auto cfg = mlp_experiment();
      cfg.mask_exponent = expo;
      const auto mask =
          sparsified(t, spec, cfg, true, traditional(t, spec, cfg));
      tab.add_row({fmt_double(expo, 1), fmt_percent(mask.accuracy, 1),
                   fmt_percent(mask.traffic_rate), fmt_speedup(mask.speedup),
                   fmt_percent(mask.comm_energy_reduction),
                   fmt_double(mask.mean_traffic_hops, 2)});
    }
    tab.print();
    std::puts("Expected: higher exponents squeeze surviving traffic onto\n"
              "ever-shorter links (avg-hops falls) until accuracy pressure\n"
              "pushes back.\n");
  }

  {
    util::Table tab("liveness granularity (SS_Mask traffic analysis)");
    tab.set_header({"granularity", "traffic", "speedup"});
    for (const auto gran :
         {core::Granularity::kFeatureMap, core::Granularity::kBlock}) {
      auto cfg = mlp_experiment();
      cfg.granularity = gran;
      const auto mask =
          sparsified(t, spec, cfg, true, traditional(t, spec, cfg));
      tab.add_row({gran == core::Granularity::kFeatureMap ? "feature-map"
                                                          : "core-block",
                   fmt_percent(mask.traffic_rate),
                   fmt_speedup(mask.speedup)});
    }
    tab.print();
    std::puts("Expected: feature-map granularity is never worse — a block\n"
              "with one live feature map only ships that map.");
  }
}

// --- System-model ablations (DESIGN.md §5):
//   1. NoC:core clock ratio — how the communication share of inference
//      latency (and hence the attainable speedup of the paper's methods)
//      depends on the relative NoC speed. The paper's "~23% of AlexNet
//      latency is communication" lands between ratio 1 and 4 in our model.
//   2. Comm/compute overlap — the paper's metric charges blocking
//      communication; overlapping it behind the previous layer's compute
//      is the obvious system-level alternative and bounds the benefit.
//   3. Memory-bound mode — when weight streaming is charged (weights not
//      resident), large FC layers dominate and communication optimization
//      loses leverage.
void ablation_system(Trainings&) {
  std::puts("Learn-to-Scale bench: system-model ablations\n");
  {
    util::Table t("comm share of latency vs NoC:core clock ratio (16 cores)");
    t.set_header({"network", "ratio 1", "ratio 2", "ratio 4"});
    for (const nn::NetSpec& spec : {nn::mlp_spec(), nn::lenet_spec(),
                                    nn::convnet_spec(), nn::alexnet_spec()}) {
      std::vector<std::string> row{spec.name};
      for (const double ratio : {1.0, 2.0, 4.0}) {
        sim::SystemConfig cfg;
        cfg.cores = 16;
        cfg.noc_clock_divider = ratio;
        row.push_back(
            fmt_percent(dense_inference(spec, cfg).comm_fraction()));
      }
      t.add_row(std::move(row));
    }
    t.print();
    std::puts("");
  }
  {
    util::Table t("blocking vs overlapped communication (16 cores)");
    t.set_header({"network", "blocking-cyc", "overlapped-cyc", "gain"});
    for (const nn::NetSpec& spec :
         {nn::mlp_spec(), nn::lenet_spec(), nn::convnet_spec()}) {
      sim::SystemConfig blocked;
      blocked.cores = 16;
      sim::SystemConfig over = blocked;
      over.overlap_comm = true;
      const auto rb = dense_inference(spec, blocked);
      const auto ro = dense_inference(spec, over);
      t.add_row({spec.name, std::to_string(rb.total_cycles),
                 std::to_string(ro.total_cycles),
                 fmt_speedup(static_cast<double>(rb.total_cycles) /
                             static_cast<double>(ro.total_cycles))});
    }
    t.print();
    std::puts("");
  }
  {
    util::Table t("weights resident vs streamed (AlexNet, 16 cores)");
    t.set_header({"mode", "total-cyc", "comm-share"});
    for (const bool streaming : {false, true}) {
      sim::SystemConfig cfg;
      cfg.cores = 16;
      cfg.accel.model_weight_streaming = streaming;
      const auto r = dense_inference(nn::alexnet_spec(), cfg);
      t.add_row({streaming ? "streamed" : "resident",
                 std::to_string(r.total_cycles),
                 fmt_percent(r.comm_fraction())});
    }
    t.print();
  }
}

// --- Extension: composing the paper's two techniques. Structure-level
// grouping silences the grouped conv transitions by construction;
// communication-aware sparsified training (SS_Mask) thins whatever stays
// dense. They are orthogonal, so the hybrid should push traffic below
// either alone:
//   Baseline   — dense ConvNet variant, traditional parallelization
//   Grouped    — conv2/conv3 in 16 groups (TABLE III Parallel#2 style)
//   SS_Mask    — dense topology + distance-masked group-Lasso
//   Hybrid     — grouped conv + distance-masked group-Lasso on the rest
void extension_hybrid(Trainings& t) {
  std::puts("Learn-to-Scale bench: hybrid strategy (structure-level + "
            "SS_Mask, 16 cores)\n");
  const auto cfg = experiment(16, 3, 0.5);
  const nn::NetSpec dense = parallel1();
  const nn::NetSpec grouped = parallel2();

  const auto base = structure_level(t, dense, cfg, nullptr);
  const auto grp = structure_level(t, grouped, cfg, &base);
  // SS_Mask is measured against the sparsified pipeline's own baseline:
  // the same trained net under traditional parallelization.
  const auto ss_mask =
      sparsified(t, dense, cfg, true, traditional(t, dense, cfg));
  // build_group_sets skips the grouped conv layers, so the regularizer only
  // touches the still-dense layers.
  const auto hybrid =
      sim::simulate(t.get(sim::lasso_recipe(grouped, cfg, true)),
                    Strategy::kHybrid, cfg, &base);

  util::Table tab("dense vs grouped vs SS_Mask vs hybrid");
  tab.set_header(
      {"scheme", "accuracy", "traffic", "speedup", "noc-energy-red"});
  auto row = [&](const char* label, const sim::StrategyOutcome& o) {
    tab.add_row({label, fmt_percent(o.accuracy, 1),
                 fmt_percent(o.traffic_rate), fmt_speedup(o.speedup),
                 fmt_percent(o.comm_energy_reduction)});
  };
  row("Baseline", base);
  row("Grouped (n=16)", grp);
  row("SS_Mask (dense)", ss_mask);
  row("Hybrid", hybrid);
  tab.print();

  std::puts("\nExpected: the hybrid has the lowest traffic and highest\n"
            "speedup — grouping removes the conv transitions' traffic and\n"
            "compute, the masked lasso thins the remaining FC transitions.");
}

// Bytes x mesh hops of every on-chip message the schedule injects.
std::size_t byte_hops(const sched::Schedule& s,
                      const noc::MeshTopology& topo) {
  std::size_t total = 0;
  for (const sched::Event& e : s.events) {
    for (const noc::Message& m : e.messages) {
      total += m.bytes * topo.hops(m.src, m.dst);
    }
  }
  return total;
}

// --- Extension: communication-aware *placement* vs communication-aware
// *training*. SS_Mask teaches the network to keep its surviving traffic
// between nearby cores. A post-hoc alternative for a distance-unaware SS
// model is to permute which mesh core hosts which partition. The schedule
// tuner searches that permutation (together with the per-layer partition
// dims) under the cycle model and validates its finalists flit-level; this
// section asks it, for TABLE IV's MLP nets, whether placement can recover
// SS_Mask's advantage without distance-aware training. Every row lowers
// without the sparse compute discount, so speedups isolate communication.
void extension_placement(Trainings& t) {
  std::puts("Learn-to-Scale bench: placement optimization vs "
            "communication-aware training (MLP, 16 cores)\n");
  const nn::NetSpec spec = nn::mlp_expt_spec();
  const auto cfg = mlp_experiment();
  sim::SystemConfig sys = cfg.system;
  sys.cores = cfg.cores;
  const sim::CmpSystem system(sys);
  const noc::MeshTopology& topo = system.topology();
  auto live = [&](bool distance_aware) {
    return core::traffic_live(
        t.get(sim::lasso_recipe(spec, cfg, distance_aware)).net, spec, topo,
        sys.bytes_per_value);
  };
  const std::pair<const char*, core::InferenceTraffic> schemes[] = {
      {"Baseline", core::traffic_dense(spec, topo, sys.bytes_per_value)},
      {"SS", live(false)},
      {"SS_Mask", live(true)},
  };

  // With 1 or 4 restarts no finalist validates faster than SS's identity
  // placement; 16 random starts find a permutation that does. The overlap
  // policy stays the system's: this is a placement question.
  tune::TunerConfig tcfg;
  tcfg.restarts = 16;
  tcfg.search_overlap = false;
  std::vector<sched::Schedule> schedules;
  for (const auto& scheme : schemes) {
    const core::InferenceTraffic& traffic = scheme.second;
    for (const tune::Candidate& c :
         {tune::Candidate{}, tune::tune(spec, traffic, sys, tcfg).best}) {
      schedules.push_back(tune::lower_candidate(spec, traffic, sys, c,
                                                Strategy::kTraditional));
    }
  }
  // One batched execution prices all six (scheme x placement) schedules;
  // bursts they share are simulated once. The Baseline identity schedule
  // is the speedup reference.
  const std::vector<sim::InferenceResult> results = system.execute(schedules);
  const sim::InferenceResult& base = results.front();

  util::Table tab("identity vs tuned placement (byte-hops and system "
                  "metrics)");
  tab.set_header({"scheme", "placement", "byte-hops", "comm-cyc", "speedup",
                  "noc-energy-red"});
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const sim::InferenceResult& r = results[i];
    tab.add_row({schemes[i / 2].first, i % 2 == 0 ? "identity" : "tuned",
                 std::to_string(byte_hops(schedules[i], topo)),
                 std::to_string(r.comm_cycles),
                 fmt_speedup(sim::speedup(base, r)),
                 fmt_percent(sim::comm_energy_reduction(base, r))});
  }
  tab.print();
  std::puts(
      "\nReading: the tuned rows come from the schedule tuner, which\n"
      "searches the placement together with each layer's partition dim\n"
      "under the cycle model and keeps a finalist only when the flit\n"
      "simulation prices it faster than the identity row. The dense\n"
      "baseline's gain comes from a partition dim (one layer split on input\n"
      "channels), not from placement: its NoC energy does not fall. For the\n"
      "distance-unaware SS model a permutation cuts byte-hops and comm\n"
      "cycles, yet SS still trails untuned SS_Mask on speedup. SS_Mask's\n"
      "tuned row is its identity row: training already put its surviving\n"
      "traffic between nearby cores. Locality is better learned into the\n"
      "sparsity pattern than bolted on afterwards.");
}

struct Section {
  std::string_view name;
  void (*run)(Trainings&);
};

constexpr Section kSections[] = {
    {"table1", table1},
    {"motivation", motivation},
    {"pipeline", pipeline},
    {"positioning", positioning},
    {"table3", table3},
    {"fig7", fig7},
    {"table4", table4},
    {"table5", table5},
    {"table6", table6},
    {"fig8", fig8},
    {"ablation-lasso", ablation_lasso},
    {"ablation-system", ablation_system},
    {"extension-hybrid", extension_hybrid},
    {"extension-placement", extension_placement},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Section*> selected;
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(
        std::begin(kSections), std::end(kSections),
        [&](const Section& s) { return s.name == argv[i]; });
    if (it == std::end(kSections)) {
      std::fprintf(stderr, "bench_paper: unknown section '%s'; valid:",
                   argv[i]);
      for (const Section& s : kSections) {
        std::fprintf(stderr, " %.*s", static_cast<int>(s.name.size()),
                     s.name.data());
      }
      std::fputc('\n', stderr);
      return 2;
    }
    selected.push_back(&*it);
  }
  if (selected.empty()) {
    for (const Section& s : kSections) selected.push_back(&s);
  }
  Trainings trainings;
  for (const Section* s : selected) s->run(trainings);
  std::fprintf(stderr, "bench_paper: %zu networks trained\n",
               trainings.count());
  return 0;
}
