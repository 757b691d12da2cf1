#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/sim_cache.hpp"
#include "noc/simulator.hpp"
#include "prof/attribution.hpp"
#include "prof/model_error.hpp"
#include "sched/cost_model.hpp"
#include "sched/verify.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "tune/tuner.hpp"

namespace ls::bench {

namespace {

// Requests served after each single-pass workload: enough that p99 has ten
// samples beyond it.
constexpr std::size_t kServeRequests = 1024;
constexpr std::size_t kSmokeRequests = 128;
// Closed batch of the stream workloads: the R^2 dispatch loop still takes
// almost all of run_s, and one repetition is short enough (0.2-0.4 s) for a
// median over dozens of them per run.
constexpr std::size_t kStreamRequests = 4096;

double share(std::uint64_t part, std::uint64_t whole) {
  return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

sched::VerifyOptions verify_options(const sim::SystemConfig& cfg) {
  sched::VerifyOptions v;
  v.accel = cfg.accel;
  v.accel.dram_bytes_per_cycle =
      cfg.chip_dram_bytes_per_cycle / static_cast<double>(cfg.cores / cfg.chips);
  v.noc = cfg.noc;
  return v;
}

void verify_or_throw(const sched::Schedule& schedule,
                     const sim::SystemConfig& cfg) {
  sched::VerifyReport report;
  {
    LayerSpan span("bench.sched.verify");
    report = sched::verify(schedule, verify_options(cfg));
  }
  if (!report.ok()) {
    throw std::runtime_error("schedule '" + schedule.net_name +
                             "' failed sched::verify:\n" + report.to_string());
  }
}

// The on-chip burst with the most bytes, in its chip's mesh coordinates.
std::vector<noc::Message> heaviest_burst(const sched::Schedule& schedule,
                                         std::size_t cores_per_chip) {
  const sched::Event* heaviest = nullptr;
  for (const sched::Event& e : schedule.events) {
    if (e.kind != sched::EventKind::kComm || e.inter_chip) continue;
    if (heaviest == nullptr || e.traffic_bytes > heaviest->traffic_bytes) {
      heaviest = &e;
    }
  }
  std::vector<noc::Message> local;
  if (heaviest == nullptr) return local;
  const std::size_t base = heaviest->chip * cores_per_chip;
  for (const noc::Message& m : heaviest->messages) {
    local.push_back({m.src - base, m.dst - base, m.bytes, m.inject_cycle});
  }
  return local;
}

// Runs `schedule` once and then as a closed batch of `requests` released
// at cycle 0, checks every view of it against the others, and reports the
// model outputs. One operation for the single pass, one per request.
ModelOutputs serve(const sim::CmpSystem& system,
                   const sched::Schedule& schedule, std::size_t requests,
                   Ledger& ledger, Values& values,
                   sim::InferenceResult* pass_out = nullptr) {
  sim::InferenceResult pass;
  {
    LayerSpan span("bench.sim.execute");
    pass = system.execute(schedule);
  }
  const sched::CostModelConfig cost = tune::cost_model_for(system.config());
  sched::CycleEstimate estimate;
  {
    LayerSpan span("bench.sched.estimate");
    estimate = sched::estimate_cycles(schedule, cost);
  }
  const prof::ModelErrorReport model = prof::compare_model(schedule, cost, pass);
  bool compute_exact = model.est_total_cycles == estimate.total_cycles;
  for (const prof::LayerModelError& l : model.layers) {
    compute_exact = compute_exact && l.compute_rel_error == 0.0;
  }
  std::uint64_t serial_cycles = 0;
  for (const sim::LayerTimeline& tl : pass.layers) {
    serial_cycles += tl.compute_cycles + tl.comm_cycles;
  }

  // The library traces a stream per request x event x core, far more events
  // than a trace can hold at these request counts: the stream is covered by
  // the bench.* layer spans only.
  obs::Tracer::instance().stop();
  const sim::StreamResult one = system.run_stream(schedule, 1);
  ledger.op(pass.total_cycles > 0 && compute_exact &&
                one.single_pass == pass &&
                one.makespan_cycles == serial_cycles,
            "single pass of " + schedule.net_name +
                " (cost-model compute cycles, stream-of-one agreement)");

  sim::StreamTimeline timeline;
  sim::StreamResult stream;
  {
    LayerSpan span("bench.sim.stream");
    stream = system.run_stream(schedule, requests, 0, &timeline);
  }
  prof::StreamAttribution attribution;
  prof::StreamLatency latency;
  {
    LayerSpan span("bench.prof.attribute");
    attribution = prof::attribute_stream(schedule, timeline);
    latency = prof::stream_latency(schedule, timeline);
  }
  std::uint64_t finished = 0;
  std::uint64_t last_finish = 0;
  for (const std::uint64_t f : stream.request_finish_cycle) {
    finished += f > 0 && f <= stream.makespan_cycles ? 1 : 0;
    last_finish = std::max(last_finish, f);
  }
  const bool stream_ok = stream.single_pass == pass &&
                         stream.request_finish_cycle.size() == requests &&
                         last_finish == stream.makespan_cycles &&
                         latency.requests.size() == requests &&
                         attribution.makespan_cycles == stream.makespan_cycles &&
                         attribution.blame.total() == stream.makespan_cycles;
  ledger.ops(requests, stream_ok ? requests - finished : requests,
             "streamed requests of " + schedule.net_name +
                 " (completion, blame sums to makespan)");

  if (pass_out != nullptr) *pass_out = pass;
  values["sched.events"] = static_cast<double>(schedule.events.size());
  values["sched.model_comm_err"] = model.comm_rel_error.mean();
  std::uint64_t flit_hops = 0;
  std::uint64_t max_link_flits = 0;
  for (const sim::LayerTimeline& tl : pass.layers) {
    flit_hops += tl.noc_stats.flit_hops;
    max_link_flits = std::max(max_link_flits, tl.noc_stats.max_link_flits);
  }
  values["noc.flit_hops"] = static_cast<double>(flit_hops);
  values["noc.max_link_flits"] = static_cast<double>(max_link_flits);
  values["sim.compute_cycles"] = static_cast<double>(pass.compute_cycles);
  values["sim.comm_cycles"] = static_cast<double>(pass.comm_cycles);
  values["sim.comm_fraction"] = pass.comm_fraction();
  values["sim.compute_occupancy"] = stream.compute_occupancy;
  values["sim.noc_occupancy"] = stream.noc_occupancy;
  values["sim.inter_chip_occupancy"] = stream.inter_chip_occupancy;
  values["sim.fill_cycles"] = static_cast<double>(stream.fill_cycles);
  const prof::BlameBreakdown& b = attribution.blame;
  const std::uint64_t span_cycles = stream.makespan_cycles;
  values["prof.blame.compute"] = share(b.compute_cycles, span_cycles);
  values["prof.blame.noc"] = share(b.noc_cycles, span_cycles);
  values["prof.blame.dep_stall_compute"] =
      share(b.dep_stall_on_compute_cycles, span_cycles);
  values["prof.blame.dep_stall_comm"] =
      share(b.dep_stall_on_comm_cycles, span_cycles);
  values["prof.blame.dep_stall_inter_chip"] =
      share(b.dep_stall_on_inter_chip_cycles, span_cycles);

  ModelOutputs out;
  out.latency_cycles = pass.total_cycles;
  out.p50_latency_cycles = latency.p50_cycles;
  out.p99_latency_cycles = latency.p99_cycles;
  out.throughput_inf_per_mcycle = stream.throughput_per_mcycle;
  out.noc_energy_uj = pass.noc_energy_pj * 1e-6;
  return out;
}

}  // namespace

Workload::Workload(nn::NetSpec spec, const sim::SystemConfig& cfg,
                   std::size_t requests)
    : spec_(std::move(spec)), system_(cfg), requests_(requests) {}

std::string Workload::describe() const {
  const sim::SystemConfig& cfg = system_.config();
  return "net=" + spec_.name + " cores=" + std::to_string(cfg.cores) +
         " chips=" + std::to_string(cfg.chips) + " noc_clock_divider=" +
         std::to_string(cfg.noc_clock_divider) +
         " requests=" + std::to_string(requests_);
}

double Workload::probe_flit_hops_per_s() const {
  if (probe_burst_.empty()) return 0.0;
  const noc::MeshNocSimulator sim(system_.topology(), system_.config().noc);
  const auto start = std::chrono::steady_clock::now();
  const noc::NocStats stats = sim.run(probe_burst_);
  return static_cast<double>(stats.flit_hops) / seconds_since(start);
}

void Workload::prepare() {
  noc::NocRunCache::instance().clear();
  const sim::SystemConfig& cfg = system_.config();
  {
    LayerSpan span("bench.core.traffic");
    traffic_ =
        core::traffic_dense(spec_, system_.topology(), cfg.bytes_per_value);
  }
  {
    LayerSpan span("bench.sched.lower");
    schedule_ = system_.build_schedule(spec_, traffic_);
  }
  verify_or_throw(schedule_, cfg);
}

ModelOutputs Workload::serve_schedule(const sched::Schedule& schedule,
                                      Ledger& ledger, Values& values,
                                      sim::InferenceResult* pass_out) {
  values["core.traffic_bytes"] = static_cast<double>(traffic_.total_bytes());
  values["core.byte_hops"] = static_cast<double>(traffic_.total_byte_hops());
  probe_burst_ = heaviest_burst(schedule, system_.topology().num_cores());
  return serve(system_, schedule, requests_, ledger, values, pass_out);
}

namespace {

sim::SystemConfig system_config(std::size_t cores, std::size_t chips,
                                double noc_clock_divider) {
  sim::SystemConfig cfg;
  cfg.cores = cores;
  cfg.chips = chips;
  cfg.noc_clock_divider = noc_clock_divider;
  return cfg;
}

// TABLE IV's ConvNet row (the MLP row in smoke mode): Baseline / SS /
// SS_Mask training plus live-traffic inference. The only workload that runs
// the GEMM kernels and the trainer. Its served schedule is the dense
// Baseline one, whose cycles do not depend on trained weights; the trained
// schemes' results are checked against quality floors, not gated.
class TrainSparsify final : public Workload {
 public:
  explicit TrainSparsify(const WorkloadOptions& o)
      : Workload(o.smoke ? nn::mlp_expt_spec() : nn::convnet_expt_spec(),
                 system_config(16, 1, 1.0),
                 o.smoke ? kSmokeRequests : kServeRequests),
        seed_(o.seed),
        lambda_(o.smoke ? 0.6 : 0.4),
        epochs_(o.smoke ? 5 : 3) {}

  void setup() override {
    prepare();
    train_set_ = sim::dataset_for(spec_, kTrainSamples, 1);
    test_set_ = sim::dataset_for(spec_, kTestSamples, 2);
  }

  ModelOutputs run(Ledger& ledger, Values& values) override {
    noc::NocRunCache::instance().clear();
    sim::ExperimentConfig cfg;
    cfg.cores = system_.config().cores;
    cfg.train.epochs = epochs_;
    cfg.lambda_ss = lambda_;
    cfg.lambda_mask = lambda_;
    cfg.seed = seed_;
    std::vector<sim::StrategyOutcome> outcomes;
    {
      LayerSpan span("bench.sim.sparsified_experiment");
      outcomes = sim::run_sparsified_experiment(spec_, train_set_, test_set_,
                                                cfg);
    }
    if (outcomes.size() != 3) {
      throw std::runtime_error("run_sparsified_experiment returned " +
                               std::to_string(outcomes.size()) + " schemes");
    }
    const sim::StrategyOutcome& base = outcomes[0];
    const sim::StrategyOutcome& ss = outcomes[1];
    const sim::StrategyOutcome& mask = outcomes[2];

    sim::InferenceResult pass;
    const ModelOutputs out = serve_schedule(schedule_, ledger, values, &pass);
    // Quality floors. ConvNet held them on seeds 0-14 (accuracy >= 93.8 %,
    // SS_Mask speedup >= 1.67x, traffic rate <= 0.28), the MLP row on seeds
    // 40-44 (speedup >= 1.28x, traffic rate <= 0.40).
    ledger.op(pass == base.result && base.accuracy >= 0.90,
              "Baseline scheme (accuracy floor, served pass agrees)");
    ledger.op(ss.result.total_cycles > 0, "SS scheme");
    ledger.op(mask.accuracy >= 0.90 && mask.traffic_rate < 0.5 &&
                  mask.speedup > 1.2 &&
                  mask.mean_traffic_hops < ss.mean_traffic_hops,
              "SS_Mask scheme (accuracy, traffic, speedup, hops floors)");

    values["train.acc.baseline"] = base.accuracy;
    values["train.acc.ss"] = ss.accuracy;
    values["train.acc.ss_mask"] = mask.accuracy;
    values["train.ss_mask.speedup"] = mask.speedup;
    values["train.ss_mask.traffic_rate"] = mask.traffic_rate;
    values["train.ss_mask.mean_hops"] = mask.mean_traffic_hops;
    values["train.ss.mean_hops"] = ss.mean_traffic_hops;
    values["train.samples"] =
        static_cast<double>(outcomes.size() * epochs_ * train_set_.size());
    return out;
  }

  std::string describe() const override {
    return Workload::describe() + " lambda=" + std::to_string(lambda_) +
           " epochs=" + std::to_string(epochs_) +
           " train_samples=" + std::to_string(kTrainSamples) +
           " test_samples=" + std::to_string(kTestSamples) +
           " train_seed=" + std::to_string(seed_);
  }

 private:
  static constexpr std::size_t kTrainSamples = 768;
  static constexpr std::size_t kTestSamples = 256;
  std::uint64_t seed_;
  double lambda_;
  std::size_t epochs_;
  data::Dataset train_set_;
  data::Dataset test_set_;
};

// VGG19 on 32 cores (a Fig. 8 point): the largest dense all-to-all traffic
// in the repo, every burst a burst-cache miss, so the flit simulator sets
// run_s.
class FlitVgg19 final : public Workload {
 public:
  explicit FlitVgg19(const WorkloadOptions& o)
      : Workload(o.smoke ? nn::convnet_spec() : nn::vgg19_spec(),
                 system_config(o.smoke ? 16 : 32, 1, 1.0),
                 o.smoke ? kSmokeRequests : kServeRequests) {}

  ModelOutputs run(Ledger& ledger, Values& values) override {
    noc::NocRunCache::instance().clear();
    return serve_schedule(schedule_, ledger, values);
  }
};

// AlexNet on 64 cores: the autotuner's analytic search plus flit-level
// validation of its finalists, then the winner served.
class TuneAlexnet final : public Workload {
 public:
  explicit TuneAlexnet(const WorkloadOptions& o)
      : Workload(o.smoke ? nn::convnet_spec() : nn::alexnet_spec(),
                 system_config(o.smoke ? 16 : 64, 1, 1.0),
                 o.smoke ? kSmokeRequests : kServeRequests) {
    // The tuner seed stays at its default: the winner is a gated model
    // output, so it must not change with the benchmark seed.
    tcfg_.budget = o.smoke ? 200 : 2000;
    tcfg_.restarts = o.smoke ? 2 : 4;
    tcfg_.top_k = o.smoke ? 2 : 3;
  }

  ModelOutputs run(Ledger& ledger, Values& values) override {
    noc::NocRunCache::instance().clear();
    const sim::SystemConfig& cfg = system_.config();
    tune::TuneTelemetry telemetry;
    tune::TuneOutcome best;
    {
      LayerSpan span("bench.tune.tune");
      best = tune::tune(spec_, traffic_, cfg, tcfg_,
                        sched::Strategy::kTraditional, &telemetry);
    }
    sched::Schedule winner;
    {
      LayerSpan span("bench.sched.lower");
      winner = tune::lower_candidate(spec_, traffic_, cfg, best.best,
                                     sched::Strategy::kTraditional);
    }
    verify_or_throw(winner, cfg);
    const ModelOutputs out = serve_schedule(winner, ledger, values);
    const bool winner_ok = best.validated > 0 &&
                           out.latency_cycles == best.best_sim_cycles &&
                           best.best_sim_cycles <= best.baseline_sim_cycles;
    ledger.ops(std::max<std::uint64_t>(best.validated, 1), winner_ok ? 0 : 1,
               "validated finalists (winner reproduces its cycles and is no "
               "slower than the baseline)");

    values["tune.evals"] = static_cast<double>(best.evals);
    values["tune.validated"] = static_cast<double>(best.validated);
    values["tune.accept_ratio"] =
        share(telemetry.moves_accepted,
              telemetry.moves_accepted + telemetry.moves_rejected);
    values["tune.speedup_vs_baseline"] = best.speedup_sim();
    values["tune.winner_est_err"] =
        best.best_sim_cycles
            ? (static_cast<double>(best.best_est_cycles) -
               static_cast<double>(best.best_sim_cycles)) /
                  static_cast<double>(best.best_sim_cycles)
            : 0.0;
    return out;
  }

  std::string describe() const override {
    return Workload::describe() + " budget=" + std::to_string(tcfg_.budget) +
           " restarts=" + std::to_string(tcfg_.restarts) +
           " top_k=" + std::to_string(tcfg_.top_k) +
           " tuner_seed=" + std::to_string(tcfg_.seed);
  }

 private:
  tune::TunerConfig tcfg_;
};

// 64 cores as 4 x 16-core chips at the embedded-NoC clock (divider 4), the
// BENCH_multichip point, streaming a closed batch. The burst cache is warm
// after set-up, so the stream engine's dispatch loop sets run_s.
class Stream4Chip final : public Workload {
 public:
  Stream4Chip(nn::NetSpec spec, const WorkloadOptions& o)
      : Workload(std::move(spec), system_config(64, 4, 4.0),
                 o.smoke ? 2 * kSmokeRequests : kStreamRequests) {}

  void setup() override {
    prepare();
    system_.execute(schedule_);
  }

  ModelOutputs run(Ledger& ledger, Values& values) override {
    return serve_schedule(schedule_, ledger, values);
  }
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "train-sparsify", "flit-vgg19", "tune-alexnet", "stream-alexnet-4chip",
      "stream-convnet-4chip"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "train-sparsify") return std::make_unique<TrainSparsify>(options);
  if (name == "flit-vgg19") return std::make_unique<FlitVgg19>(options);
  if (name == "tune-alexnet") return std::make_unique<TuneAlexnet>(options);
  if (name == "stream-alexnet-4chip") {
    return std::make_unique<Stream4Chip>(nn::alexnet_spec(), options);
  }
  if (name == "stream-convnet-4chip") {
    return std::make_unique<Stream4Chip>(nn::convnet_spec(), options);
  }
  return nullptr;
}

}  // namespace ls::bench
