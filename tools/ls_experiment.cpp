// Command-line experiment runner: exposes the library's experiment
// pipelines with every knob on the command line, for exploration beyond
// the fixed bench configurations.
//
//   ls_experiment infer --net alexnet --cores 16 [--overlap] [--no-cache]
//       [--schedule-dump plan.json]
//   ls_experiment stream --net convnet --cores 16 --requests 8
//   ls_experiment tune --net convnet --cores 64 --budget 2000 --seed 7
//
// Multi-chip packages: `--chips C` on infer/stream/tune/profile splits the
// --cores total across C identical chips (C must divide it), lowers the
// net as a stage pipeline via sched::lower_pipelined, and prices stage
// boundaries on the package's serial inter-chip links. The default
// `--chips 1` is the flat machine, bit-identical to builds before the
// hierarchy existed.
//
// Tuned schedules: `tune` searches per-layer partition dims x core
// placement x overlap on the analytic cost model, validates the winners
// flit-level, and records the best in a JSON schedule cache
// (--tuned-cache PATH, else $LS_TUNE_CACHE, else tuned_schedules.json).
// `infer` and `stream` transparently execute a cached tuned schedule for
// their exact (net, cores, strategy, NoC) configuration and fall back
// bit-exactly to the kernel-wise schedule when the store has no entry
// (--no-tuned skips the lookup entirely).
//
// Observability: `--trace out.json` writes a Chrome-trace/Perfetto timeline
// and `--metrics out.json` dumps the process metrics registry (counters,
// histograms, NoC link heatmap) when the run finishes. The LS_TRACE /
// LS_METRICS environment variables do the same for any command.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/traffic.hpp"
#include "nn/layer_spec.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prof/attribution.hpp"
#include "prof/model_error.hpp"
#include "prof/report.hpp"
#include "sched/cost_model.hpp"
#include "sched/schedule.hpp"
#include "sched/verify.hpp"
#include "sim/system.hpp"
#include "tune/schedule_cache.hpp"
#include "tune/tuner.hpp"
#include "util/json_in.hpp"
#include "util/table.hpp"

namespace {

using namespace ls;

struct Args {
  std::map<std::string, std::string> kv;
  bool flag(const std::string& name) const { return kv.count("--" + name); }
  std::string str(const std::string& name, const std::string& dflt) const {
    const auto it = kv.find("--" + name);
    return it == kv.end() ? dflt : it->second;
  }
  double num(const std::string& name, double dflt) const {
    const auto it = kv.find("--" + name);
    return it == kv.end() ? dflt : std::atof(it->second.c_str());
  }
};

Args parse(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    // A flag followed by another flag (or nothing) is a switch set to "1".
    const bool has_value =
        i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    args.kv.insert_or_assign(std::move(key),
                             std::string(has_value ? argv[++i] : "1"));
  }
  return args;
}

nn::NetSpec analytic_net(const std::string& name) {
  if (name == "mlp") return nn::mlp_spec();
  if (name == "lenet") return nn::lenet_spec();
  if (name == "convnet") return nn::convnet_spec();
  if (name == "alexnet") return nn::alexnet_spec();
  if (name == "vgg19") return nn::vgg19_spec();
  throw std::invalid_argument("unknown analytic net: " + name +
                              " (mlp|lenet|convnet|alexnet|vgg19)");
}

/// Applies the shared --cores / --chips / --no-cache knobs. CmpSystem's
/// constructor rejects a chip count that cannot tile the cores.
void apply_system_args(const Args& args, sim::SystemConfig* cfg) {
  cfg->cores = static_cast<std::size_t>(args.num("cores", 16));
  cfg->chips = static_cast<std::size_t>(args.num("chips", 1));
  if (args.flag("no-cache")) cfg->noc_result_cache = false;
}

std::string system_desc(const sim::SystemConfig& cfg) {
  std::string out = std::to_string(cfg.cores) + " cores";
  if (cfg.chips > 1) {
    out += " (" + std::to_string(cfg.chips) + " chips x " +
           std::to_string(cfg.cores / cfg.chips) + ")";
  }
  return out;
}

std::string tuned_cache_path(const Args& args) {
  const std::string flag = args.str("tuned-cache", "");
  if (!flag.empty()) return flag;
  const char* env = std::getenv("LS_TUNE_CACHE");
  if (env != nullptr && env[0] != '\0') return env;
  return "tuned_schedules.json";
}

tune::CacheKey tune_key(const nn::NetSpec& spec,
                        const sim::SystemConfig& cfg) {
  tune::CacheKey key;
  key.net = spec.name;
  key.cores = cfg.cores;
  key.strategy = sched::Strategy::kTraditional;
  key.noc = cfg.noc;
  key.noc_clock_divider = cfg.noc_clock_divider;
  key.chips = cfg.chips;
  return key;
}

/// Transparent tuned-schedule pickup for infer/stream: on a store hit the
/// cached candidate is lowered against this exact traffic; on a miss (or
/// --no-tuned) the untuned kernel-wise schedule is returned unchanged —
/// bit-exact with the historical path.
sched::Schedule schedule_for_run(const Args& args, const nn::NetSpec& spec,
                                 const sim::SystemConfig& cfg,
                                 const sim::CmpSystem& system,
                                 const core::InferenceTraffic& traffic) {
  static obs::Counter& hits =
      obs::Registry::instance().counter("tune.cache_hits");
  static obs::Counter& misses =
      obs::Registry::instance().counter("tune.cache_misses");
  if (!args.flag("no-tuned")) {
    tune::ScheduleCache cache;
    std::string error;
    if (!cache.load_file(tuned_cache_path(args), &error)) {
      std::fprintf(stderr, "warning: %s (running untuned)\n", error.c_str());
    } else if (const tune::CacheEntry* e = cache.find(tune_key(spec, cfg))) {
      hits.inc();
      std::printf("using tuned schedule from %s (est %llu cyc, validated "
                  "%llu cyc)\n",
                  tuned_cache_path(args).c_str(),
                  static_cast<unsigned long long>(e->est_cycles),
                  static_cast<unsigned long long>(e->sim_cycles));
      return tune::lower_candidate(spec, traffic, cfg, e->candidate,
                                   sched::Strategy::kTraditional);
    }
    misses.inc();
  }
  return system.build_schedule(spec, traffic);
}

int cmd_infer(const Args& args) {
  const nn::NetSpec spec = analytic_net(args.str("net", "alexnet"));
  sim::SystemConfig cfg;
  apply_system_args(args, &cfg);
  cfg.overlap_comm = args.flag("overlap");
  const sim::CmpSystem system(cfg);
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
  const sched::Schedule schedule =
      schedule_for_run(args, spec, cfg, system, traffic);
  const std::string dump_path = args.str("schedule-dump", "");
  if (!dump_path.empty()) {
    std::FILE* f = std::fopen(dump_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   dump_path.c_str());
      return 1;
    }
    // The dump carries the analytic scorer's per-event cycle estimates
    // alongside the structure, so a plan can be inspected without
    // re-running the flit simulation.
    const sched::CycleEstimate estimate =
        sched::estimate_cycles(schedule, tune::cost_model_for(cfg));
    const std::string json = sched::to_json(schedule, &estimate);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("schedule (%zu events, %s) dumped to %s\n",
                schedule.events.size(), sched::to_string(schedule.strategy),
                dump_path.c_str());
  }
  const sim::InferenceResult r = system.execute(schedule);

  util::Table t(spec.name + " inference on " + system_desc(cfg));
  t.set_header({"layer", "compute-cyc", "comm-cyc", "blocking-cyc", "traffic",
                "noc-energy"});
  for (const auto& tl : r.layers) {
    t.add_row({tl.layer_name, std::to_string(tl.compute_cycles),
               std::to_string(tl.comm_cycles),
               std::to_string(tl.blocking_comm_cycles),
               util::fmt_bytes(double(tl.traffic_bytes)),
               util::fmt_double(tl.noc_energy_pj / 1e6, 2) + " uJ"});
  }
  t.print();
  std::printf(
      "total %llu cyc (compute %llu + blocking comm %llu), comm fraction "
      "%.1f%%, energy %.2f uJ\n",
      static_cast<unsigned long long>(r.total_cycles),
      static_cast<unsigned long long>(r.compute_cycles),
      static_cast<unsigned long long>(r.comm_cycles),
      100.0 * r.comm_fraction(), r.total_energy_pj() / 1e6);

  // Router-total flit heatmap of the mesh, accumulated by the metrics
  // registry from the per-link counts of every simulated burst.
  const obs::LinkHeatmap hm = obs::Registry::instance().link_heatmap();
  if (hm.cols > 0 && hm.rows > 0) {
    std::printf("\nNoC flit heatmap (%zux%zu mesh, flits per router):\n",
                hm.cols, hm.rows);
    for (std::size_t y = 0; y < hm.rows; ++y) {
      for (std::size_t x = 0; x < hm.cols; ++x) {
        std::printf("  %10llu", static_cast<unsigned long long>(
                                    hm.router_total(y * hm.cols + x)));
      }
      std::printf("\n");
    }
  }
  return 0;
}

int cmd_stream(const Args& args) {
  const nn::NetSpec spec = analytic_net(args.str("net", "convnet"));
  sim::SystemConfig cfg;
  apply_system_args(args, &cfg);
  const auto requests = static_cast<std::size_t>(args.num("requests", 8));
  const sim::CmpSystem system(cfg);
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
  const sched::Schedule schedule =
      schedule_for_run(args, spec, cfg, system, traffic);
  const sim::StreamResult s = system.run_stream(schedule, requests);

  util::Table t(spec.name + " stream of " + std::to_string(requests) +
                " requests on " + system_desc(cfg));
  t.set_header({"metric", "value"});
  t.add_row({"single-pass latency",
             std::to_string(s.single_pass.total_cycles) + " cyc"});
  t.add_row({"pipeline fill", std::to_string(s.fill_cycles) + " cyc"});
  t.add_row({"makespan", std::to_string(s.makespan_cycles) + " cyc"});
  t.add_row({"throughput", util::fmt_double(s.throughput_per_mcycle, 2) +
                               " inf/Mcyc"});
  t.add_row({"core occupancy", util::fmt_percent(s.compute_occupancy)});
  t.add_row({"NoC occupancy", util::fmt_percent(s.noc_occupancy)});
  if (cfg.chips > 1) {
    t.add_row({"inter-chip link occupancy",
               util::fmt_percent(s.inter_chip_occupancy)});
  }
  t.add_row({"speedup vs back-to-back",
             util::fmt_speedup(s.speedup_vs_back_to_back)});
  t.print();
  return 0;
}

int cmd_tune(const Args& args) {
  const nn::NetSpec spec = analytic_net(args.str("net", "convnet"));
  sim::SystemConfig cfg;
  apply_system_args(args, &cfg);
  cfg.overlap_comm = args.flag("overlap");
  const sim::CmpSystem system(cfg);
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);

  tune::TunerConfig tcfg;
  tcfg.budget = static_cast<std::uint64_t>(args.num("budget", 2000));
  tcfg.restarts = static_cast<std::size_t>(args.num("restarts", 4));
  tcfg.top_k = static_cast<std::size_t>(args.num("top-k", 3));
  tcfg.seed = static_cast<std::uint64_t>(args.num("seed", 0x4c535343));
  const tune::TuneOutcome out = tune::tune(spec, traffic, cfg, tcfg);

  util::Table t("tuned " + spec.name + " on " + system_desc(cfg));
  t.set_header({"schedule", "est-cyc", "sim-cyc", "speedup"});
  t.add_row({"kernel-wise baseline", std::to_string(out.baseline_est_cycles),
             std::to_string(out.baseline_sim_cycles), "1x"});
  t.add_row({"tuned", std::to_string(out.best_est_cycles),
             std::to_string(out.best_sim_cycles),
             util::fmt_speedup(out.speedup_sim())});
  t.print();
  std::string dims;
  for (const sched::PartitionDim d : out.best.layer_dims) {
    dims += dims.empty() ? "" : ",";
    dims += sched::to_string(d);
  }
  std::printf("dims: [%s]  overlap: %s  evals: %llu  validated: %zu\n",
              dims.c_str(), out.best.overlap_comm ? "on" : "off",
              static_cast<unsigned long long>(out.evals), out.validated);

  const std::string path = tuned_cache_path(args);
  tune::ScheduleCache cache;
  std::string error;
  if (!cache.load_file(path, &error)) {
    // A stale-format store is exactly what this retune replaces: warn,
    // start fresh, and let the save below rewrite it at the current
    // version. (verify/infer keep their own policies: hard fail / miss.)
    std::fprintf(stderr, "warning: %s (starting a fresh store)\n",
                 error.c_str());
    cache = tune::ScheduleCache{};
  }
  tune::CacheEntry entry;
  entry.candidate = out.best;
  entry.est_cycles = out.best_est_cycles;
  entry.sim_cycles = out.best_sim_cycles;
  entry.baseline_sim_cycles = out.baseline_sim_cycles;
  entry.seed = tcfg.seed;
  entry.budget = tcfg.budget;
  cache.put(tune_key(spec, cfg), entry);
  if (!cache.save_file(path)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("best schedule cached in %s (%zu entries)\n", path.c_str(),
              cache.size());
  return 0;
}

/// Audits one cache entry: parse the canonical key, rebuild the system it
/// targets, lower the candidate against freshly derived traffic (lowering
/// rejects malformed dims and placements), and run the static verifier.
/// Returns "" when the entry is sound, else newline-terminated diagnostic
/// lines.
std::string audit_entry(const std::string& key_string,
                        const tune::CacheEntry& entry) {
  tune::CacheKey key;
  if (!tune::parse_cache_key(key_string, &key)) {
    return "non-canonical cache key\n";
  }
  // Cache keys carry the spec's display name (tune_key uses spec.name,
  // e.g. "ConvNet"), so resolve against both spellings.
  nn::NetSpec spec;
  bool net_ok = false;
  for (const char* cli : {"mlp", "lenet", "convnet", "alexnet", "vgg19"}) {
    nn::NetSpec s = analytic_net(cli);
    if (s.name == key.net || key.net == cli) {
      spec = std::move(s);
      net_ok = true;
      break;
    }
  }
  if (!net_ok) return "unknown net '" + key.net + "'\n";

  sim::SystemConfig cfg;
  cfg.cores = key.cores;
  cfg.chips = key.chips;
  cfg.noc = key.noc;
  cfg.noc_clock_divider = key.noc_clock_divider;
  try {
    // Traffic rides each chip's own mesh (== the whole machine when the
    // key has one chip); the system rejects chips that cannot tile cores.
    const sim::CmpSystem system(cfg);
    const auto traffic =
        core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
    return system
        .verify(tune::lower_candidate(spec, traffic, cfg, entry.candidate,
                                      key.strategy))
        .to_string();
  } catch (const std::exception& e) {
    return "lowering failed: " + std::string(e.what()) + "\n";
  }
}

/// `ls_experiment verify`: static audit of an entire tuned-schedule cache
/// file. Exits nonzero on any violation, so a stale or hand-edited cache
/// fails tier-1 instead of feeding the executor garbage at serving time.
int cmd_verify(const Args& args) {
  const std::string path = tuned_cache_path(args);
  tune::ScheduleCache cache;
  std::string error;
  if (!cache.load_file(path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (cache.entries().empty()) {
    std::printf("verify: %s has no entries — nothing to audit\n",
                path.c_str());
    return 0;
  }

  std::size_t failures = 0;
  for (const auto& [key_string, entry] : cache.entries()) {
    const std::string fail = audit_entry(key_string, entry);
    if (fail.empty()) {
      std::printf("  ok    %s\n", key_string.c_str());
    } else {
      ++failures;
      std::printf("  FAIL  %s\n", key_string.c_str());
      for (std::size_t pos = 0; pos < fail.size();) {
        const std::size_t eol = fail.find('\n', pos);
        std::printf("        %s\n", fail.substr(pos, eol - pos).c_str());
        pos = eol + 1;
      }
    }
  }
  std::printf("verify: %zu/%zu entries ok in %s\n",
              cache.entries().size() - failures, cache.entries().size(),
              path.c_str());
  return failures == 0 ? 0 : 1;
}

int cmd_profile(const Args& args) {
  const nn::NetSpec spec = analytic_net(args.str("net", "convnet"));
  sim::SystemConfig cfg;
  apply_system_args(args, &cfg);
  const auto requests = static_cast<std::size_t>(args.num("requests", 8));
  const sim::CmpSystem system(cfg);
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
  const sched::Schedule schedule =
      schedule_for_run(args, spec, cfg, system, traffic);

  // Executed stream + its timeline (the attribution substrate). The
  // embedded single_pass is bit-identical to execute() on this schedule.
  sim::StreamTimeline timeline;
  const sim::StreamResult s =
      system.run_stream(schedule, requests, 0, &timeline);

  const prof::ModelErrorReport model_error = prof::compare_model(
      schedule, tune::cost_model_for(cfg), s.single_pass);
  const prof::StreamAttribution attribution =
      prof::attribute_stream(schedule, timeline);
  const prof::StreamLatency latency =
      prof::stream_latency(schedule, timeline);

  // Tuner search telemetry: a small profiling search by default
  // (--tune-budget 0 skips it; it shares no state with the run above).
  tune::TuneOutcome tuned;
  tune::TuneTelemetry telemetry;
  const auto tune_budget =
      static_cast<std::uint64_t>(args.num("tune-budget", 400));
  if (tune_budget > 0) {
    tune::TunerConfig tcfg;
    tcfg.budget = tune_budget;
    tcfg.restarts = static_cast<std::size_t>(args.num("restarts", 4));
    tcfg.top_k = static_cast<std::size_t>(args.num("top-k", 3));
    tcfg.seed = static_cast<std::uint64_t>(args.num("seed", 0x4c535343));
    tuned = tune::tune(spec, traffic, cfg, tcfg,
                       sched::Strategy::kTraditional, &telemetry);
  }

  prof::ProfileInputs inputs;
  inputs.net_name = spec.name;
  inputs.cores = cfg.cores;
  inputs.requests = requests;
  inputs.single_pass = &s.single_pass;
  inputs.model_error = &model_error;
  inputs.stream = &attribution;
  inputs.latency = &latency;
  if (tune_budget > 0) {
    inputs.tune_outcome = &tuned;
    inputs.tune_telemetry = &telemetry;
  }
  const std::string json = prof::build_profile_json(inputs);

  const std::string out_path = args.str("out", "profile.json");
  {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   out_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  // The report must round-trip through the repo's own parser — a profile
  // nothing can read is worse than none.
  util::JsonValue parsed;
  std::string error;
  if (!util::parse_json_file(out_path, &parsed, &error)) {
    std::fprintf(stderr, "error: %s does not parse back: %s\n",
                 out_path.c_str(), error.c_str());
    return 1;
  }

  const prof::BlameBreakdown& blame = attribution.blame;
  util::Table t(spec.name + " profile: " + std::to_string(requests) +
                " requests on " + system_desc(cfg));
  t.set_header({"metric", "value"});
  const auto cyc = [](std::uint64_t v) { return std::to_string(v) + " cyc"; };
  const auto pct = [&](std::uint64_t v) {
    return util::fmt_percent(
        attribution.makespan_cycles
            ? static_cast<double>(v) /
                  static_cast<double>(attribution.makespan_cycles)
            : 0.0);
  };
  t.add_row({"stream makespan", cyc(attribution.makespan_cycles)});
  t.add_row({"blame: compute", cyc(blame.compute_cycles) + " (" +
                                   pct(blame.compute_cycles) + ")"});
  t.add_row({"blame: NoC contention",
             cyc(blame.noc_cycles) + " (" + pct(blame.noc_cycles) + ")"});
  if (cfg.chips > 1) {
    t.add_row({"blame: inter-chip link", cyc(blame.inter_chip_cycles) + " (" +
                                             pct(blame.inter_chip_cycles) +
                                             ")"});
    t.add_row({"blame: dep stall on inter-chip",
               cyc(blame.dep_stall_on_inter_chip_cycles) + " (" +
                   pct(blame.dep_stall_on_inter_chip_cycles) + ")"});
  }
  t.add_row({"blame: dep stall on comm",
             cyc(blame.dep_stall_on_comm_cycles) + " (" +
                 pct(blame.dep_stall_on_comm_cycles) + ")"});
  t.add_row({"blame: dep stall on compute",
             cyc(blame.dep_stall_on_compute_cycles) + " (" +
                 pct(blame.dep_stall_on_compute_cycles) + ")"});
  t.add_row({"latency p50 / p95 / p99",
             util::fmt_double(latency.p50_cycles, 0) + " / " +
                 util::fmt_double(latency.p95_cycles, 0) + " / " +
                 util::fmt_double(latency.p99_cycles, 0) + " cyc"});
  t.add_row({"model comm err (mean signed)",
             util::fmt_percent(model_error.comm_rel_error.mean())});
  t.print();

  util::Table lt("per-layer cost-model error (" + spec.name + ")");
  lt.set_header({"layer", "est-comm", "act-comm", "comm-err", "compute-err"});
  for (const auto& e : model_error.layers) {
    lt.add_row({e.layer_name, std::to_string(e.est_comm_cycles),
                std::to_string(e.act_comm_cycles),
                util::fmt_percent(e.comm_rel_error),
                util::fmt_percent(e.compute_rel_error)});
  }
  lt.print();
  std::printf("profile written to %s (%zu bytes, parses back OK)\n",
              out_path.c_str(), json.size());
  return 0;
}

void usage() {
  std::puts(
      "usage: ls_experiment <command> [--key value ...]\n"
      "  infer      --net mlp|lenet|convnet|alexnet|vgg19 --cores N\n"
      "             [--chips C] [--overlap] [--no-cache]\n"
      "             [--schedule-dump out.json]\n"
      "             [--tuned-cache store.json] [--no-tuned]\n"
      "  stream     --net mlp|lenet|convnet|alexnet|vgg19 --cores N\n"
      "             [--chips C] [--requests N] [--no-cache]\n"
      "             [--tuned-cache store.json] [--no-tuned]\n"
      "  tune       --net mlp|lenet|convnet|alexnet|vgg19 --cores N\n"
      "             [--chips C] [--budget N] [--restarts N] [--top-k N]\n"
      "             [--seed N] [--overlap] [--tuned-cache store.json]\n"
      "  profile    --net mlp|lenet|convnet|alexnet|vgg19 --cores N\n"
      "             [--chips C] [--requests N] [--out profile.json]\n"
      "             [--tune-budget N] [--no-cache]\n"
      "             [--tuned-cache store.json] [--no-tuned]\n"
      "  (--chips C pipelines stages across C chips; C must divide the\n"
      "   core count)\n"
      "  verify     [--tuned-cache store.json]\n"
      "             statically audit every cached tuned schedule; exits\n"
      "             nonzero on any violation\n"
      "global observability flags (any command):\n"
      "  --trace out.json    write a Perfetto/chrome-trace timeline\n"
      "  --metrics out.json  dump the metrics registry (counters, heatmap)\n"
      "  (or set LS_TRACE / LS_METRICS in the environment)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args = parse(argc, argv, 2);
  ls::obs::init_from_env();  // LS_TRACE / LS_METRICS
  const std::string trace_path = args.str("trace", "");
  const std::string metrics_path = args.str("metrics", "");
  if (!trace_path.empty()) ls::obs::Tracer::instance().start(trace_path);
  if (!metrics_path.empty()) {
    ls::obs::Registry::instance().set_output(metrics_path);
  }
  int rc = 2;
  try {
    if (cmd == "infer") {
      rc = cmd_infer(args);
    } else if (cmd == "stream") {
      rc = cmd_stream(args);
    } else if (cmd == "tune") {
      rc = cmd_tune(args);
    } else if (cmd == "profile") {
      rc = cmd_profile(args);
    } else if (cmd == "verify") {
      rc = cmd_verify(args);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  // Flush observers explicitly so outputs exist even though the atexit
  // fallback (from init_from_env) would also write them.
  ls::obs::Tracer::instance().finish();
  ls::obs::Registry::instance().finish();
  return rc;
}
