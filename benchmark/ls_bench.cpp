// ls_bench: the repository benchmark. One workload per process.
//
//   ls_bench --workload NAME [--seed N] [--seconds S] [--trace PATH]
//            [--json PATH]
//   ls_bench --smoke [--trace PATH]
//
// Untraced (no --trace): sets the workload up several times and reports the
// median as setup_s, then repeats the timed job for S seconds (at least
// once) and reports the median repetition as run_s, with peak RSS and the
// model-cycle outputs of the served schedule. These are the end-to-end
// metrics.
//
// Traced (--trace PATH): the same untraced measurement, then one more set-up
// and repetition with ls_bench's own `bench.<layer>.<call>` spans and the
// library tracer on. The trace is written to PATH, read back, and reduced
// to the per-layer metrics, plus the tracing overhead against the untraced
// median.
//
// --smoke runs every workload at small sizes (the MLP row for training),
// untraced and traced, and exits nonzero when any check fails.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": v, "unit": u}, ...}}
// --json PATH additionally writes the full result with its provenance.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "nn/gemm_simd.hpp"
#include "noc/sim_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/json_in.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

using namespace ls;
using namespace ls::bench;
using Clock = std::chrono::steady_clock;

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The metrics BENCHMARK.json lists, in its order: the benchmark reports
/// exactly these, with these units.
struct Catalogue {
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

Catalogue load_catalogue() {
  const std::string path = LS_BENCH_SPEC;
  util::JsonValue doc;
  std::string error;
  if (!util::parse_json_file(path, &doc, &error)) {
    throw std::runtime_error("cannot read " + path + ": " + error);
  }
  auto list = [&](const char* key) {
    const util::JsonValue* metrics = doc.find(key);
    if (metrics == nullptr ||
        metrics->kind() != util::JsonValue::Kind::kArray) {
      throw std::runtime_error(path + " has no \"" + key + "\" array");
    }
    std::vector<MetricDef> defs;
    for (const util::JsonValue& m : metrics->as_array()) {
      const util::JsonValue* name = m.find("name");
      const util::JsonValue* unit = m.find("unit");
      if (name == nullptr || unit == nullptr) {
        throw std::runtime_error(path + ": a \"" + key +
                                 "\" entry lacks name or unit");
      }
      defs.push_back({name->as_string(), unit->as_string()});
    }
    return defs;
  };
  return {list("end_to_end"), list("per_layer")};
}

const Catalogue& catalogue() {
  static const Catalogue c = load_catalogue();
  return c;
}

// Set-up repetitions: at least kMinSetups, then more while they stay
// within kSetupSeconds, so sub-second set-ups still get a stable median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 400;
constexpr double kSetupSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  std::string trace_path;
  std::string json_path;
  bool smoke = false;
};

struct RunResult {
  std::string workload;
  std::string describe;
  Ledger ledger;
  /// Every repetition, traced or not, reproduced the first one's model
  /// outputs exactly.
  bool deterministic = true;
  std::vector<double> setup_s;
  std::vector<double> run_s;
  ModelOutputs model;
  double peak_rss_mb = 0.0;
  bool traced = false;
  Values layer;

  bool correct() const { return ledger.failed() == 0 && deterministic; }
};

[[noreturn]] void usage(const char* error) {
  std::fprintf(stderr,
               "ls_bench: %s\n"
               "usage: ls_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace PATH] [--json PATH]\n"
               "       ls_bench --smoke [--trace PATH]\n",
               error);
  std::exit(2);
}

template <typename T>
T parse_number(const char* flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto res = std::from_chars(text, end, value);
  if (res.ec != std::errc() || res.ptr != end) {
    usage((std::string("bad value for ") + flag + ": " + text).c_str());
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>("--seed", v);
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>("--seconds", v);
      if (!(a.seconds >= 0.0 && a.seconds <= 3600.0)) {
        usage("--seconds must be within [0, 3600]");
      }
    } else if (flag == "--trace") {
      a.trace_path = v;
    } else if (flag == "--json") {
      a.json_path = v;
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (a.smoke) {
    if (!a.workload.empty()) usage("--smoke runs every workload");
    if (a.trace_path.empty()) a.trace_path = "ls_bench-smoke.trace.json";
    a.seconds = 0.0;
  } else if (a.workload.empty()) {
    usage("--workload is required");
  }
  return a;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

// One job repetition; a throw is one failed operation.
bool run_rep(Workload& w, Ledger& ledger, Values& values, ModelOutputs* out) {
  try {
    *out = w.run(ledger, values);
    return true;
  } catch (const std::exception& e) {
    ledger.op(false, std::string("job repetition threw: ") + e.what());
    return false;
  }
}

double value_or_zero(const Values& v, const std::string& key) {
  const auto it = v.find(key);
  return it == v.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Reduces one traced repetition (its trace summary, registry counter
// deltas and result values) to the per-layer metrics.
Values layer_metrics(const std::map<std::string, SpanTotals>& spans,
                     const Values& v, const Values& counters,
                     double traced_run_s, double untraced_run_s) {
  auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  auto total = [&](const char* name) { return span(name).total_s; };
  auto kernel_self = [&](const char* suffix) {
    double s = 0.0;
    const std::size_t n = std::strlen(suffix);
    for (const auto& [name, t] : spans) {
      if (t.cat == "kernel" && name.size() > n &&
          name.compare(name.size() - n, n, suffix) == 0) {
        s += t.self_s;
      }
    }
    return s;
  };

  Values m;
  for (const MetricDef& d : catalogue().per_layer) {
    m[d.name] = value_or_zero(v, d.name);
  }
  m["nn.fwd_s"] = kernel_self(".fwd");
  m["nn.bwd_s"] = kernel_self(".bwd");
  m["nn.sparse_macs_skipped"] = counters.at("sparse.macs_skipped");
  m["nn.sparse_blocks_skipped"] = counters.at("sparse.blocks_skipped");
  m["train.self_s"] = span("train.batch").self_s;
  m["train.batches"] = counters.at("train.batches");
  m["train.samples_per_s"] =
      ratio(value_or_zero(v, "train.samples"), total("train.batch"));
  m["core.traffic_s"] = total("bench.core.traffic");
  m["sched.lower_s"] = total("bench.sched.lower");
  m["sched.verify_s"] = total("bench.sched.verify");
  m["sched.estimate_s"] = total("bench.sched.estimate");
  m["noc.burst_s"] = total("noc.burst");
  const double hits = counters.at("noc.cache.hits");
  const double misses = counters.at("noc.cache.misses");
  m["noc.bursts_simulated"] = misses;
  m["noc.cache_hit_rate"] = ratio(hits, hits + misses);
  m["sim.execute_s"] = total("bench.sim.execute");
  m["sim.stream_s"] = total("bench.sim.stream");
  m["tune.s"] = total("bench.tune.tune");
  m["tune.search_s"] = total("tune.search");
  m["tune.validate_s"] = total("tune.validate");
  m["tune.evals_per_s"] =
      ratio(value_or_zero(v, "tune.evals"), m["tune.search_s"]);
  m["prof.attribute_s"] = total("bench.prof.attribute");
  m["bench.trace_overhead"] = ratio(traced_run_s, untraced_run_s) - 1.0;
  return m;
}

RunResult run_workload(const std::string& name, const WorkloadOptions& opts,
                       double seconds, const std::string& trace_path) {
  RunResult r;
  r.workload = name;
  const std::unique_ptr<Workload> w = make_workload(name, opts);
  if (!w) usage(("unknown workload " + name).c_str());
  r.describe = w->describe();

  // End-to-end measurement, tracing off. Smoke runs keep to kMinSetups.
  const double setup_window = opts.smoke ? 0.0 : kSetupSeconds;
  const Clock::time_point setups_start = Clock::now();
  do {
    const Clock::time_point t = Clock::now();
    w->setup();
    r.setup_s.push_back(seconds_since(t));
  } while (r.setup_s.size() < kMinSetups ||
           (r.setup_s.size() < kMaxSetups &&
            seconds_since(setups_start) < setup_window));

  Values values;
  const Clock::time_point jobs_start = Clock::now();
  do {
    const Clock::time_point t = Clock::now();
    ModelOutputs out;
    const bool ok = run_rep(*w, r.ledger, values, &out);
    r.run_s.push_back(seconds_since(t));
    if (!ok) {
      r.deterministic = false;
      break;
    }
    if (r.run_s.size() == 1) {
      r.model = out;
    } else if (!(out == r.model)) {
      r.deterministic = false;
    }
  } while (seconds_since(jobs_start) + median(r.run_s) <= seconds);
  r.peak_rss_mb = peak_rss_mb();
  if (trace_path.empty()) return r;

  // Traced repetition: library tracer on from set-up until the stream (see
  // serve() in workloads.cpp), bench.* layer spans throughout.
  const char* kCounters[] = {"sparse.macs_skipped", "sparse.blocks_skipped",
                             "train.batches", "noc.cache.hits",
                             "noc.cache.misses"};
  Values counters;
  for (const char* c : kCounters) {
    counters[c] = -static_cast<double>(counter(c));
  }
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start(trace_path);
  set_layer_spans(true);
  w->setup();
  Values traced_values;
  const Clock::time_point t = Clock::now();
  ModelOutputs out;
  const bool ok = run_rep(*w, r.ledger, traced_values, &out);
  const double traced_run_s = seconds_since(t);
  set_layer_spans(false);
  tracer.stop();
  traced_values["noc.flit_hops_per_s"] = w->probe_flit_hops_per_s();
  r.deterministic = r.deterministic && ok && out == r.model;
  for (const char* c : kCounters) counters[c] += static_cast<double>(counter(c));
  if (!tracer.write(trace_path)) {
    throw std::runtime_error("cannot write trace " + trace_path);
  }
  tracer.clear();
  r.layer = layer_metrics(summarize_trace(trace_path), traced_values, counters,
                          traced_run_s, median(r.run_s));
  r.traced = true;
  return r;
}

Values end_to_end(const RunResult& r) {
  return {
      {"setup_s", median(r.setup_s)},
      {"run_s", median(r.run_s)},
      {"peak_rss_mb", r.peak_rss_mb},
      {"latency_cycles", static_cast<double>(r.model.latency_cycles)},
      {"p50_latency_cycles", r.model.p50_latency_cycles},
      {"p99_latency_cycles", r.model.p99_latency_cycles},
      {"throughput_inf_per_mcycle", r.model.throughput_inf_per_mcycle},
      {"noc_energy_uj", r.model.noc_energy_uj},
  };
}

double metric_value(const Values& values, const std::string& name) {
  const auto it = values.find(name);
  if (it == values.end()) {
    throw std::runtime_error("BENCHMARK.json names metric " + name +
                             ", which ls_bench does not compute");
  }
  return it->second;
}

void write_metrics(util::JsonWriter& w, const std::vector<MetricDef>& defs,
                   const Values& values) {
  w.begin_object();
  for (const MetricDef& d : defs) {
    w.key(d.name).begin_object();
    w.key("value").value(metric_value(values, d.name));
    w.key("unit").value(d.unit);
    w.end_object();
  }
  w.end_object();
}

void print_metrics(const char* title, const std::vector<MetricDef>& defs,
                   const Values& values) {
  std::printf("%s\n", title);
  for (const MetricDef& d : defs) {
    std::printf("  %-34s %20.9g %s\n", d.name.c_str(),
                metric_value(values, d.name), d.unit.c_str());
  }
}

using Fields = std::vector<std::pair<const char*, std::string>>;

Fields provenance(const Args& a, const RunResult& r) {
  const bool simd = nn::simd::default_backend() == nn::simd::GemmBackend::kSimd;
  return {
      {"git", LS_BENCH_GIT_DESCRIBE},
      {"compiler", LS_BENCH_COMPILER},
      {"flags", LS_BENCH_FLAGS},
      {"build_type", LS_BENCH_BUILD_TYPE},
      {"microkernel_isa", nn::simd::microkernel_isa()},
      {"gemm_backend", simd ? "simd" : "scalar"},
      {"threads", std::to_string(util::num_threads())},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"seed", std::to_string(a.seed)},
      {"seconds", std::to_string(a.seconds)},
      {"workload", r.workload},
      {"workload_args", r.describe},
  };
}

void write_json_file(const std::string& path, const Args& a,
                     const RunResult& r) {
  util::JsonWriter w;
  w.begin_object();
  w.key("provenance").begin_object();
  for (const auto& [k, v] : provenance(a, r)) w.key(k).value(v);
  w.end_object();
  w.key("correct").value(r.correct());
  w.key("deterministic").value(r.deterministic);
  w.key("attempted").value(r.ledger.attempted());
  w.key("failed").value(r.ledger.failed());
  w.key("failures").begin_array();
  for (const std::string& f : r.ledger.failures()) w.value(f);
  w.end_array();
  w.key("setup_s_samples").begin_array();
  for (const double s : r.setup_s) w.value(s);
  w.end_array();
  w.key("run_s_samples").begin_array();
  for (const double s : r.run_s) w.value(s);
  w.end_array();
  w.key("end_to_end");
  write_metrics(w, catalogue().end_to_end, end_to_end(r));
  if (r.traced) {
    w.key("per_layer");
    write_metrics(w, catalogue().per_layer, r.layer);
  }
  w.end_object();
  if (!w.write_file(path)) {
    std::fprintf(stderr, "ls_bench: cannot write %s\n", path.c_str());
  }
}

void print_result(const Args& a, const RunResult& r) {
  for (const auto& [k, v] : provenance(a, r)) {
    std::printf("# %-16s %s\n", k, v.c_str());
  }
  std::printf("# setup repetitions %zu, job repetitions %zu\n",
              r.setup_s.size(), r.run_s.size());
  print_metrics("end-to-end (untraced):", catalogue().end_to_end,
                end_to_end(r));
  if (r.traced) {
    print_metrics("per-layer (traced):", catalogue().per_layer, r.layer);
  }
  std::printf("operations: %llu attempted, %llu failed%s\n",
              static_cast<unsigned long long>(r.ledger.attempted()),
              static_cast<unsigned long long>(r.ledger.failed()),
              r.deterministic ? "" : "; model outputs differ across repetitions");
}

// The final machine-readable line: end-to-end metrics untraced, per-layer
// metrics traced.
void print_last_line(const RunResult& r) {
  util::JsonWriter w;
  w.begin_object();
  w.key("correct").value(r.correct());
  w.key("attempted").value(r.ledger.attempted());
  w.key("failed").value(r.ledger.failed());
  w.key("metrics");
  if (r.traced) {
    write_metrics(w, catalogue().per_layer, r.layer);
  } else {
    write_metrics(w, catalogue().end_to_end, end_to_end(r));
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

// The benchmark measures what a user runs: every knob at its default.
void reject_knobs() {
  for (const char* knob :
       {"LS_CONV_IMPL", "LS_NOC_CACHE", "LS_TRACE", "LS_METRICS"}) {
    if (const char* v = std::getenv(knob); v != nullptr && v[0] != '\0') {
      std::fprintf(stderr, "ls_bench: unset %s; the benchmark runs defaults\n",
                   knob);
      std::exit(2);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  reject_knobs();
  util::ThreadPool::set_num_threads(std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4));

  try {
    catalogue();  // an unreadable BENCHMARK.json fails before any work
    if (args.smoke) {
      bool all_correct = true;
      std::set<std::string> nonzero;
      for (const std::string& name : workload_names()) {
        WorkloadOptions opts;
        opts.seed = args.seed;
        opts.smoke = true;
        const Clock::time_point t = Clock::now();
        const RunResult r = run_workload(name, opts, 0.0, args.trace_path);
        std::printf("smoke %-22s %s  %llu ops, %llu failed, %.2f s\n",
                    name.c_str(), r.correct() ? "ok  " : "FAIL",
                    static_cast<unsigned long long>(r.ledger.attempted()),
                    static_cast<unsigned long long>(r.ledger.failed()),
                    seconds_since(t));
        all_correct = all_correct && r.correct();
        const Values e2e = end_to_end(r);
        for (const MetricDef& d : catalogue().end_to_end) {
          metric_value(e2e, d.name);
        }
        for (const auto& [metric, value] : r.layer) {
          if (value != 0.0) nonzero.insert(metric);
        }
      }
      // A per-layer name ls_bench does not compute reads 0 on every
      // workload.
      for (const MetricDef& d : catalogue().per_layer) {
        if (nonzero.count(d.name) == 0) {
          std::printf("smoke: per-layer metric %s is 0 on every workload\n",
                      d.name.c_str());
          all_correct = false;
        }
      }
      return all_correct ? 0 : 1;
    }

    WorkloadOptions opts;
    opts.seed = args.seed;
    const RunResult r =
        run_workload(args.workload, opts, args.seconds, args.trace_path);
    print_result(args, r);
    if (!args.json_path.empty()) write_json_file(args.json_path, args, r);
    print_last_line(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ls_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
