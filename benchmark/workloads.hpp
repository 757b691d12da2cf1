#pragma once
// The five ls_bench workloads. Each one rebuilds its inputs in setup() and
// runs one repetition of its timed job in run(); ls_bench.cpp decides how
// often to call each and what to time.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/system.hpp"

namespace ls::bench {

/// Model-domain results of one job repetition: the served schedule's single
/// pass and its closed-batch stream. Deterministic, so every repetition of a
/// run must reproduce them exactly.
struct ModelOutputs {
  std::uint64_t latency_cycles = 0;
  double p50_latency_cycles = 0.0;
  double p99_latency_cycles = 0.0;
  double throughput_inf_per_mcycle = 0.0;
  double noc_energy_uj = 0.0;

  friend bool operator==(const ModelOutputs&, const ModelOutputs&) = default;
};

struct WorkloadOptions {
  std::uint64_t seed = 42;
  /// Tiny sizes that run every check and metric path in seconds.
  bool smoke = false;
};

/// A workload lowers one net onto one system and ends every repetition by
/// serving a schedule: one single pass and one closed batch of requests.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Rebuilds every input of the timed job from scratch: burst-cache state,
  /// traffic, lowering and verification.
  virtual void setup() { prepare(); }
  /// One repetition of the timed job. Counts its operations in `ledger`,
  /// writes result-derived per-layer values into `values`.
  virtual ModelOutputs run(Ledger& ledger, Values& values) = 0;
  /// The workload's fixed arguments, for the provenance stamp.
  virtual std::string describe() const;

  /// Flit hops per second of one uncached flit-level simulation of the
  /// heaviest burst the last repetition served: the NoC simulator's own
  /// speed on this workload's traffic.
  double probe_flit_hops_per_s() const;

 protected:
  Workload(nn::NetSpec spec, const sim::SystemConfig& cfg,
           std::size_t requests);

  // Empties the burst cache, derives the dense layer-transition traffic on
  // one chip's mesh, lowers it and verifies the schedule.
  void prepare();

  // Serves `schedule` on this workload's system and request count. Also
  // reports the set-up traffic and remembers the heaviest burst for
  // probe_flit_hops_per_s().
  ModelOutputs serve_schedule(const sched::Schedule& schedule, Ledger& ledger,
                              Values& values,
                              sim::InferenceResult* pass_out = nullptr);

  nn::NetSpec spec_;
  sim::CmpSystem system_;
  std::size_t requests_;
  core::InferenceTraffic traffic_;
  sched::Schedule schedule_;

 private:
  std::vector<noc::Message> probe_burst_;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options);

}  // namespace ls::bench
