// Reproduces the paper's §II.B argument against inter-layer (pipeline)
// model parallelism on embedded CMPs: "pipelining layers with distinct
// hyper-parameters cause severe load-imbalance issue on cores", and a
// pipeline does nothing for *single-pass* latency, which is the metric
// embedded/real-time inference cares about.
//
// For each network we compare, on the same 16-core system:
//   * intra-layer (the paper's traditional parallelization) single-pass
//     latency,
//   * pipeline single-pass latency (stages run one after another),
//   * pipeline steady-state initiation interval (its best case, with many
//     inferences in flight) and the load imbalance that gates it.

#include <cstdio>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "sim/pipeline_model.hpp"
#include "sim/system.hpp"
#include "util/table.hpp"

int main() {
  using namespace ls;
  std::puts("Learn-to-Scale bench: inter-layer pipelining vs intra-layer "
            "parallelization (16 cores)\n");

  util::Table t("single-pass latency and pipeline characteristics");
  t.set_header({"network", "intra-cyc", "pipe-cyc", "pipe-penalty",
                "pipe-interval", "imbalance", "stages"});

  for (const nn::NetSpec& spec :
       {nn::mlp_spec(), nn::lenet_spec(), nn::convnet_spec(),
        nn::alexnet_spec()}) {
    sim::SystemConfig cfg;
    cfg.cores = 16;
    sim::CmpSystem system(cfg);
    const auto traffic =
        core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
    const auto intra = system.run_inference(spec, traffic);

    const auto pipe = sim::run_pipeline(spec, cfg);

    t.add_row({spec.name, std::to_string(intra.total_cycles),
               std::to_string(pipe.single_pass_cycles),
               util::fmt_speedup(
                   static_cast<double>(pipe.single_pass_cycles) /
                       static_cast<double>(intra.total_cycles),
                   1),
               std::to_string(pipe.initiation_interval),
               util::fmt_double(pipe.load_imbalance, 2),
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
  return 0;
}
