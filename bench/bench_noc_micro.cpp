// Google-benchmark microbenchmarks for the simulator and kernel hot paths:
// mesh NoC simulation throughput, conv forward/backward, and the
// group-Lasso proximal update. These guard the performance of the
// experiment harnesses rather than reproducing a paper artifact.

#include <benchmark/benchmark.h>

#include "core/traffic.hpp"
#include "core/weight_groups.hpp"
#include "nn/conv2d.hpp"
#include "nn/model_zoo.hpp"
#include "noc/simulator.hpp"
#include "train/group_lasso.hpp"
#include "train/masks.hpp"
#include "util/rng.hpp"

namespace {

using namespace ls;

void BM_NocUniformRandom(benchmark::State& state) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  const auto msg_bytes = static_cast<std::size_t>(state.range(1));
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(cores);
  const noc::MeshNocSimulator sim(topo, {});
  util::Rng rng(1);
  std::vector<noc::Message> msgs;
  for (std::size_t s = 0; s < cores; ++s) {
    std::size_t d = rng.uniform_index(cores);
    if (d == s) d = (d + 1) % cores;
    msgs.push_back({s, d, msg_bytes, 0});
  }
  std::uint64_t flits = 0;
  for (auto _ : state) {
    const auto stats = sim.run(msgs);
    flits += stats.total_flits;
    benchmark::DoNotOptimize(stats.completion_cycle);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flits));
}
BENCHMARK(BM_NocUniformRandom)
    ->Args({16, 4096})
    ->Args({16, 65536})
    ->Args({64, 4096});

void BM_NocAllToAll(benchmark::State& state) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(cores);
  const noc::MeshNocSimulator sim(topo, {});
  std::vector<noc::Message> msgs;
  for (std::size_t s = 0; s < cores; ++s) {
    for (std::size_t d = 0; d < cores; ++d) {
      if (s != d) msgs.push_back({s, d, 1024, 0});
    }
  }
  for (auto _ : state) {
    const auto stats = sim.run(msgs);
    benchmark::DoNotOptimize(stats.completion_cycle);
  }
}
BENCHMARK(BM_NocAllToAll)->Arg(16)->Arg(32);

// The burst shapes that set the flit-level benchmark workloads' run time,
// reported as flit hops simulated per second: a 32-core uniform all-to-all
// at 1/8 of VGG19/32's heaviest layer transition (25088 B per message) and
// a 64-core one at AlexNet/64's (2028 B).
void BM_NocAllToAllHops(benchmark::State& state) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  const auto msg_bytes = static_cast<std::size_t>(state.range(1));
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(cores);
  const noc::MeshNocSimulator sim(topo, {});
  std::vector<noc::Message> msgs;
  for (std::size_t s = 0; s < cores; ++s) {
    for (std::size_t d = 0; d < cores; ++d) {
      if (s != d) msgs.push_back({s, d, msg_bytes, 0});
    }
  }
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const auto stats = sim.run(msgs);
    hops += stats.flit_hops;
    benchmark::DoNotOptimize(stats.completion_cycle);
  }
  state.counters["flit_hops"] = benchmark::Counter(
      static_cast<double>(hops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NocAllToAllHops)
    ->Args({32, 25088})
    ->Args({64, 2028})
    ->Unit(benchmark::kMillisecond);

void BM_ConvForward(benchmark::State& state) {
  util::Rng rng(2);
  nn::Conv2DConfig cfg;
  cfg.in_channels = 16;
  cfg.out_channels = 32;
  cfg.kernel = 3;
  cfg.pad = 1;
  nn::Conv2D conv("bench", cfg, rng);
  const tensor::Tensor in =
      tensor::Tensor::uniform(tensor::Shape{8, 16, 16, 16}, -1.f, 1.f, rng);
  for (auto _ : state) {
    auto out = conv.forward(in, false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 32 * 16 * 16 * 16 * 9);
}
BENCHMARK(BM_ConvForward);

void BM_ConvBackward(benchmark::State& state) {
  util::Rng rng(2);
  nn::Conv2DConfig cfg;
  cfg.in_channels = 16;
  cfg.out_channels = 32;
  cfg.kernel = 3;
  cfg.pad = 1;
  nn::Conv2D conv("bench", cfg, rng);
  const tensor::Tensor in =
      tensor::Tensor::uniform(tensor::Shape{8, 16, 16, 16}, -1.f, 1.f, rng);
  const auto out = conv.forward(in, true);
  const tensor::Tensor grad =
      tensor::Tensor::uniform(out.shape(), -1.f, 1.f, rng);
  for (auto _ : state) {
    auto gi = conv.backward(grad);
    benchmark::DoNotOptimize(gi.data());
  }
}
BENCHMARK(BM_ConvBackward);

void BM_GroupLassoProximal(benchmark::State& state) {
  util::Rng rng(3);
  const nn::NetSpec spec = nn::mlp_expt_spec();
  nn::Network net = nn::build_network(spec, rng);
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(16);
  train::GroupLassoRegularizer reg(core::build_group_sets(net, spec, 16),
                                   train::distance_mask(topo), 0.1);
  for (auto _ : state) {
    reg.apply(0.01);
    benchmark::DoNotOptimize(reg.penalty());
  }
}
BENCHMARK(BM_GroupLassoProximal);

void BM_TrafficLive(benchmark::State& state) {
  util::Rng rng(4);
  const nn::NetSpec spec = nn::lenet_expt_spec();
  nn::Network net = nn::build_network(spec, rng);
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(16);
  for (auto _ : state) {
    auto traffic = core::traffic_live(net, spec, topo, 2);
    benchmark::DoNotOptimize(traffic.total_bytes());
  }
}
BENCHMARK(BM_TrafficLive);

}  // namespace

BENCHMARK_MAIN();
