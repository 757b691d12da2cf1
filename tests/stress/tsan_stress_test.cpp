// Thread-sanitizer stress suite (ctest label `stress`; CI runs it under
// -DLS_SAN=thread). Hammers every cross-thread seam the fast paths share:
//
//   * concurrent *external* parallel_for callers — the pool runs one job at
//     a time and overflow callers fall back to inline serial execution, so
//     results must stay bit-identical to a serial run;
//   * concurrent NocRunCache lookups on hot and cold keys;
//   * whole CmpSystem::run_inference calls racing on two threads (pool
//     dispatch + burst cache + obs counters all exercised at once);
//   * batched CmpSystem::execute calls racing on external threads, each
//     batch sharing bursts within itself and with the others, on a cold
//     burst cache;
//   * concurrent block-sparse forwards on per-thread layers over the shared
//     pool;
//   * conv forward (each task caching its own input slice) and backward
//     (one fan-out of dW tiles packing their own columns and per-sample
//     data-gradient tasks zeroing their own grad_in slices), full and short
//     batches, racing an external thread's inline passes;
//   * plane-parallel pooling and chunk-parallel ReLU, forward and backward,
//     racing an external thread's inline passes;
//   * concurrent streamed executions each accumulating a private
//     StreamTimeline and attributing blame over it.
//
// The suite also runs (and must pass) unsanitized — the assertions pin the
// determinism contract the sanitizer jobs then prove race-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "core/traffic.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/fc.hpp"
#include "nn/model_zoo.hpp"
#include "nn/pool.hpp"
#include "noc/sim_cache.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "prof/attribution.hpp"
#include "sched/schedule.hpp"
#include "sim/system.hpp"
#include "tensor/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ls {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(TsanStress, ConcurrentExternalParallelFor) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kItems = 2048;
  constexpr std::size_t kRounds = 8;

  std::vector<std::vector<double>> results(kThreads,
                                           std::vector<double>(kItems, 0.0));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &results] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        util::parallel_for(0, kItems, [&](std::size_t i) {
          results[t][i] = static_cast<double>(i) * 1.5 + 1.0;
        });
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(results[t][i], static_cast<double>(i) * 1.5 + 1.0)
          << "thread " << t << " item " << i;
    }
  }
}

TEST(TsanStress, ConcurrentNocRunCache) {
  noc::NocRunCache::instance().clear();
  const auto topo = noc::MeshTopology::for_cores(16);
  const noc::MeshNocSimulator sim(topo, noc::NocConfig{});

  // A few distinct bursts: every thread sweeps all of them repeatedly, so
  // the cache sees racing cold misses and hot hits on the same keys.
  std::vector<std::vector<noc::Message>> bursts;
  for (std::size_t b = 0; b < 4; ++b) {
    std::vector<noc::Message> msgs;
    for (std::size_t s = 0; s < 8; ++s) {
      msgs.push_back({s, (s + 3 + b) % 16, 64 * (b + 1) + 32 * s, 0});
    }
    bursts.push_back(std::move(msgs));
  }
  std::vector<noc::NocStats> expected;
  expected.reserve(bursts.size());
  for (const auto& msgs : bursts) expected.push_back(sim.run(msgs));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 16;
  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &bursts, &expected, &sim, &ok] {
      bool all_match = true;
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t b = 0; b < bursts.size(); ++b) {
          const noc::NocStats got =
              noc::NocRunCache::instance().run(sim, bursts[b]);
          all_match = all_match && got == expected[b];
        }
      }
      ok[t] = all_match;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t << " saw a mismatched cached stat";
  }
}

TEST(TsanStress, ConcurrentSystemRuns) {
  noc::NocRunCache::instance().clear();
  sim::SystemConfig cfg;
  cfg.cores = 16;
  const sim::CmpSystem system(cfg);
  const nn::NetSpec spec = nn::lenet_expt_spec();
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);

  const sim::InferenceResult serial = system.run_inference(spec, traffic);

  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kRounds = 4;
  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &system, &spec, &traffic, &serial, &ok] {
      bool all_match = true;
      for (std::size_t round = 0; round < kRounds; ++round) {
        const sim::InferenceResult r = system.run_inference(spec, traffic);
        all_match = all_match && r.total_cycles == serial.total_cycles &&
                    r.compute_cycles == serial.compute_cycles &&
                    r.comm_cycles == serial.comm_cycles &&
                    r.traffic_bytes == serial.traffic_bytes;
      }
      ok[t] = all_match;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t << " diverged from the serial run";
  }
}

TEST(TsanStress, ConcurrentBatchedExecutes) {
  // One batch dedups its bursts before dispatch, so racing duplicates can
  // only come from concurrent batches: three external threads execute the
  // same burst-sharing batch (a schedule, its overlap twin, the schedule
  // again) against a cold cache. Every result must equal the uncontended
  // one-at-a-time execution.
  sim::SystemConfig cfg;
  cfg.cores = 16;
  const sim::CmpSystem system(cfg);
  const nn::NetSpec spec = nn::lenet_expt_spec();
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
  sim::SystemConfig overlap_cfg = cfg;
  overlap_cfg.overlap_comm = true;
  const sched::Schedule plain = system.build_schedule(spec, traffic);
  const std::vector<sched::Schedule> batch = {
      plain, sim::CmpSystem(overlap_cfg).build_schedule(spec, traffic), plain};
  std::vector<sim::InferenceResult> want;
  for (const sched::Schedule& s : batch) want.push_back(system.execute(s));
  noc::NocRunCache::instance().clear();

  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kRounds = 4;
  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &system, &batch, &want, &ok] {
      bool all_match = true;
      for (std::size_t round = 0; round < kRounds; ++round) {
        all_match = all_match && system.execute(batch) == want;
      }
      ok[t] = all_match;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t << " batch diverged from serial";
  }
}

TEST(TsanStress, ConcurrentSparseForwards) {
  // One armed FC per thread (BlockSparsity::map is per-layer and not
  // thread-safe by contract); the racing surface is the shared pool the
  // sparse GEMMs fan out on.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 8;
  const Tensor in(Shape{4, 64}, 0.25f);

  std::vector<std::unique_ptr<nn::FullyConnected>> layers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    util::Rng rng(100 + t);
    auto fc = std::make_unique<nn::FullyConnected>("fc_stress", 64, 32, rng,
                                                   /*bias=*/false);
    fc->set_sparsity_partition(/*parts=*/4, /*in_units=*/8);
    // Prune block (p=0, c=0): rows 0..8 x cols 0..16 of the {32, 64} weight.
    for (std::size_t oc = 0; oc < 8; ++oc) {
      for (std::size_t k = 0; k < 16; ++k) {
        fc->weight().value.at2(oc, k) = 0.0f;
      }
    }
    fc->weight().bump();
    layers.push_back(std::move(fc));
  }

  std::vector<Tensor> first(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    first[t] = layers[t]->forward(in, false);
  }

  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &layers, &in, &first, &ok] {
      bool all_match = true;
      for (std::size_t round = 0; round < kRounds; ++round) {
        const Tensor out = layers[t]->forward(in, false);
        bool same = out.shape() == first[t].shape();
        for (std::size_t i = 0; same && i < out.numel(); ++i) {
          same = out[i] == first[t][i];
        }
        all_match = all_match && same;
      }
      ok[t] = all_match;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t << " sparse forward diverged";
  }
}

TEST(TsanStress, SampleParallelConvBackward) {
  // Conv backward is one fan-out: the dW tiles, each packing its own im2row
  // columns into its thread's buffer for every sample, then one task per
  // (sample, group) that zeroes and fills its grad_in slice. Forward tasks
  // each copy their input slice into the cached input. Dense, grouped and
  // sparse-armed layers run full and short batches (the short one
  // reallocates the cached input), with and without the input gradient, on
  // the 4-thread pool while a second external thread runs another layer's
  // passes, which take the inline path whenever the pool is busy. Every
  // result must match a 1-thread run byte for byte.
  struct ConvCase {
    std::size_t cin, cout, groups, parts;
  };
  const ConvCase cases[] = {
      {4, 16, 1, 0},   // dense: two dW row tiles
      {8, 16, 2, 0},   // grouped
      {16, 16, 1, 4},  // sparse-armed, block (p=0, c=0) pruned
      {6, 12, 1, 0},   // the external thread's layer
  };
  constexpr std::size_t kLayers = std::size(cases);
  std::vector<std::unique_ptr<nn::Conv2D>> layers;
  // Per layer: a full batch of 6 and a short batch of 2.
  std::vector<Tensor> ins, grads;
  for (std::size_t l = 0; l < kLayers; ++l) {
    const ConvCase& c = cases[l];
    nn::Conv2DConfig cfg;
    cfg.in_channels = c.cin;
    cfg.out_channels = c.cout;
    cfg.kernel = 3;
    cfg.pad = 1;
    cfg.groups = c.groups;
    util::Rng rng(300 + l);
    auto conv = std::make_unique<nn::Conv2D>("conv_stress", cfg, rng);
    if (c.parts > 0) {
      conv->set_sparsity_partition(c.parts);
      // Panels are 4 channels wide: zero out-channels 0..3 x in-channels
      // 0..3 of the {cout, cin, 3, 3} weight.
      for (std::size_t oc = 0; oc < 4; ++oc) {
        float* row = conv->weight().value.data() + oc * c.cin * 9;
        std::fill(row, row + 4 * 9, 0.0f);
      }
      conv->weight().bump();
    }
    for (const std::size_t batch : {6u, 2u}) {
      ins.push_back(
          Tensor::uniform(Shape{batch, c.cin, 9, 9}, -1.f, 1.f, rng));
      grads.push_back(Tensor::uniform(
          conv->output_shape(ins.back().shape()), -1.f, 1.f, rng));
    }
    layers.push_back(std::move(conv));
  }
  // For the full then the short batch: grad_in, weight.grad and bias.grad
  // of one backward, then weight.grad and bias.grad of backward_params,
  // each from zero gradients.
  auto backward_bytes = [&](std::size_t l) {
    nn::Conv2D& conv = *layers[l];
    std::vector<float> out;
    auto append = [&out](const Tensor& t) {
      out.insert(out.end(), t.data(), t.data() + t.numel());
    };
    for (std::size_t b = 2 * l; b < 2 * l + 2; ++b) {
      for (const bool input_grad : {true, false}) {
        conv.weight().grad = Tensor(conv.weight().value.shape(), 0.0f);
        conv.bias().grad = Tensor(conv.bias().value.shape(), 0.0f);
        conv.forward(ins[b], /*training=*/true);
        if (input_grad) {
          append(conv.backward(grads[b]));
        } else {
          conv.backward_params(grads[b]);
        }
        append(conv.weight().grad);
        append(conv.bias().grad);
      }
    }
    return out;
  };

  util::ThreadPool::set_num_threads(1);
  std::vector<std::vector<float>> expected;
  for (std::size_t l = 0; l < kLayers; ++l) {
    expected.push_back(backward_bytes(l));
  }
  util::ThreadPool::set_num_threads(4);

  constexpr std::size_t kRounds = 6;
  int external_ok = 0;
  std::thread external([&] {
    bool all_match = true;
    for (std::size_t round = 0; round < 2 * kRounds; ++round) {
      all_match = all_match && backward_bytes(kLayers - 1) == expected.back();
    }
    external_ok = all_match;
  });
  bool main_ok = true;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t l = 0; l + 1 < kLayers; ++l) {
      main_ok = main_ok && backward_bytes(l) == expected[l];
    }
  }
  external.join();
  util::ThreadPool::set_num_threads(0);
  EXPECT_TRUE(main_ok) << "pooled conv backward diverged from serial";
  EXPECT_TRUE(external_ok) << "external conv backward diverged from serial";
}

TEST(TsanStress, PoolAndReluFanOut) {
  // Pool2D fans out over (n, c) planes and ReLU over element chunks, with
  // overlapping max-pool windows so neighbouring outputs share inputs.
  // The external thread's passes run inline while the main thread holds
  // the pool; both must match a serial run bit for bit.
  struct Pass {
    nn::Pool2D max_pool{"pool_max", nn::PoolKind::kMax, 3, 2};
    nn::Pool2D avg_pool{"pool_avg", nn::PoolKind::kAvg, 2, 2};
    nn::ReLU relu{"relu"};
    Tensor in, pool_grad, avg_grad;
  };
  auto make_pass = [](std::uint64_t seed) {
    auto p = std::make_unique<Pass>();
    util::Rng rng(seed);
    p->in = Tensor::uniform(Shape{8, 8, 17, 17}, -1.f, 1.f, rng);
    p->pool_grad = Tensor::uniform(p->max_pool.output_shape(p->in.shape()),
                                   -1.f, 1.f, rng);
    p->avg_grad = Tensor::uniform(p->avg_pool.output_shape(p->in.shape()),
                                  -1.f, 1.f, rng);
    return p;
  };
  // Every output and gradient of one round, concatenated.
  auto run = [](Pass& p) {
    std::vector<float> out;
    auto append = [&](const Tensor& t) {
      out.insert(out.end(), t.data(), t.data() + t.numel());
    };
    const Tensor act = p.relu.forward(p.in, /*training=*/true);
    append(act);
    append(p.max_pool.forward(act, /*training=*/true));
    append(p.avg_pool.forward(act, /*training=*/true));
    append(p.relu.backward(p.max_pool.backward(p.pool_grad)));
    append(p.relu.backward(p.avg_pool.backward(p.avg_grad)));
    return out;
  };
  auto main_pass = make_pass(400);
  auto external_pass = make_pass(401);

  util::ThreadPool::set_num_threads(1);
  const std::vector<float> main_want = run(*main_pass);
  const std::vector<float> external_want = run(*external_pass);
  util::ThreadPool::set_num_threads(4);

  constexpr std::size_t kRounds = 8;
  int external_ok = 0;
  std::thread external([&] {
    bool all_match = true;
    for (std::size_t round = 0; round < kRounds; ++round) {
      all_match = all_match && run(*external_pass) == external_want;
    }
    external_ok = all_match;
  });
  bool main_ok = true;
  for (std::size_t round = 0; round < kRounds; ++round) {
    main_ok = main_ok && run(*main_pass) == main_want;
  }
  external.join();
  util::ThreadPool::set_num_threads(0);
  EXPECT_TRUE(main_ok) << "pooled relu/pool diverged from serial";
  EXPECT_TRUE(external_ok) << "external relu/pool diverged from serial";
}

TEST(TsanStress, ConcurrentStreamTimelineAttribution) {
  // PR 7 seam: run_stream appends to a caller-owned StreamTimeline while
  // the shared CmpSystem (pool, burst cache) is raced by other streams.
  // Every private timeline must attribute to the same makespan and blame
  // split as an uncontended run.
  noc::NocRunCache::instance().clear();
  sim::SystemConfig cfg;
  cfg.cores = 16;
  const sim::CmpSystem system(cfg);
  const nn::NetSpec spec = nn::lenet_expt_spec();
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
  const sched::Schedule schedule = system.build_schedule(spec, traffic);

  constexpr std::size_t kRequests = 6;
  sim::StreamTimeline ref_tl;
  system.run_stream(schedule, kRequests, 0, &ref_tl);
  const prof::StreamAttribution ref = prof::attribute_stream(schedule, ref_tl);

  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kRounds = 4;
  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &system, &schedule, &ref, &ok] {
      bool all_match = true;
      for (std::size_t round = 0; round < kRounds; ++round) {
        sim::StreamTimeline tl;
        system.run_stream(schedule, kRequests, 0, &tl);
        const prof::StreamAttribution a =
            prof::attribute_stream(schedule, tl);
        all_match = all_match && a.makespan_cycles == ref.makespan_cycles &&
                    a.blame.total() == ref.blame.total() &&
                    a.blame.compute_cycles == ref.blame.compute_cycles &&
                    a.blame.noc_cycles == ref.blame.noc_cycles &&
                    a.critical_chain == ref.critical_chain;
      }
      ok[t] = all_match;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t
                       << " attribution diverged under contention";
  }
}

}  // namespace
}  // namespace ls
