#include "sim/system.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "check/check.hpp"
#include "core/partition.hpp"
#include "noc/sim_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/builders.hpp"
#include "sched/cost_model.hpp"
#include "sched/verify.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace ls::sim {

namespace {

// Emits one inference's model-time timeline onto the sim-cycles trace
// process: per-layer NoC burst spans on a dedicated "noc" track (tid = P)
// and per-core compute spans on core tracks (tid = core). `cursor` is the
// serialized model time at which the layer starts.
void trace_layer_timeline(const LayerTimeline& tl,
                          const std::vector<std::uint64_t>& per_core_cycles,
                          std::uint64_t cursor, std::size_t P) {
  obs::Tracer& tr = obs::Tracer::instance();
  if (tl.blocking_comm_cycles > 0) {
    char args[128];
    std::snprintf(args, sizeof(args),
                  "{\"bytes\":%zu,\"flits\":%llu,\"comm_cycles\":%llu}",
                  tl.traffic_bytes,
                  static_cast<unsigned long long>(tl.noc_stats.total_flits),
                  static_cast<unsigned long long>(tl.comm_cycles));
    tr.complete(tl.layer_name + " (burst)", "noc.burst", cursor,
                tl.blocking_comm_cycles, obs::kSimPid, P, args);
  }
  const std::uint64_t compute_start = cursor + tl.blocking_comm_cycles;
  for (std::size_t c = 0; c < per_core_cycles.size(); ++c) {
    if (per_core_cycles[c] == 0) continue;
    tr.complete(tl.layer_name, "compute", compute_start, per_core_cycles[c],
                obs::kSimPid, c);
  }
}

// Per-layer always-on metrics (counters accumulate across runs, like any
// process-wide metrics registry).
void record_layer_metrics(const LayerTimeline& tl) {
  obs::Registry& reg = obs::Registry::instance();
  const std::string prefix = "sim.layer." + tl.layer_name;
  reg.counter(prefix + ".compute_cycles").inc(tl.compute_cycles);
  reg.counter(prefix + ".comm_cycles").inc(tl.blocking_comm_cycles);
  reg.counter(prefix + ".traffic_bytes").inc(tl.traffic_bytes);
}

void name_sim_tracks(std::size_t P) {
  obs::Tracer& tr = obs::Tracer::instance();
  for (std::size_t c = 0; c < P; ++c) {
    tr.set_virtual_thread_name(obs::kSimPid, c, "core-" + std::to_string(c));
  }
  tr.set_virtual_thread_name(obs::kSimPid, P, "noc");
}

// "schedule 'AlexNet'", with its position when it is one of a batch.
std::string schedule_label(const sched::Schedule& schedule, std::size_t i,
                           std::size_t n) {
  std::string label = "schedule '" + schedule.net_name + "'";
  if (n > 1) {
    label += " (batch item " + std::to_string(i) + " of " +
             std::to_string(n) + ")";
  }
  return label;
}

std::size_t sequence_hash(const std::vector<noc::Message>& msgs) {
  std::size_t h = msgs.size();
  for (const noc::Message& m : msgs) {
    for (const std::size_t v :
         {m.src, m.dst, m.bytes, static_cast<std::size_t>(m.inject_cycle)}) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
  }
  return h;
}

// A batch's on-chip bursts, deduplicated by exact ordered message sequence
// (the burst cache's own key, so a hit and a shared burst agree on what
// "the same burst" means). bursts[b] is one distinct sequence in its chip's
// mesh coordinates; burst_of[s][i] is the burst of schedule s's event i, or
// kNone for compute events and inter-chip transfers (priced analytically,
// never flit-simulated).
struct BurstPlan {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<const std::vector<noc::Message>*> bursts;
  std::vector<std::vector<std::size_t>> burst_of;
  std::deque<std::vector<noc::Message>> localized;  ///< multi-chip copies

  BurstPlan(std::span<const sched::Schedule> schedules,
            std::size_t cores_per_chip) {
    std::unordered_multimap<std::size_t, std::size_t> by_hash;
    burst_of.reserve(schedules.size());
    for (const sched::Schedule& schedule : schedules) {
      std::vector<std::size_t>& of =
          burst_of.emplace_back(schedule.events.size(), kNone);
      for (std::size_t i = 0; i < schedule.events.size(); ++i) {
        const sched::Event& e = schedule.events[i];
        if (e.kind != sched::EventKind::kComm || e.inter_chip) continue;
        // Multi-chip bursts move onto their chip's mesh coordinates;
        // single-chip schedules pass the event's messages through
        // untouched, so burst-cache keys (and stats) stay bit-identical to
        // the flat machine.
        std::vector<noc::Message> local;
        if (schedule.chips > 1) {
          const std::size_t base = e.chip * cores_per_chip;
          local.reserve(e.messages.size());
          for (const noc::Message& m : e.messages) {
            local.push_back({m.src - base, m.dst - base, m.bytes, 0});
          }
        }
        const std::vector<noc::Message>& msgs =
            schedule.chips > 1 ? local : e.messages;
        const std::size_t h = sequence_hash(msgs);
        std::size_t b = kNone;
        for (auto [it, last] = by_hash.equal_range(h); it != last; ++it) {
          if (*bursts[it->second] == msgs) {
            b = it->second;
            break;
          }
        }
        if (b == kNone) {
          b = bursts.size();
          by_hash.emplace(h, b);
          bursts.push_back(schedule.chips > 1
                               ? &localized.emplace_back(std::move(local))
                               : &e.messages);
        }
        of[i] = b;
      }
    }
  }
};

}  // namespace

std::size_t cores_per_chip(const SystemConfig& cfg) {
  if (cfg.chips == 0 || cfg.cores % cfg.chips != 0) {
    throw std::invalid_argument(
        "CmpSystem: " + std::to_string(cfg.chips) +
        " chips cannot tile " + std::to_string(cfg.cores) + " cores");
  }
  return cfg.cores / cfg.chips;
}

CmpSystem::CmpSystem(const SystemConfig& cfg)
    : cfg_(cfg),
      topo_(noc::MeshTopology::for_cores(cores_per_chip(cfg))),
      core_model_(sched::per_core_accel(cfg.accel,
                                        cfg.chip_dram_bytes_per_cycle,
                                        topo_.num_cores())) {}

sched::Schedule CmpSystem::build_schedule(
    const nn::NetSpec& spec, const core::InferenceTraffic& traffic,
    const core::SparsityProfile* sparsity) const {
  sched::BuildOptions opts;
  opts.cores = topo_.num_cores();  // per chip == cfg_.cores when chips == 1
  opts.bytes_per_value = cfg_.bytes_per_value;
  opts.overlap_comm = cfg_.overlap_comm;
  opts.sparse_cycle_model = cfg_.sparse_cycle_model;
  const sched::Strategy strategy = sparsity != nullptr
                                       ? sched::Strategy::kSparsified
                                       : sched::Strategy::kTraditional;
  return sched::lower_pipelined(spec, traffic, opts, cfg_.chips, sparsity,
                                strategy);
}

InferenceResult CmpSystem::run_inference(
    const nn::NetSpec& spec, const core::InferenceTraffic& traffic,
    const core::SparsityProfile* sparsity) const {
  return execute(build_schedule(spec, traffic, sparsity));
}

InferenceResult CmpSystem::execute(const sched::Schedule& schedule,
                                   std::uint64_t stream_epoch) const {
  return std::move(execute(std::span(&schedule, 1), stream_epoch).front());
}

std::vector<InferenceResult> CmpSystem::execute(
    std::span<const sched::Schedule> schedules,
    std::uint64_t stream_epoch) const {
  // Front door: statically verify the whole batch before simulating a
  // single flit, so malformed schedules — stale tuned caches, hand-edited
  // dumps — are rejected with a structured diagnostic in every build.
  for (std::size_t s = 0; s < schedules.size(); ++s) {
    const sched::Schedule& schedule = schedules[s];
    const std::string label = schedule_label(schedule, s, schedules.size());
    if (schedule.cores != cfg_.cores) {
      throw std::invalid_argument(
          label + " targets " + std::to_string(schedule.cores) +
          " cores but this system has " + std::to_string(cfg_.cores));
    }
    if (schedule.chips != cfg_.chips) {
      throw std::invalid_argument(
          label + " targets " + std::to_string(schedule.chips) +
          " chips but this system has " + std::to_string(cfg_.chips));
    }
    if (const sched::VerifyReport report = verify(schedule); !report.ok()) {
      throw std::invalid_argument(label + " failed static verification:\n" +
                                  report.to_string());
    }
  }
  std::vector<InferenceResult> results;
  if (schedules.empty()) return results;

  const bool tracing = obs::trace_enabled();
  obs::Span run_span;
  if (tracing) {
    run_span.begin("sim.execute", "sim");
    name_sim_tracks(cfg_.cores);
  }
  const BurstPlan plan(schedules, topo_.num_cores());
  if (tracing) {
    run_span.set_args("{\"schedules\":" + std::to_string(schedules.size()) +
                      ",\"bursts\":" + std::to_string(plan.bursts.size()) +
                      "}");
  }

  // Bursts inject at cycle 0 of their own burst, so the simulations are
  // independent of each other and of the schedules they came from: run
  // every distinct one in a single pool job (each through the memoizing
  // burst cache unless disabled), then assemble the timelines serially —
  // the overlap ablation needs the previous layer's compute time. The pool
  // hands out indices in order, so dispatching the largest bursts first
  // keeps a long burst from starting last and running alone.
  const noc::MeshNocSimulator noc_sim(topo_, cfg_.noc);
  std::vector<std::uint64_t> flits(plan.bursts.size(), 0);
  for (std::size_t b = 0; b < plan.bursts.size(); ++b) {
    for (const noc::Message& m : *plan.bursts[b]) {
      if (m.src != m.dst && m.bytes > 0) {
        flits[b] += noc_sim.flits_for_bytes(m.bytes);
      }
    }
  }
  std::vector<std::size_t> order(plan.bursts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return flits[a] > flits[b];
                   });
  std::vector<noc::NocStats> stats(plan.bursts.size());
  util::parallel_for(0, order.size(), [&](std::size_t k) {
    const std::size_t b = order[k];
    stats[b] = cfg_.noc_result_cache
                   ? noc::NocRunCache::instance().run(
                         noc_sim, *plan.bursts[b], 200'000'000ull,
                         stream_epoch)
                   : noc_sim.run(*plan.bursts[b]);
  });

  results.reserve(schedules.size());
  for (std::size_t s = 0; s < schedules.size(); ++s) {
    results.push_back(
        assemble(schedules[s], plan.burst_of[s], stats, noc_sim));
  }
  return results;
}

InferenceResult CmpSystem::assemble(
    const sched::Schedule& schedule, std::span<const std::size_t> burst_of,
    std::span<const noc::NocStats> burst_stats,
    const noc::MeshNocSimulator& noc_sim) const {
  const std::size_t P = cfg_.cores;
  const bool tracing = obs::trace_enabled();
  InferenceResult result;
  std::uint64_t prev_compute = 0;
  std::uint64_t cursor = 0;  // serialized model time, for the trace
  std::vector<std::uint64_t> per_core_cycles(P, 0);
  const sched::Event* pending_comm = nullptr;
  const noc::NocStats* pending_stats = nullptr;
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    const sched::Event& e = schedule.events[i];
    if (e.kind == sched::EventKind::kComm) {
      pending_comm = &e;
      pending_stats = e.inter_chip ? nullptr : &burst_stats[burst_of[i]];
      continue;
    }

    LayerTimeline tl;
    tl.layer_name = e.layer_name;

    // --- Communication into this layer --------------------------------
    if (pending_comm != nullptr && pending_comm->inter_chip) {
      // Gateway-to-gateway transfer: priced analytically on the boundary
      // link (its own clock domain — the NoC divider does not apply) with
      // per-byte wire energy; no flit simulation.
      tl.comm_cycles = sched::inter_chip_transfer_cycles(
          cfg_.inter_chip, pending_comm->traffic_bytes);
      tl.traffic_bytes = pending_comm->traffic_bytes;
      tl.noc_energy_pj = static_cast<double>(pending_comm->traffic_bytes) *
                         cfg_.inter_chip.energy_pj_per_byte;
    } else if (pending_comm != nullptr) {
      // The flit-level simulation and the schedule's burst must account
      // for the same traffic: the simulator's flit count is exactly the
      // packetization of the comm event's messages (verify() already
      // tied message bytes to the event's claimed total). Every downstream
      // number (comm cycles, NoC energy, heatmaps) rides on this.
      if constexpr (check::kEnabled) {
        std::size_t expected_flits = 0;
        for (const noc::Message& m : pending_comm->messages) {
          if (m.src != m.dst && m.bytes > 0) {
            expected_flits += noc_sim.flits_for_bytes(m.bytes);
          }
        }
        LS_CHECK_MSG(pending_stats->total_flits == expected_flits,
                     "traffic accounting into '%s': simulator drained %llu "
                     "flits but the schedule's burst packetizes to %zu",
                     e.layer_name.c_str(),
                     static_cast<unsigned long long>(
                         pending_stats->total_flits),
                     expected_flits);
      }
      tl.noc_stats = *pending_stats;
      tl.comm_cycles = static_cast<std::uint64_t>(
          static_cast<double>(tl.noc_stats.completion_cycle) *
          cfg_.noc_clock_divider);
      tl.traffic_bytes = pending_comm->traffic_bytes;
      tl.noc_energy_pj =
          noc::energy_from_stats(tl.noc_stats, cfg_.noc_energy,
                                 topo_.num_cores())  // routers on one chip
              .total_pj();
    }
    tl.blocking_comm_cycles = tl.comm_cycles;
    if (pending_comm != nullptr && pending_comm->overlap_with_prev_compute) {
      tl.blocking_comm_cycles =
          tl.comm_cycles > prev_compute ? tl.comm_cycles - prev_compute : 0;
    }
    pending_comm = nullptr;
    pending_stats = nullptr;

    // --- Compute on the P cores ----------------------------------------
    const accel::PartitionCost cost =
        core_model_.partition_cost(e.per_core_work, &per_core_cycles);
    tl.compute_energy_pj = cost.energy_pj;
    tl.compute_cycles = cost.worst_cycles;
    prev_compute = cost.worst_cycles;
    if (e.macs_discounted > 0) {
      static auto& discounted =
          obs::Registry::instance().counter("sparse.sim.macs_discounted");
      discounted.inc(e.macs_discounted);
    }

    if (tracing) trace_layer_timeline(tl, per_core_cycles, cursor, P);
    record_layer_metrics(tl);
    if (!tl.noc_stats.per_link_flits.empty()) {
      obs::Registry::instance().accumulate_link_flits(
          topo_.cols(), topo_.rows(), tl.noc_stats.per_link_flits);
    }
    cursor += tl.blocking_comm_cycles + tl.compute_cycles;

    result.compute_cycles += tl.compute_cycles;
    result.comm_cycles += tl.blocking_comm_cycles;
    result.compute_energy_pj += tl.compute_energy_pj;
    result.noc_energy_pj += tl.noc_energy_pj;
    result.traffic_bytes += tl.traffic_bytes;
    result.layers.push_back(std::move(tl));
  }
  result.total_cycles = result.compute_cycles + result.comm_cycles;
  obs::Registry::instance().counter("sim.inferences").inc();
  obs::Registry::instance().counter("sim.total_cycles").inc(
      result.total_cycles);
  return result;
}

sched::VerifyReport CmpSystem::verify(const sched::Schedule& schedule) const {
  sched::VerifyOptions vopts;
  vopts.accel = core_model_.config();
  vopts.noc = cfg_.noc;
  return sched::verify(schedule, vopts);
}

StreamResult CmpSystem::run_stream(const sched::Schedule& schedule,
                                   std::size_t requests,
                                   std::uint64_t stream_epoch,
                                   StreamTimeline* timeline) const {
  StreamResult out;
  out.requests = requests;
  out.single_pass = execute(schedule, stream_epoch);
  if (timeline != nullptr) timeline->items.clear();
  if (requests == 0) return out;

  const bool tracing = obs::trace_enabled();
  obs::Span run_span;
  if (tracing) {
    run_span.begin("sim.run_stream(" + schedule.net_name + ")", "sim");
    name_sim_tracks(cfg_.cores);
  }

  // Per-event durations, read off the single-pass timeline. A comm event is
  // always immediately followed by its compute event (verify()), so the
  // layer index advances on computes and a comm event reads the *next*
  // layer's drain time. Streaming charges the full drain (comm_cycles, not
  // the single-pass overlap-ablated blocking time): overlap here is
  // structural, decided by the resource model below.
  const std::size_t E = schedule.events.size();
  std::vector<std::uint64_t> dur(E, 0);
  std::vector<const sched::Event*> events(E);
  {
    std::size_t layer = 0;
    for (std::size_t i = 0; i < E; ++i) {
      const sched::Event& e = schedule.events[i];
      events[i] = &e;
      if (e.kind == sched::EventKind::kComm) {
        dur[i] = out.single_pass.layers[layer].comm_cycles;
      } else {
        dur[i] = out.single_pass.layers[layer].compute_cycles;
        ++layer;
      }
    }
  }

  // Per-chip-resource list scheduling: each resource (sched::resource_of:
  // a chip's core gang, a chip's NoC, a chip boundary's serial link) runs
  // one event at a time (one gang + one NoC total on a single-chip system
  // — the historical two-resource model, decision for decision).
  // Work-conserving greedy: always start the pending event with the
  // earliest feasible start (deps done and its resource free); lower
  // request index breaks ties, so older requests drain first.
  //
  // head[g] counts the requests that have dispatched event g. All requests
  // run the same schedule from cycle 0 and dispatch starts never decrease,
  // so by induction over events requests reach and leave every event in
  // index order — their end times, hence ready times, are non-decreasing
  // in the request index. Among the requests pending at event g the
  // earliest start (lowest index on ties) is therefore request head[g],
  // pending while head[g] < head[g-1] (< requests for g = 0): a step
  // compares E candidates, R * E * (E + deps) in total.
  const std::size_t C = schedule.chips;
  std::vector<std::uint64_t> end(requests * E, 0);  // [request * E + event]
  std::vector<std::size_t> head(E, 0);
  std::vector<std::uint64_t> resource_free(sched::resource_count(schedule), 0);
  std::vector<std::size_t> resource(E);
  for (std::size_t i = 0; i < E; ++i) {
    resource[i] = sched::resource_of(schedule, i);
  }
  std::uint64_t core_busy = 0;
  std::uint64_t noc_busy = 0;
  std::uint64_t link_busy = 0;
  std::uint64_t makespan = 0;
  // Per-core compute spans for the stream trace (recomputed once per
  // event; the executor does not retain them).
  std::vector<std::vector<std::uint64_t>> per_core_cycles;
  if (tracing) {
    per_core_cycles.resize(E);
    for (std::size_t i = 0; i < E; ++i) {
      if (events[i]->kind == sched::EventKind::kCompute) {
        core_model_.partition_cost(events[i]->per_core_work,
                                   &per_core_cycles[i]);
      }
    }
  }
  if (timeline != nullptr) timeline->items.reserve(requests * E);
  // Flow-arrow bookkeeping: the last burst span dispatched per request, so
  // the compute span it feeds can be linked to it across tracks.
  struct PendingFlow {
    bool armed = false;
    std::uint64_t start = 0;
    std::uint64_t finish = 0;
  };
  std::vector<PendingFlow> pending_flow(tracing ? requests : 0);
  std::size_t inflight = 0;   // requests started but not finished
  std::size_t remaining = requests * E;
  while (remaining > 0) {
    // Candidates in ascending request order (later events hold older
    // requests), so the strict < keeps the lowest request on ties.
    std::size_t id = E;
    std::uint64_t best_start = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t g = E; g-- > 0;) {
      const std::size_t r = head[g];
      if (r == (g == 0 ? requests : head[g - 1])) continue;
      const sched::Event& e = *events[g];
      std::uint64_t ready = 0;
      for (const sched::EventId dep : e.deps) {
        ready = std::max(ready, end[r * E + dep]);
      }
      const std::uint64_t start = std::max(ready, resource_free[resource[g]]);
      if (start < best_start) {
        best_start = start;
        id = g;
      }
    }
    const std::size_t best_r = head[id];
    const sched::Event& e = *events[id];
    const std::uint64_t finish = best_start + dur[id];
    end[best_r * E + id] = finish;
    if (timeline != nullptr) {
      timeline->items.push_back({best_r, id, best_start, finish});
    }
    if (tracing && id == 0) {
      ++inflight;
      obs::Tracer::instance().counter("stream.inflight", "stream", best_start,
                                      static_cast<double>(inflight),
                                      obs::kSimPid);
    }
    resource_free[resource[id]] = finish;
    if (e.kind == sched::EventKind::kComm) {
      (e.inter_chip ? link_busy : noc_busy) += dur[id];
      if (tracing && dur[id] > 0) {
        char args[64];
        std::snprintf(args, sizeof(args), "{\"request\":%zu}", best_r);
        obs::Tracer::instance().complete(
            e.layer_name + " (burst r" + std::to_string(best_r) + ")",
            "stream.burst", best_start, dur[id], obs::kSimPid, cfg_.cores,
            args);
        pending_flow[best_r] = {true, best_start, finish};
      }
    } else {
      core_busy += dur[id];
      if (tracing) {
        char args[64];
        std::snprintf(args, sizeof(args), "{\"request\":%zu}", best_r);
        std::size_t first_busy_core = cfg_.cores;
        for (std::size_t c = 0; c < per_core_cycles[id].size(); ++c) {
          if (per_core_cycles[id][c] == 0) continue;
          if (first_busy_core == cfg_.cores) first_busy_core = c;
          obs::Tracer::instance().complete(
              e.layer_name + " r" + std::to_string(best_r), "stream.compute",
              best_start, per_core_cycles[id][c], obs::kSimPid, c, args);
        }
        // Flow arrow from the feeding burst span (NoC track) into this
        // compute span (first busy core track): the request's data path
        // stays followable across tracks in the Perfetto UI.
        PendingFlow& pf = pending_flow[best_r];
        if (pf.armed && dur[id] > 0 && first_busy_core < cfg_.cores) {
          const std::uint64_t flow_id =
              static_cast<std::uint64_t>(best_r) * E + id;
          const std::string flow_name = "stream.req" + std::to_string(best_r);
          obs::Tracer& tr = obs::Tracer::instance();
          tr.flow(true, flow_name, "stream",
                  pf.finish > pf.start ? pf.finish - 1 : pf.start, flow_id,
                  obs::kSimPid, cfg_.cores);
          tr.flow(false, flow_name, "stream", best_start, flow_id,
                  obs::kSimPid, first_busy_core);
        }
        pf.armed = false;
      }
    }
    makespan = std::max(makespan, finish);
    ++head[id];
    --remaining;
    if (tracing && id + 1 == E) {
      --inflight;
      obs::Tracer::instance().counter("stream.inflight", "stream", finish,
                                      static_cast<double>(inflight),
                                      obs::kSimPid);
    }
  }

  out.makespan_cycles = makespan;
  out.request_finish_cycle.resize(requests);
  for (std::size_t r = 0; r < requests; ++r) {
    out.request_finish_cycle[r] = E > 0 ? end[r * E + E - 1] : 0;
  }
  out.fill_cycles = out.request_finish_cycle.empty()
                        ? 0
                        : out.request_finish_cycle.front();
  if (makespan > 0) {
    out.throughput_per_mcycle =
        static_cast<double>(requests) * 1e6 / static_cast<double>(makespan);
    // Multi-chip occupancies average over the C gangs / C NoCs / C-1
    // boundary links; C == 1 reduces to the historical single-resource
    // busy fractions exactly.
    out.compute_occupancy = static_cast<double>(core_busy) /
                            (static_cast<double>(makespan) *
                             static_cast<double>(C));
    out.noc_occupancy = static_cast<double>(noc_busy) /
                        (static_cast<double>(makespan) *
                         static_cast<double>(C));
    if (C > 1) {
      out.inter_chip_occupancy = static_cast<double>(link_busy) /
                                 (static_cast<double>(makespan) *
                                  static_cast<double>(C - 1));
    }
    // Back-to-back reference: n serialized non-overlapped passes (full
    // drain charged per layer, which is what core_busy + noc_busy sum to
    // for one request).
    std::uint64_t one_pass = 0;
    for (const LayerTimeline& tl : out.single_pass.layers) {
      one_pass += tl.compute_cycles + tl.comm_cycles;
    }
    out.speedup_vs_back_to_back =
        static_cast<double>(requests) * static_cast<double>(one_pass) /
        static_cast<double>(makespan);
  }

  obs::Registry& reg = obs::Registry::instance();
  // Counters are process-lifetime monotonic totals across every run_stream
  // call; the `stream.last_*` gauges hold this run's values (successive
  // runs in one process used to sum into misleading per-run "totals").
  reg.counter("stream.requests").inc(requests);
  reg.counter("stream.makespan_cycles").inc(makespan);
  reg.counter("stream.core_busy_cycles").inc(core_busy);
  reg.counter("stream.noc_busy_cycles").inc(noc_busy);
  reg.counter("stream.inter_chip_busy_cycles").inc(link_busy);
  reg.gauge("stream.last_requests").set(static_cast<double>(requests));
  reg.gauge("stream.last_makespan_cycles").set(static_cast<double>(makespan));
  reg.gauge("stream.last_core_busy_cycles")
      .set(static_cast<double>(core_busy));
  reg.gauge("stream.last_noc_busy_cycles").set(static_cast<double>(noc_busy));
  reg.gauge("stream.throughput_per_mcycle").set(out.throughput_per_mcycle);
  reg.gauge("stream.compute_occupancy").set(out.compute_occupancy);
  reg.gauge("stream.noc_occupancy").set(out.noc_occupancy);
  reg.gauge("stream.inter_chip_occupancy").set(out.inter_chip_occupancy);
  if (!out.request_finish_cycle.empty()) {
    std::vector<double> latencies;
    latencies.reserve(requests);
    obs::HistogramMetric& lat_hist =
        reg.histogram("stream.request_latency_cycles", 0.0,
                      static_cast<double>(std::max<std::uint64_t>(makespan, 1)),
                      64);
    for (const std::uint64_t fin : out.request_finish_cycle) {
      latencies.push_back(static_cast<double>(fin));
      lat_hist.observe(static_cast<double>(fin));
    }
    // Exact (order-statistic) per-run percentiles; the histogram above is
    // the process-lifetime binned view.
    reg.gauge("stream.latency_p50_cycles")
        .set(util::percentile(latencies, 50.0));
    reg.gauge("stream.latency_p95_cycles")
        .set(util::percentile(latencies, 95.0));
    reg.gauge("stream.latency_p99_cycles")
        .set(util::percentile(latencies, 99.0));
  }
  return out;
}

double speedup(const InferenceResult& baseline, const InferenceResult& v) {
  if (v.total_cycles == 0) {
    LS_LOG_WARN("speedup: variant ran for 0 cycles — returning 0");
    return 0.0;
  }
  return static_cast<double>(baseline.total_cycles) /
         static_cast<double>(v.total_cycles);
}

double comm_energy_reduction(const InferenceResult& baseline,
                             const InferenceResult& v) {
  if (baseline.noc_energy_pj <= 0.0) {
    LS_LOG_WARN("comm_energy_reduction: baseline NoC energy is 0 — "
                "returning 0");
    return 0.0;
  }
  return 1.0 - v.noc_energy_pj / baseline.noc_energy_pj;
}

double traffic_rate(const InferenceResult& baseline,
                    const InferenceResult& v) {
  if (baseline.traffic_bytes == 0) {
    LS_LOG_WARN("traffic_rate: baseline moved 0 bytes — returning 0");
    return 0.0;
  }
  return static_cast<double>(v.traffic_bytes) /
         static_cast<double>(baseline.traffic_bytes);
}

namespace testing {

InferenceResult reference_run_inference(const SystemConfig& cfg,
                                        const nn::NetSpec& spec,
                                        const core::InferenceTraffic& traffic,
                                        const core::SparsityProfile* sparsity) {
  const auto analysis = nn::analyze(spec);
  const std::size_t P = cfg.cores;
  const noc::MeshTopology topo = noc::MeshTopology::for_cores(P);
  accel::AccelConfig per_core = cfg.accel;
  per_core.dram_bytes_per_cycle =
      cfg.chip_dram_bytes_per_cycle / static_cast<double>(P);
  const accel::CoreModel core_model(per_core);

  std::unordered_map<std::string, const core::TransitionTraffic*> by_layer;
  for (const auto& t : traffic.transitions) {
    by_layer.emplace(t.layer_name, &t);
  }

  noc::MeshNocSimulator noc_sim(topo, cfg.noc);

  struct LayerJob {
    const nn::LayerAnalysis* a = nullptr;
    const core::TransitionTraffic* traffic = nullptr;  // null: no burst
    noc::NocStats stats{};
  };
  std::vector<LayerJob> jobs;
  for (const nn::LayerAnalysis& a : analysis) {
    if (!a.is_compute()) continue;
    LayerJob job;
    job.a = &a;
    const auto it = by_layer.find(a.spec.name);
    if (it != by_layer.end() && !it->second->messages.empty()) {
      job.traffic = it->second;
    }
    jobs.push_back(job);
  }
  util::parallel_for(0, jobs.size(), [&](std::size_t i) {
    if (jobs[i].traffic == nullptr) return;
    jobs[i].stats =
        cfg.noc_result_cache
            ? noc::NocRunCache::instance().run(noc_sim,
                                               jobs[i].traffic->messages)
            : noc_sim.run(jobs[i].traffic->messages);
  });

  InferenceResult result;
  std::uint64_t prev_compute = 0;
  for (const LayerJob& job : jobs) {
    const nn::LayerAnalysis& a = *job.a;

    LayerTimeline tl;
    tl.layer_name = a.spec.name;

    if (job.traffic != nullptr) {
      tl.noc_stats = job.stats;
      tl.comm_cycles = static_cast<std::uint64_t>(
          static_cast<double>(tl.noc_stats.completion_cycle) *
          cfg.noc_clock_divider);
      tl.traffic_bytes = job.traffic->total_bytes;
      tl.noc_energy_pj =
          noc::energy_from_stats(tl.noc_stats, cfg.noc_energy, P).total_pj();
    }
    tl.blocking_comm_cycles = tl.comm_cycles;
    if (cfg.overlap_comm) {
      tl.blocking_comm_cycles =
          tl.comm_cycles > prev_compute ? tl.comm_cycles - prev_compute : 0;
    }

    const std::size_t out_units = a.spec.kind == nn::LayerKind::kConv
                                      ? a.spec.out_channels
                                      : a.spec.out_features;
    const auto out_ranges = core::balanced_ranges(out_units, P);
    const std::size_t weight_bytes_total =
        a.weight_count * cfg.bytes_per_value;
    const std::size_t in_bytes = a.in.numel() * cfg.bytes_per_value;
    const core::LayerSparsity* layer_sparsity = nullptr;
    if (cfg.sparse_cycle_model && sparsity != nullptr) {
      layer_sparsity = sparsity->find(a.spec.name);
    }
    std::uint64_t worst = 0;
    for (std::size_t c = 0; c < P; ++c) {
      const double share = out_units
                               ? static_cast<double>(out_ranges[c].count()) /
                                     static_cast<double>(out_units)
                               : 0.0;
      if (share == 0.0) continue;
      const double live = layer_sparsity != nullptr &&
                                  c < layer_sparsity->live_fraction.size()
                              ? layer_sparsity->live_fraction[c]
                              : 1.0;
      accel::LayerPartitionWork work;
      work.macs = static_cast<std::uint64_t>(
          static_cast<double>(a.macs) * share * live + 0.5);
      work.weight_bytes = static_cast<std::uint64_t>(
          static_cast<double>(weight_bytes_total) * share * live + 0.5);
      work.input_bytes = in_bytes;  // every core reads the full input
      work.output_bytes = static_cast<std::uint64_t>(
          static_cast<double>(a.out.numel() * cfg.bytes_per_value) * share +
          0.5);
      const accel::LayerCoreCost cost = core_model.layer_cost(work);
      worst = std::max(worst, cost.cycles());
      tl.compute_energy_pj += cost.energy_pj;
    }
    tl.compute_cycles = worst;
    prev_compute = worst;

    result.compute_cycles += tl.compute_cycles;
    result.comm_cycles += tl.blocking_comm_cycles;
    result.compute_energy_pj += tl.compute_energy_pj;
    result.noc_energy_pj += tl.noc_energy_pj;
    result.traffic_bytes += tl.traffic_bytes;
    result.layers.push_back(std::move(tl));
  }
  result.total_cycles = result.compute_cycles + result.comm_cycles;
  return result;
}

}  // namespace testing

}  // namespace ls::sim
