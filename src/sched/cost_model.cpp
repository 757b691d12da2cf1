#include "sched/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/check.hpp"
#include "noc/topology.hpp"

namespace ls::sched {

namespace {

/// Adds `flits` to the links [lo, hi) of one row or column difference array.
void add_span(std::uint64_t* diff, std::size_t lo, std::size_t hi,
              std::uint64_t flits) {
  diff[lo] += flits;
  diff[hi] -= flits;  // wraps while negative; the prefix sums stay exact
}

/// Largest prefix sum of each `len`-entry segment of `diff`: the most
/// loaded link on any row (or column).
std::uint64_t max_prefix(const std::vector<std::uint64_t>& diff,
                         std::size_t len) {
  std::uint64_t worst = 0;
  for (std::size_t seg = 0; seg < diff.size(); seg += len) {
    std::uint64_t load = 0;
    for (std::size_t i = seg; i < seg + len; ++i) {
      load += diff[i];
      worst = std::max(worst, load);
    }
  }
  return worst;
}

}  // namespace

accel::AccelConfig per_core_accel(const accel::AccelConfig& accel,
                                  double chip_dram_bytes_per_cycle,
                                  std::size_t cores_per_chip) {
  accel::AccelConfig per_core = accel;
  per_core.dram_bytes_per_cycle =
      chip_dram_bytes_per_cycle / static_cast<double>(cores_per_chip);
  return per_core;
}

EventPricer::EventPricer(const CostModelConfig& cfg,
                         const noc::MeshTopology& mesh)
    : sim_(mesh, cfg.noc),
      core_model_(per_core_accel(cfg.accel, cfg.chip_dram_bytes_per_cycle,
                                 mesh.num_cores())),
      noc_clock_divider_(cfg.noc_clock_divider),
      inter_chip_(cfg.inter_chip),
      cols_(sim_.topology().cols()),
      rows_(sim_.topology().rows()) {
  x_.resize(mesh.num_cores());
  y_.resize(mesh.num_cores());
  for (std::size_t c = 0; c < mesh.num_cores(); ++c) {
    const noc::Coord at = mesh.coord(c);
    x_[c] = static_cast<std::uint32_t>(at.x);
    y_[c] = static_cast<std::uint32_t>(at.y);
  }
}

std::uint64_t EventPricer::compute_cycles(
    std::span<const accel::LayerPartitionWork> per_core_work) const {
  return core_model_.partition_cost(per_core_work).worst_cycles;
}

std::size_t EventPricer::mesh_core(std::size_t endpoint,
                                   std::span<const std::size_t> place,
                                   std::size_t base) const {
  std::size_t core = endpoint - base;  // wraps off the mesh below base
  if (!place.empty()) {
    if (core >= place.size()) throw std::out_of_range("core id");
    core = place[core];
  }
  if (core >= x_.size()) throw std::out_of_range("core id");
  return core;
}

std::uint64_t EventPricer::route(const noc::Message& m,
                                 std::span<const std::size_t> place,
                                 std::size_t base, BurstLoads& loads,
                                 bool remove) const {
  if (m.src == m.dst || m.bytes == 0) return 0;
  const std::size_t s = mesh_core(m.src, place, base);
  const std::size_t d = mesh_core(m.dst, place, base);
  const std::uint64_t flits = sim_.flits_for_bytes(m.bytes);
  // Taking a route back adds its two's complement: the sums wrap back to
  // exactly the loads without it.
  const std::uint64_t delta = remove ? 0 - flits : flits;
  loads.inject[s] += delta;
  loads.eject[d] += delta;
  // The route is an X leg on one row and a Y leg on one column, each a
  // contiguous run of same-direction links: two difference-array updates
  // per leg. XY turns at (dx, sy); YX turns at (sx, dy).
  const bool x_first = sim_.config().routing == noc::Routing::kXY;
  const std::size_t row_len = cols_ + 1;
  const std::size_t col_len = rows_ + 1;
  const std::size_t sx = x_[s], sy = y_[s], dx = x_[d], dy = y_[d];
  const std::size_t row = x_first ? sy : dy;
  const std::size_t col = x_first ? dx : sx;
  if (dx > sx) add_span(&loads.east[row * row_len], sx, dx, delta);
  if (dx < sx) add_span(&loads.west[row * row_len], dx + 1, sx + 1, delta);
  if (dy > sy) add_span(&loads.south[col * col_len], sy, dy, delta);
  if (dy < sy) add_span(&loads.north[col * col_len], dy + 1, sy + 1, delta);
  if (remove) return 0;
  const std::size_t hops = (dx > sx ? dx - sx : sx - dx) +
                           (dy > sy ? dy - sy : sy - dy);
  return sim_.zero_load_latency(hops, flits);
}

std::uint64_t EventPricer::drain_cycles(const BurstLoads& loads,
                                        std::uint64_t max_zero_load) const {
  // Serialization-bound bursts drain at the bottleneck resource's rate —
  // a directed link (shared by the physical channels) or a single-channel
  // injection/ejection port — plus the head-flit pipeline of the last
  // packet through it; latency-bound bursts finish with their slowest lone
  // message.
  const std::size_t row_len = cols_ + 1;
  const std::size_t col_len = rows_ + 1;
  const std::uint64_t link = std::max(
      std::max(max_prefix(loads.east, row_len),
               max_prefix(loads.west, row_len)),
      std::max(max_prefix(loads.south, col_len),
               max_prefix(loads.north, col_len)));
  const std::uint64_t phys = sim_.config().phys_channels;
  std::uint64_t bottleneck = (link + phys - 1) / phys;
  for (const std::uint64_t load : loads.inject) {
    bottleneck = std::max(bottleneck, load);
  }
  for (const std::uint64_t load : loads.eject) {
    bottleneck = std::max(bottleneck, load);
  }
  const std::uint64_t noc_cycles =
      std::max(max_zero_load, bottleneck + sim_.config().router_latency);
  return static_cast<std::uint64_t>(static_cast<double>(noc_cycles) *
                                    noc_clock_divider_);
}

std::uint64_t EventPricer::burst_cycles(
    std::span<const noc::Message> messages,
    std::span<const std::size_t> place, std::size_t base) {
  return burst_cycles(messages, place, base, scratch_);
}

std::uint64_t EventPricer::burst_cycles(
    std::span<const noc::Message> messages,
    std::span<const std::size_t> place, std::size_t base, BurstLoads& kept) {
  kept.east.assign(rows_ * (cols_ + 1), 0);
  kept.west.assign(rows_ * (cols_ + 1), 0);
  kept.south.assign(cols_ * (rows_ + 1), 0);
  kept.north.assign(cols_ * (rows_ + 1), 0);
  kept.inject.assign(x_.size(), 0);
  kept.eject.assign(x_.size(), 0);
  kept.zero_load.resize(messages.size());
  std::uint64_t max_zero_load = 0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    kept.zero_load[i] = route(messages[i], place, base, kept, false);
    max_zero_load = std::max(max_zero_load, kept.zero_load[i]);
  }
  return drain_cycles(kept, max_zero_load);
}

std::uint64_t EventPricer::reprice(const BurstLoads& kept,
                                   std::span<const noc::Message> messages,
                                   std::span<const std::size_t> place,
                                   std::size_t a, std::size_t b,
                                   std::size_t base) {
  if (kept.zero_load.size() != messages.size()) {
    throw std::invalid_argument("reprice: loads kept for another burst");
  }
  if (a >= place.size() || b >= place.size()) {
    throw std::out_of_range("reprice: swapped partition off the placement");
  }
  scratch_.east = kept.east;
  scratch_.west = kept.west;
  scratch_.south = kept.south;
  scratch_.north = kept.north;
  scratch_.inject = kept.inject;
  scratch_.eject = kept.eject;
  // Under the kept placement partition a rode the core `place` now gives
  // b, and b the core it now gives a: a moved message's kept route is the
  // route of its endpoint-swapped twin under `place`.
  const std::size_t ea = base + a, eb = base + b;
  const auto kept_endpoint = [&](std::size_t e) {
    return e == ea ? eb : e == eb ? ea : e;
  };
  std::uint64_t max_zero_load = 0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const noc::Message& m = messages[i];
    if (m.src != ea && m.src != eb && m.dst != ea && m.dst != eb) {
      max_zero_load = std::max(max_zero_load, kept.zero_load[i]);
      continue;
    }
    noc::Message before = m;
    before.src = kept_endpoint(m.src);
    before.dst = kept_endpoint(m.dst);
    route(before, place, base, scratch_, true);
    max_zero_load =
        std::max(max_zero_load, route(m, place, base, scratch_, false));
  }
  return drain_cycles(scratch_, max_zero_load);
}

std::uint64_t inter_chip_transfer_cycles(const noc::InterChipLinkClass& link,
                                         std::uint64_t bytes) {
  LS_CHECK_MSG(link.bytes_per_cycle > 0.0,
               "inter-chip link has zero bandwidth");
  return link.latency_cycles +
         static_cast<std::uint64_t>(std::ceil(static_cast<double>(bytes) /
                                              link.bytes_per_cycle));
}

CycleEstimate estimate_cycles(const Schedule& schedule,
                              const CostModelConfig& cfg) {
  LS_CHECK_MSG(schedule.cores > 0, "estimate_cycles: schedule '%s' has no "
               "cores", schedule.net_name.c_str());
  LS_CHECK_MSG(schedule.chips > 0 && schedule.cores % schedule.chips == 0,
               "estimate_cycles: schedule '%s' has %zu chips over %zu cores",
               schedule.net_name.c_str(), schedule.chips, schedule.cores);
  // Bursts ride each chip's own mesh; on a single-chip schedule this is
  // exactly the historical whole-machine mesh.
  const std::size_t cores_per_chip = schedule.cores / schedule.chips;
  EventPricer pricer(cfg, noc::MeshTopology::for_cores(cores_per_chip));

  CycleEstimate est;
  est.events.resize(schedule.events.size());
  std::uint64_t prev_compute = 0;
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    const Event& e = schedule.events[i];
    if (e.kind == EventKind::kComm) {
      // prev_compute still holds the *previous* layer's compute here — the
      // consumer compute event that follows is what updates it — so the
      // overlap arithmetic matches CmpSystem::execute exactly. On-chip
      // bursts are localized onto their owning chip's mesh coordinates.
      const std::uint64_t raw =
          e.inter_chip
              ? pricer.inter_chip_cycles(e.traffic_bytes)
              : pricer.burst_cycles(
                    e.messages, {},
                    schedule.chips > 1 ? e.chip * cores_per_chip : 0);
      const std::uint64_t blocking =
          blocking_comm_cycles(raw, prev_compute, e.overlap_with_prev_compute);
      est.events[i].raw_comm_cycles = raw;
      est.events[i].cycles = blocking;
      est.comm_cycles += blocking;
      continue;
    }
    const std::uint64_t worst = pricer.compute_cycles(e.per_core_work);
    est.events[i].cycles = worst;
    est.compute_cycles += worst;
    prev_compute = worst;
  }
  est.total_cycles = est.compute_cycles + est.comm_cycles;
  return est;
}

}  // namespace ls::sched
