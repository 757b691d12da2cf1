#include "sched/builders.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/partition.hpp"

namespace ls::sched {

namespace {

// ---------------------------------------------------------------------------
// Geometry of the non-kernel partition dimensions.
//
// Every compute layer's output volume is an axis-aligned (C, H, W) box
// (H = W = 1 for FC layers, with the feature axis on C). Each partition
// dimension assigns partition j an axis-aligned *owned* sub-box of the
// layer's output, and a *needed* sub-box of the layer's input; the bytes
// partition p must send partition c across a layer transition are the
// volume of the intersection of p's owned box (mapped forward through the
// interstitial pool/relu/flatten layers into the consumer's coordinate
// frame, proportionally on each axis) with c's needed box. The kernel-wise
// fast path never goes through this model: transitions whose producer and
// consumer are both kernel-split reuse the caller-provided traffic
// analysis verbatim (preserving grouped-conv connectivity and weight
// liveness bit-exactly), so the geometric model only prices transitions an
// autotuner actually moved off the default.

struct Box {
  std::size_t c0 = 0, c1 = 0, h0 = 0, h1 = 0, w0 = 0, w1 = 0;
  std::size_t volume() const {
    if (c1 <= c0 || h1 <= h0 || w1 <= w0) return 0;
    return (c1 - c0) * (h1 - h0) * (w1 - w0);
  }
};

Box intersect(const Box& a, const Box& b) {
  Box r;
  r.c0 = std::max(a.c0, b.c0);
  r.c1 = std::min(a.c1, b.c1);
  r.h0 = std::max(a.h0, b.h0);
  r.h1 = std::min(a.h1, b.h1);
  r.w0 = std::max(a.w0, b.w0);
  r.w1 = std::min(a.w1, b.w1);
  return r;
}

/// Output-volume geometry of a compute layer (FC: features on the C axis).
struct OutGeom {
  std::size_t c = 0, h = 1, w = 1;
};

OutGeom out_geom(const nn::LayerAnalysis& a) {
  if (a.spec.kind == nn::LayerKind::kConv) {
    return {a.out.c, a.out.h, a.out.w};
  }
  return {a.spec.out_features, 1, 1};
}

std::size_t out_units(const nn::LayerAnalysis& a) {
  return a.spec.kind == nn::LayerKind::kConv ? a.spec.out_channels
                                             : a.spec.out_features;
}

std::size_t in_units(const nn::LayerAnalysis& a) { return a.in.c; }

/// Proportional interval map [lo, hi) from an axis of `from` units onto an
/// axis of `to` units (floor/ceil: the image is a superset of the exact
/// pre-image, so halo bytes are never under-counted at axis boundaries).
void map_axis(std::size_t lo, std::size_t hi, std::size_t from,
              std::size_t to, std::size_t* out_lo, std::size_t* out_hi) {
  if (from == 0 || lo >= hi) {
    *out_lo = *out_hi = 0;
    return;
  }
  *out_lo = lo * to / from;
  *out_hi = std::min(to, (hi * to + from - 1) / from);
}

/// The input rows (or cols) [*lo, *hi) of an axis of `in_axis` that a
/// conv needs to produce outputs `r` of the matching output axis: the
/// stride/kernel/pad halo, clipped at the edges.
void halo(const core::UnitRange& r, const nn::LayerSpec& spec,
          std::size_t in_axis, std::size_t* lo, std::size_t* hi) {
  const std::size_t s = spec.stride;
  const std::size_t pad = spec.pad;
  *lo = r.begin * s > pad ? r.begin * s - pad : 0;
  const std::size_t hi_raw = (r.end - 1) * s + spec.kernel;
  *hi = hi_raw > pad ? std::min(in_axis, hi_raw - pad) : 0;
}

/// Every partition's owned box of `a`'s output volume under dim `d`.
/// kChannel owns the kernel-wise layout: its reduce-scatter (emitted onto
/// the next transition) lands the reduced slices exactly where kernel-wise
/// partitioning would put them.
std::vector<Box> owned_boxes(const nn::LayerAnalysis& a, PartitionDim d,
                             std::size_t P) {
  const OutGeom g = out_geom(a);
  std::vector<Box> boxes(P, Box{0, g.c, 0, g.h, 0, g.w});
  switch (d) {
    case PartitionDim::kKernel:
    case PartitionDim::kChannel: {
      // FC feature axis == channel axis (OutGeom), conv likewise.
      const auto ranges = core::balanced_ranges(out_units(a), P);
      for (std::size_t j = 0; j < P; ++j) {
        boxes[j].c0 = ranges[j].begin;
        boxes[j].c1 = ranges[j].end;
      }
      break;
    }
    case PartitionDim::kBatch:
      for (std::size_t j = 1; j < P; ++j) boxes[j] = Box{};
      break;
    case PartitionDim::kHeight: {
      const auto ranges = core::balanced_ranges(g.h, P);
      for (std::size_t j = 0; j < P; ++j) {
        boxes[j].h0 = ranges[j].begin;
        boxes[j].h1 = ranges[j].end;
      }
      break;
    }
    case PartitionDim::kWidth: {
      const auto ranges = core::balanced_ranges(g.w, P);
      for (std::size_t j = 0; j < P; ++j) {
        boxes[j].w0 = ranges[j].begin;
        boxes[j].w1 = ranges[j].end;
      }
      break;
    }
  }
  return boxes;
}

/// Every partition's needed box of `a`'s *input* volume under consumer dim
/// `d`, expressed in the producer's output geometry `prev` (axes mapped
/// proportionally; conv halo rows/cols from kernel/stride/pad). A
/// partition with no share of the split axis needs nothing.
std::vector<Box> needed_boxes(const nn::LayerAnalysis& a, PartitionDim d,
                              std::size_t P, const OutGeom& prev) {
  const Box full{0, prev.c, 0, prev.h, 0, prev.w};
  std::vector<Box> boxes(P, full);
  switch (d) {
    case PartitionDim::kKernel: {
      // out_units < P leaves trailing partitions computing nothing.
      const auto ranges = core::balanced_ranges(out_units(a), P);
      for (std::size_t j = 0; j < P; ++j) {
        if (ranges[j].count() == 0) boxes[j] = Box{};
      }
      break;
    }
    case PartitionDim::kBatch:
      for (std::size_t j = 1; j < P; ++j) boxes[j] = Box{};
      break;
    case PartitionDim::kHeight:
    case PartitionDim::kWidth: {
      const bool rows = d == PartitionDim::kHeight;
      const std::size_t in_axis = rows ? a.in.h : a.in.w;
      const std::size_t prev_axis = rows ? prev.h : prev.w;
      const auto ranges =
          core::balanced_ranges(rows ? a.out.h : a.out.w, P);
      for (std::size_t j = 0; j < P; ++j) {
        if (ranges[j].count() == 0) {
          boxes[j] = Box{};
          continue;
        }
        std::size_t lo = 0, hi = 0;
        halo(ranges[j], a.spec, in_axis, &lo, &hi);
        map_axis(lo, hi, in_axis, prev_axis,
                 rows ? &boxes[j].h0 : &boxes[j].w0,
                 rows ? &boxes[j].h1 : &boxes[j].w1);
      }
      break;
    }
    case PartitionDim::kChannel: {
      const auto ranges = core::balanced_ranges(in_units(a), P);
      for (std::size_t j = 0; j < P; ++j) {
        if (ranges[j].count() == 0) {
          boxes[j] = Box{};
          continue;
        }
        map_axis(ranges[j].begin, ranges[j].end, in_units(a), prev.c,
                 &boxes[j].c0, &boxes[j].c1);
      }
      break;
    }
  }
  return boxes;
}

/// Byte matrix accumulator emitting partition-space messages in
/// deterministic (p, c) order.
class TransitionAccum {
 public:
  explicit TransitionAccum(std::size_t P) : P_(P), bytes_(P * P, 0) {}

  void add(std::size_t p, std::size_t c, std::size_t bytes) {
    if (p == c || bytes == 0) return;
    bytes_[p * P_ + c] += bytes;
  }

  void emit(TransitionBurst* burst) const {
    for (std::size_t p = 0; p < P_; ++p) {
      for (std::size_t c = 0; c < P_; ++c) {
        const std::size_t b = bytes_[p * P_ + c];
        if (b == 0) continue;
        burst->messages.push_back({p, c, b, 0});
        burst->traffic_bytes += b;
      }
    }
  }

 private:
  std::size_t P_;
  std::vector<std::size_t> bytes_;
};

bool identity_placement(const std::vector<std::size_t>& place) {
  for (std::size_t i = 0; i < place.size(); ++i) {
    if (place[i] != i) return false;
  }
  return true;
}

/// Throws std::invalid_argument with a printf-formatted message: lowering
/// rejects bad tuning knobs in every build.
[[noreturn, gnu::format(printf, 1, 2)]] void reject(const char* fmt, ...) {
  char buf[256];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  throw std::invalid_argument(buf);
}

PartitionDim dim_of(const BuildOptions& opts, std::size_t li) {
  return opts.layer_dims.empty() ? PartitionDim::kKernel
                                 : opts.layer_dims[li];
}

/// Places and chains the context's per-layer pieces into a schedule:
/// compute layer li runs on chip stages[li]'s chip-major core range, and a
/// transition between stages becomes one gateway-to-gateway inter-chip
/// transfer of the consumer's input. One chip (all stages 0) is the flat
/// single-mesh lowering.
Schedule assemble(const nn::NetSpec& spec, const LoweringContext& ctx,
                  const BuildOptions& opts,
                  const core::SparsityProfile* sparsity, Strategy strategy) {
  const std::size_t P = ctx.cores();
  const std::size_t chips = ctx.chips();
  const std::vector<std::size_t>& stages = ctx.stages();

  // --- Tuning knobs: per-layer dims and the placement permutation ---------
  if (!opts.layer_dims.empty() && opts.layer_dims.size() != ctx.layers()) {
    reject("lower('%s'): %zu layer dims for %zu compute layers",
           spec.name.c_str(), opts.layer_dims.size(), ctx.layers());
  }
  std::vector<std::size_t> place = opts.placement;
  if (place.empty()) {
    place.resize(P);
    for (std::size_t i = 0; i < P; ++i) place[i] = i;
  }
  if (place.size() != P) {
    reject("lower('%s'): placement maps %zu partitions on a %zu-core machine",
           spec.name.c_str(), place.size(), P);
  }
  std::vector<bool> seen(P, false);
  for (const std::size_t core : place) {
    if (core >= P || seen[core]) {
      reject("lower('%s'): placement is not a bijective permutation (core "
             "%zu out of range or repeated)",
             spec.name.c_str(), core);
    }
    seen[core] = true;
  }
  if (chips > 1 && !identity_placement(place)) {
    reject("lower_pipelined('%s'): placement permutations are per-chip "
           "concepts; use the identity on multi-chip schedules",
           spec.name.c_str());
  }
  bool any_non_kernel = false;
  for (std::size_t li = 0; li < ctx.layers(); ++li) {
    if (dim_of(opts, li) == PartitionDim::kKernel) continue;
    any_non_kernel = true;
    if (!ctx.compatible(li, dim_of(opts, li))) {
      reject("lower('%s'): dim '%s' is incompatible with compute layer %zu "
             "('%s')",
             spec.name.c_str(), to_string(dim_of(opts, li)), li,
             ctx.layer(li).spec.name.c_str());
    }
  }
  if (any_non_kernel && sparsity != nullptr) {
    reject("lower('%s'): sparsity discounts are defined on the kernel split; "
           "clear layer_dims or drop the profile",
           spec.name.c_str());
  }

  Schedule schedule;
  schedule.net_name = spec.name;
  schedule.strategy = strategy;
  schedule.cores = P * chips;
  schedule.chips = chips;
  if (!identity_placement(place)) schedule.placement = place;

  for (std::size_t li = 0; li < ctx.layers(); ++li) {
    const nn::LayerAnalysis& a = ctx.layer(li);
    const PartitionDim dim = dim_of(opts, li);
    const std::size_t s = stages[li];
    const std::size_t core_base = s * P;

    // The id of the previous layer's compute event (if any) — both the
    // burst and this layer's compute hang off it.
    const bool have_prev = !schedule.events.empty();
    const EventId prev_compute = have_prev ? schedule.events.size() - 1 : 0;

    // --- Comm event: the synchronization burst into this layer ------------
    Event comm;
    comm.kind = EventKind::kComm;
    comm.layer_name = a.spec.name;
    comm.overlap_with_prev_compute = opts.overlap_comm;
    comm.chip = s;
    if (li > 0 && stages[li - 1] != s) {
      // Stage boundary: the whole consumer input crosses the package once,
      // gateway to gateway (the serial link carries each byte once — no
      // per-core fan-out off-die).
      comm.inter_chip = true;
      const std::size_t bytes = ctx.input_bytes(li);
      comm.messages.push_back({(s - 1) * P, s * P, bytes, 0});
      comm.traffic_bytes = bytes;
    } else {
      const PartitionDim prev_dim =
          li > 0 ? dim_of(opts, li - 1) : PartitionDim::kKernel;
      TransitionBurst burst = ctx.transition(li, prev_dim, dim);
      for (noc::Message& m : burst.messages) {
        m.src = core_base + place[m.src];
        m.dst = core_base + place[m.dst];
      }
      comm.messages = std::move(burst.messages);
      comm.traffic_bytes = burst.traffic_bytes;
    }
    const bool have_comm = !comm.messages.empty();
    if (have_comm) {
      if (have_prev) comm.deps.push_back(prev_compute);
      schedule.events.push_back(std::move(comm));
    }

    // --- Compute event: the layer's per-core partitions -------------------
    const core::LayerSparsity* layer_sparsity =
        opts.sparse_cycle_model && sparsity != nullptr
            ? sparsity->find(a.spec.name)
            : nullptr;
    const LayerWork work = ctx.work(li, dim, layer_sparsity);
    Event compute;
    compute.kind = EventKind::kCompute;
    compute.layer_name = a.spec.name;
    compute.partition_dim = dim;
    compute.macs_discounted = work.macs_discounted;
    compute.chip = s;
    if (have_comm) compute.deps.push_back(schedule.events.size() - 1);
    if (have_prev) compute.deps.push_back(prev_compute);
    compute.per_core_work.assign(schedule.cores, accel::LayerPartitionWork{});
    for (std::size_t c = 0; c < P; ++c) {
      compute.per_core_work[core_base + place[c]] = work.per_partition[c];
    }
    schedule.events.push_back(std::move(compute));
  }
  return schedule;
}

}  // namespace

LoweringContext::LoweringContext(const nn::NetSpec& spec,
                                 const core::InferenceTraffic& traffic,
                                 std::size_t cores,
                                 std::size_t bytes_per_value,
                                 std::size_t chips)
    : P_(cores), bytes_per_value_(bytes_per_value), chips_(chips) {
  for (nn::LayerAnalysis& a : nn::analyze(spec)) {
    if (a.is_compute()) computes_.push_back(std::move(a));
  }
  // First transition per consumer name wins (names are unique in the zoo).
  traffic_.assign(computes_.size(), nullptr);
  for (std::size_t li = 0; li < computes_.size(); ++li) {
    for (const core::TransitionTraffic& t : traffic.transitions) {
      if (t.layer_name == computes_[li].spec.name) {
        traffic_[li] = &t;
        break;
      }
    }
  }
  stages_ = chips == 1 ? std::vector<std::size_t>(computes_.size(), 0)
                       : partition_stages(spec, chips);
}

bool LoweringContext::compatible(std::size_t li, PartitionDim dim) const {
  if (li >= layers()) return false;
  const nn::LayerAnalysis& a = computes_[li];
  const bool conv = a.spec.kind == nn::LayerKind::kConv;
  const bool grouped = conv && a.spec.groups > 1;
  switch (dim) {
    case PartitionDim::kKernel:
      return true;
    case PartitionDim::kBatch:
      return !grouped;  // grouped connectivity is modeled kernel-wise only
    case PartitionDim::kHeight:
      return conv && !grouped && a.out.h >= 2;
    case PartitionDim::kWidth:
      return conv && !grouped && a.out.w >= 2;
    case PartitionDim::kChannel: {
      // The reduce-scatter rides on the next on-chip layer transition, so
      // the last compute layer of every stage cannot be channel-split.
      const bool stage_end =
          li + 1 == layers() || stages_[li + 1] != stages_[li];
      return !grouped && in_units(a) >= 2 && !stage_end;
    }
  }
  return false;
}

std::size_t LoweringContext::input_bytes(std::size_t li) const {
  return computes_[li].in.numel() * bytes_per_value_;
}

TransitionBurst LoweringContext::transition(std::size_t li,
                                            PartitionDim prev_dim,
                                            PartitionDim dim) const {
  TransitionBurst burst;
  if (li == 0) return burst;
  const nn::LayerAnalysis& a = computes_[li];
  const nn::LayerAnalysis& prev = computes_[li - 1];
  if (dim == PartitionDim::kKernel && prev_dim == PartitionDim::kKernel) {
    // Kernel-wise transition: reuse the caller's traffic analysis (it
    // carries grouped-conv connectivity and weight liveness the geometric
    // model does not).
    const core::TransitionTraffic* t = traffic_[li];
    if (t != nullptr && !t->messages.empty()) {
      burst.messages.reserve(t->messages.size());
      for (const noc::Message& m : t->messages) {
        burst.messages.push_back({m.src, m.dst, m.bytes, 0});
      }
      burst.traffic_bytes = t->total_bytes;
    }
    return burst;
  }
  // A tuned dimension on either side: geometric ownership model. Boxes
  // intersect in the producer's output geometry; the bytes that actually
  // cross the NoC are the consumer's *input* activations (post-pool/relu/
  // flatten), so the intersected volume is rescaled by the consumer-input :
  // producer-output element ratio — which makes the kernel->kernel
  // degenerate case of this model agree with the unit-based
  // TransitionBuilder arithmetic exactly.
  const OutGeom prev_geom = out_geom(prev);
  const double consumer_scale =
      static_cast<double>(a.in.numel()) /
      static_cast<double>(prev_geom.c * prev_geom.h * prev_geom.w);
  const std::vector<Box> owned = owned_boxes(prev, prev_dim, P_);
  const std::vector<Box> needed = needed_boxes(a, dim, P_, prev_geom);
  TransitionAccum accum(P_);
  for (std::size_t c = 0; c < P_; ++c) {
    if (needed[c].volume() == 0) continue;
    for (std::size_t p = 0; p < P_; ++p) {
      if (p == c) continue;
      const std::size_t vol = intersect(owned[p], needed[c]).volume();
      accum.add(p, c,
                static_cast<std::size_t>(
                    static_cast<double>(vol) * consumer_scale *
                        static_cast<double>(bytes_per_value_) +
                    0.5));
    }
  }
  if (prev_dim == PartitionDim::kChannel) {
    // Reduce-scatter of the producer's partial sums back to the
    // kernel-wise layout: partition p sends its partials of q's output
    // slice to q.
    const auto kernel_ranges = core::balanced_ranges(out_units(prev), P_);
    const std::size_t spatial = prev_geom.h * prev_geom.w;
    for (std::size_t p = 0; p < P_; ++p) {
      for (std::size_t q = 0; q < P_; ++q) {
        if (p == q) continue;
        accum.add(p, q,
                  kernel_ranges[q].count() * spatial * bytes_per_value_);
      }
    }
  }
  accum.emit(&burst);
  return burst;
}

LayerWork LoweringContext::work(std::size_t li, PartitionDim dim,
                                const core::LayerSparsity* sparsity) const {
  const nn::LayerAnalysis& a = computes_[li];
  LayerWork out;
  out.per_partition.assign(P_, accel::LayerPartitionWork{});
  const std::size_t units = out_units(a);
  const std::size_t weight_bytes_total = a.weight_count * bytes_per_value_;
  const std::size_t in_bytes = a.in.numel() * bytes_per_value_;
  const std::size_t out_bytes_total = a.out.numel() * bytes_per_value_;

  switch (dim) {
    case PartitionDim::kKernel: {
      // Work splitting reproduces the pre-IR executor loop bit-for-bit:
      // same share/live expressions, same +0.5 roundings.
      const auto out_ranges = core::balanced_ranges(units, P_);
      for (std::size_t c = 0; c < P_; ++c) {
        const double share =
            units ? static_cast<double>(out_ranges[c].count()) /
                        static_cast<double>(units)
                  : 0.0;
        if (share == 0.0) continue;
        const double live =
            sparsity != nullptr && c < sparsity->live_fraction.size()
                ? sparsity->live_fraction[c]
                : 1.0;
        accel::LayerPartitionWork& w = out.per_partition[c];
        const auto dense_macs = static_cast<std::uint64_t>(
            static_cast<double>(a.macs) * share + 0.5);
        w.macs = static_cast<std::uint64_t>(
            static_cast<double>(a.macs) * share * live + 0.5);
        out.macs_discounted += dense_macs - w.macs;
        w.weight_bytes = static_cast<std::uint64_t>(
            static_cast<double>(weight_bytes_total) * share * live + 0.5);
        w.input_bytes = in_bytes;  // every core reads the full input
        w.output_bytes = static_cast<std::uint64_t>(
            static_cast<double>(out_bytes_total) * share + 0.5);
      }
      break;
    }
    case PartitionDim::kBatch: {
      // Batch of one: partition 0 executes the whole layer.
      accel::LayerPartitionWork& w = out.per_partition[0];
      w.macs = a.macs;
      w.weight_bytes = weight_bytes_total;
      w.input_bytes = in_bytes;
      w.output_bytes = out_bytes_total;
      break;
    }
    case PartitionDim::kHeight:
    case PartitionDim::kWidth: {
      // Spatial split: MACs and outputs scale with the slice, every core
      // holds the full kernel set, and inputs are the halo-extended slice
      // of the input volume.
      const std::size_t axis =
          dim == PartitionDim::kHeight ? a.out.h : a.out.w;
      const std::size_t in_axis =
          dim == PartitionDim::kHeight ? a.in.h : a.in.w;
      const auto ranges = core::balanced_ranges(axis, P_);
      for (std::size_t c = 0; c < P_; ++c) {
        const auto r = ranges[c];
        if (r.count() == 0) continue;
        const double share =
            static_cast<double>(r.count()) / static_cast<double>(axis);
        accel::LayerPartitionWork& w = out.per_partition[c];
        w.macs = static_cast<std::uint64_t>(
            static_cast<double>(a.macs) * share + 0.5);
        w.weight_bytes = weight_bytes_total;
        std::size_t lo = 0, hi = 0;
        halo(r, a.spec, in_axis, &lo, &hi);
        const std::size_t halo_rows = hi > lo ? hi - lo : 0;
        w.input_bytes = in_bytes / in_axis * halo_rows;
        w.output_bytes = static_cast<std::uint64_t>(
            static_cast<double>(out_bytes_total) * share + 0.5);
      }
      break;
    }
    case PartitionDim::kChannel: {
      // Input-channel split: each core computes partial sums for the
      // whole output volume over its channel slice.
      const std::size_t in_u = in_units(a);
      const auto ranges = core::balanced_ranges(in_u, P_);
      for (std::size_t c = 0; c < P_; ++c) {
        const auto r = ranges[c];
        if (r.count() == 0) continue;
        const double share =
            static_cast<double>(r.count()) / static_cast<double>(in_u);
        accel::LayerPartitionWork& w = out.per_partition[c];
        w.macs = static_cast<std::uint64_t>(
            static_cast<double>(a.macs) * share + 0.5);
        w.weight_bytes = static_cast<std::uint64_t>(
            static_cast<double>(weight_bytes_total) * share + 0.5);
        w.input_bytes = in_bytes / in_u * r.count();
        w.output_bytes = out_bytes_total;  // full partial-sum volume
      }
      break;
    }
  }
  return out;
}

Schedule lower(const nn::NetSpec& spec, const core::InferenceTraffic& traffic,
               const BuildOptions& opts,
               const core::SparsityProfile* sparsity, Strategy strategy) {
  return lower_pipelined(spec, traffic, opts, 1, sparsity, strategy);
}

std::vector<std::size_t> partition_stages(const nn::NetSpec& spec,
                                          std::size_t k) {
  std::vector<std::uint64_t> macs;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    if (a.is_compute()) macs.push_back(a.macs);
  }
  const std::size_t n = macs.size();
  if (k == 0 || k > n) {
    throw std::invalid_argument(
        "partition_stages('" + spec.name + "'): " + std::to_string(n) +
        " compute layers cannot fill " + std::to_string(k) +
        " pipeline stages");
  }

  // Greedy left-to-right packing under `cap`: a new stage opens before a
  // layer that would push the current one past it.
  const auto stages_needed = [&macs](std::uint64_t cap) {
    std::size_t used = 1;
    std::uint64_t acc = 0;
    for (const std::uint64_t m : macs) {
      if (acc + m > cap) {
        ++used;
        acc = 0;
      }
      acc += m;
    }
    return used;
  };
  // Binary-search the smallest cap (>= the largest layer, so every layer
  // fits alone) that packs into at most k stages.
  std::uint64_t lo = *std::max_element(macs.begin(), macs.end());
  std::uint64_t hi = 0;
  for (const std::uint64_t m : macs) hi += m;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (stages_needed(mid) <= k) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::uint64_t cap = lo;

  // Emit that packing, but open a stage early once the layers left only
  // just cover the stages still to open, so exactly k stages come out.
  std::vector<std::size_t> stages(n, 0);
  std::size_t s = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && (acc + macs[i] > cap || n - i == k - 1 - s)) {
      ++s;
      acc = 0;
    }
    stages[i] = s;
    acc += macs[i];
  }
  return stages;
}

Schedule lower_pipelined(const nn::NetSpec& spec,
                         const core::InferenceTraffic& traffic,
                         const BuildOptions& opts, std::size_t chips,
                         const core::SparsityProfile* sparsity,
                         Strategy strategy) {
  const LoweringContext ctx(spec, traffic, opts.cores, opts.bytes_per_value,
                            chips);
  return assemble(spec, ctx, opts, sparsity, strategy);
}

}  // namespace ls::sched
