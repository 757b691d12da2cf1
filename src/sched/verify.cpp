#include "sched/verify.hpp"

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "check/check.hpp"
#include "noc/topology.hpp"

namespace ls::sched {

namespace {

bool idle(const accel::LayerPartitionWork& w) {
  return w.macs == 0 && w.weight_bytes == 0 && w.input_bytes == 0 &&
         w.output_bytes == 0;
}

/// printf-style violation collector; messages are only formatted on the
/// failure path, so the clean-schedule fast path does no string work.
class Collector {
 public:
  explicit Collector(VerifyReport* report) : report_(report) {}

  [[gnu::format(printf, 4, 5)]] void add(VerifyCode code, EventId event,
                                         const char* fmt, ...) {
    char buf[256];
    std::va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    report_->violations.push_back({code, event, buf});
  }

 private:
  VerifyReport* report_;
};

}  // namespace

const char* to_string(VerifyCode code) {
  switch (code) {
    case VerifyCode::kCyclicDependence:
      return "cyclic-dependence";
    case VerifyCode::kPlacementNotBijective:
      return "placement-not-bijective";
    case VerifyCode::kUnpairedEvent:
      return "unpaired-event";
    case VerifyCode::kOrphanBurstEndpoint:
      return "orphan-burst-endpoint";
    case VerifyCode::kByteTotalMismatch:
      return "byte-total-mismatch";
    case VerifyCode::kOffMeshRoute:
      return "off-mesh-route";
    case VerifyCode::kCapacityOverflow:
      return "capacity-overflow";
    case VerifyCode::kNondeterministicReduction:
      return "nondeterministic-reduction";
    case VerifyCode::kChipBoundaryViolation:
      return "chip-boundary-violation";
  }
  return "?";
}

std::string VerifyReport::to_string() const {
  std::string out;
  for (const Violation& v : violations) {
    if (v.event == kNoEvent) {
      out += "schedule [";
    } else {
      char head[32];
      std::snprintf(head, sizeof(head), "event %zu [", v.event);
      out += head;
    }
    out += sched::to_string(v.code);
    out += "]: ";
    out += v.message;
    out += '\n';
  }
  return out;
}

VerifyReport verify(const Schedule& schedule, const VerifyOptions& options) {
  VerifyReport report;
  Collector out(&report);

  if (schedule.cores == 0) {
    out.add(VerifyCode::kPlacementNotBijective, kNoEvent,
            "schedule '%s' has zero cores — no core range to cover",
            schedule.net_name.c_str());
    return report;  // every later check indexes by core id
  }
  const std::size_t P = schedule.cores;

  // --- Chip hierarchy shape ----------------------------------------------
  if (schedule.chips == 0 || P % schedule.chips != 0) {
    out.add(VerifyCode::kChipBoundaryViolation, kNoEvent,
            "%zu chips do not evenly divide %zu cores", schedule.chips, P);
    return report;  // the per-chip core ranges below would be meaningless
  }
  const std::size_t chips = schedule.chips;
  const std::size_t cpc = P / chips;  // cores per chip (chip-major ranges)
  if (chips > 1 && !schedule.placement.empty()) {
    out.add(VerifyCode::kChipBoundaryViolation, kNoEvent,
            "multi-chip schedules use the identity placement; permutations "
            "are per-chip-mesh concepts");
  }

  // --- Placement bijectivity and the inverse map -------------------------
  // inv[core] = partition the lowering mapped onto `core`; identity when no
  // permutation was recorded. The burst-order check runs in partition
  // space, so it needs the inverse even for permuted placements.
  std::vector<std::size_t> inv(P);
  for (std::size_t i = 0; i < P; ++i) inv[i] = i;
  bool placement_ok = true;
  if (!schedule.placement.empty()) {
    if (schedule.placement.size() != P) {
      out.add(VerifyCode::kPlacementNotBijective, kNoEvent,
              "placement maps %zu partitions on a %zu-core machine",
              schedule.placement.size(), P);
      placement_ok = false;
    } else {
      std::vector<bool> seen(P, false);
      for (std::size_t part = 0; part < P; ++part) {
        const std::size_t core = schedule.placement[part];
        if (core >= P || seen[core]) {
          out.add(VerifyCode::kPlacementNotBijective, kNoEvent,
                  "placement is not a bijective permutation (core %zu "
                  "out of range or repeated)",
                  core);
          placement_ok = false;
          break;
        }
        seen[core] = true;
        inv[core] = part;
      }
    }
  }

  // The mesh every on-chip route must stay on: each chip's own mesh —
  // which on a single-chip schedule is exactly the historical whole-machine
  // mesh. for_cores only throws on zero cores (rejected above) and on 1xN
  // chain counts, which were never legal machine shapes here either.
  const noc::MeshTopology mesh = noc::MeshTopology::for_cores(cpc);

  // Walk events once, tracking the most recent compute event (the producer
  // a comm burst drains from) and the pipeline-stage chip sequence.
  const Event* producer = nullptr;
  std::size_t last_compute_chip = 0;
  std::vector<bool> chip_seen(chips, false);
  for (EventId id = 0; id < schedule.events.size(); ++id) {
    const Event& e = schedule.events[id];

    if (e.chip >= chips) {
      out.add(VerifyCode::kChipBoundaryViolation, id,
              "event '%s' claims chip %zu on a %zu-chip package",
              e.layer_name.c_str(), e.chip, chips);
      continue;  // every chip-range check below would misfire
    }

    if (e.layer_name.empty()) {
      out.add(VerifyCode::kUnpairedEvent, id, "event has no layer name");
    }
    for (const EventId dep : e.deps) {
      if (dep >= id) {
        out.add(VerifyCode::kCyclicDependence, id,
                "'%s' depends on event %zu — dependencies must point "
                "strictly backwards (topological order, deadlock freedom)",
                e.layer_name.c_str(), dep);
      }
    }

    if (e.kind == EventKind::kComm) {
      if (e.messages.empty()) {
        out.add(VerifyCode::kUnpairedEvent, id,
                "comm event '%s' carries no messages — empty bursts must "
                "be elided at build time",
                e.layer_name.c_str());
      }
      const Event* consumer = nullptr;
      if (id + 1 >= schedule.events.size() ||
          schedule.events[id + 1].kind != EventKind::kCompute ||
          schedule.events[id + 1].layer_name != e.layer_name) {
        out.add(VerifyCode::kUnpairedEvent, id,
                "comm event '%s' is not immediately followed by its "
                "compute event",
                e.layer_name.c_str());
      } else {
        consumer = &schedule.events[id + 1];
      }
      if (producer == nullptr) {
        out.add(VerifyCode::kUnpairedEvent, id,
                "comm event '%s' has no producing compute event to drain "
                "from",
                e.layer_name.c_str());
      }
      if (consumer != nullptr && consumer->chip != e.chip) {
        out.add(VerifyCode::kChipBoundaryViolation, id,
                "comm event '%s' runs on chip %zu but feeds a compute "
                "event on chip %zu",
                e.layer_name.c_str(), e.chip, consumer->chip);
      }

      if (e.inter_chip) {
        // An inter-chip transfer is a single gateway-to-gateway message
        // entering chip e.chip from its predecessor: bytes cross chip
        // boundaries only at gateway links.
        if (e.chip == 0) {
          out.add(VerifyCode::kChipBoundaryViolation, id,
                  "inter-chip event '%s' enters chip 0 — there is no "
                  "boundary before the first chip",
                  e.layer_name.c_str());
        } else if (e.messages.size() != 1) {
          out.add(VerifyCode::kChipBoundaryViolation, id,
                  "inter-chip event '%s' carries %zu messages — the "
                  "serial link carries one gateway-to-gateway transfer",
                  e.layer_name.c_str(), e.messages.size());
        } else {
          const noc::Message& msg = e.messages.front();
          const std::size_t want_src = (e.chip - 1) * cpc;
          const std::size_t want_dst = e.chip * cpc;
          if (msg.src != want_src || msg.dst != want_dst) {
            out.add(VerifyCode::kChipBoundaryViolation, id,
                    "inter-chip message %zu -> %zu is not the gateway "
                    "link %zu -> %zu",
                    msg.src, msg.dst, want_src, want_dst);
          }
        }
        std::size_t ic_bytes = 0;
        for (const noc::Message& msg : e.messages) ic_bytes += msg.bytes;
        if (ic_bytes != e.traffic_bytes) {
          out.add(VerifyCode::kByteTotalMismatch, id,
                  "comm event '%s' declares %zu bytes but its messages "
                  "carry %zu",
                  e.layer_name.c_str(), e.traffic_bytes, ic_bytes);
        }
        continue;  // mesh-route/orphan/order checks are on-chip concepts
      }

      // After a channel-split producer the burst carries the reduce-scatter
      // back to the kernel-wise layout: its endpoints are kernel-range
      // owners, not necessarily workers of either adjacent compute event
      // (builders.cpp), so endpoint membership is unverifiable without the
      // net spec and is skipped for that one transition shape.
      const bool endpoints_checkable =
          producer != nullptr && consumer != nullptr &&
          producer->partition_dim != PartitionDim::kChannel &&
          producer->per_core_work.size() == P &&
          consumer->per_core_work.size() == P;

      std::size_t bytes = 0;
      bool prev_on_mesh = false;
      std::size_t prev_src = 0;
      std::size_t prev_dst = 0;
      const std::size_t base = e.chip * cpc;
      for (std::size_t m = 0; m < e.messages.size(); ++m) {
        const noc::Message& msg = e.messages[m];
        bytes += msg.bytes;
        // On-chip bursts stay inside their chip's core range; the route
        // check below then runs in chip-local coordinates (base == 0 on
        // single-chip schedules, where this is the historical check).
        if (schedule.chips > 1 &&
            (msg.src < base || msg.src >= base + cpc || msg.dst < base ||
             msg.dst >= base + cpc)) {
          out.add(VerifyCode::kChipBoundaryViolation, id,
                  "message %zu (%zu -> %zu) leaves chip %zu's core range "
                  "[%zu, %zu) without an inter-chip event",
                  m, msg.src, msg.dst, e.chip, base, base + cpc);
          prev_on_mesh = false;
          continue;
        }
        // Route validity: the XY/YX dimension-ordered path exists iff both
        // endpoints map to mesh coordinates — DOR hops between in-bounds
        // coordinates never leave the rectangle.
        if (msg.src - base >= mesh.num_cores() ||
            msg.dst - base >= mesh.num_cores()) {
          out.add(VerifyCode::kOffMeshRoute, id,
                  "message %zu (%zu -> %zu) cannot be %s-routed on the "
                  "%zux%zu mesh",
                  m, msg.src, msg.dst,
                  options.noc.routing == noc::Routing::kXY ? "XY" : "YX",
                  mesh.cols(), mesh.rows());
          prev_on_mesh = false;
          continue;
        }
        if (endpoints_checkable) {
          if (idle(producer->per_core_work[msg.src])) {
            out.add(VerifyCode::kOrphanBurstEndpoint, id,
                    "message %zu sends from core %zu, which holds no work "
                    "in producing layer '%s'",
                    m, msg.src, producer->layer_name.c_str());
          }
          if (idle(consumer->per_core_work[msg.dst])) {
            out.add(VerifyCode::kOrphanBurstEndpoint, id,
                    "message %zu delivers to core %zu, which holds no "
                    "work in consuming layer '%s'",
                    m, msg.dst, e.layer_name.c_str());
          }
        }
        // Determinism precondition: every builder emits bursts in strictly
        // ascending (producer partition, consumer partition) order, which
        // is what makes the channel-split reduce-scatter's accumulation
        // order (and the burst-cache key) reproducible. Checked in
        // partition space via the inverse placement.
        if (placement_ok && prev_on_mesh) {
          const bool ascending =
              inv[prev_src] < inv[msg.src] ||
              (inv[prev_src] == inv[msg.src] && inv[prev_dst] < inv[msg.dst]);
          if (!ascending) {
            out.add(VerifyCode::kNondeterministicReduction, id,
                    "message %zu (%zu -> %zu) breaks the strictly "
                    "ascending (producer, consumer) partition order the "
                    "reduction contract requires",
                    m, msg.src, msg.dst);
          }
        }
        prev_on_mesh = true;
        prev_src = msg.src;
        prev_dst = msg.dst;
      }
      if (bytes != e.traffic_bytes) {
        out.add(VerifyCode::kByteTotalMismatch, id,
                "comm event '%s' declares %zu bytes but its messages "
                "carry %zu",
                e.layer_name.c_str(), e.traffic_bytes, bytes);
      }
    } else {
      if (e.per_core_work.size() != P) {
        out.add(VerifyCode::kPlacementNotBijective, id,
                "compute event '%s' carries work for %zu cores on a "
                "%zu-core machine",
                e.layer_name.c_str(), e.per_core_work.size(), P);
      }
      if (!e.messages.empty() || e.traffic_bytes != 0) {
        out.add(VerifyCode::kUnpairedEvent, id,
                "compute event '%s' carries comm payload",
                e.layer_name.c_str());
      }
      if (options.check_capacity &&
          options.accel.dram_bytes_per_cycle <= 0.0) {
        for (std::size_t c = 0; c < e.per_core_work.size(); ++c) {
          if (e.per_core_work[c].weight_bytes >
              options.accel.weight_buffer_bytes) {
            out.add(VerifyCode::kCapacityOverflow, id,
                    "core %zu holds %llu weight bytes in layer '%s' — "
                    "over the %zu-byte buffer with no DRAM path to "
                    "stream them",
                    c,
                    static_cast<unsigned long long>(
                        e.per_core_work[c].weight_bytes),
                    e.layer_name.c_str(),
                    options.accel.weight_buffer_bytes);
          }
        }
      }
      if (schedule.chips > 1) {
        const std::size_t base = e.chip * cpc;
        for (std::size_t c = 0; c < e.per_core_work.size(); ++c) {
          if (!idle(e.per_core_work[c]) && (c < base || c >= base + cpc)) {
            out.add(VerifyCode::kChipBoundaryViolation, id,
                    "compute event '%s' assigns work to core %zu outside "
                    "chip %zu's core range [%zu, %zu)",
                    e.layer_name.c_str(), c, e.chip, base, base + cpc);
            break;
          }
        }
      }
      // Stage/chip bijectivity, half 1: the compute sequence visits chips
      // in non-decreasing order (stages are contiguous layer runs).
      if (e.chip < last_compute_chip) {
        out.add(VerifyCode::kChipBoundaryViolation, id,
                "compute event '%s' runs on chip %zu after chip %zu — "
                "pipeline stages must map to non-decreasing chip ids",
                e.layer_name.c_str(), e.chip, last_compute_chip);
      }
      // A channel split leaves partial sums of the whole output on every
      // core of its chip; the reduce-scatter is the next burst, on the
      // same chip. Without one (last layer, stage end) they are never
      // reduced. One core holds the full sum and needs no reduction.
      if (e.partition_dim == PartitionDim::kChannel && cpc > 1) {
        const Event* next =
            id + 1 < schedule.events.size() ? &schedule.events[id + 1]
                                            : nullptr;
        if (next == nullptr || next->kind != EventKind::kComm ||
            next->inter_chip || next->chip != e.chip) {
          out.add(VerifyCode::kNondeterministicReduction, id,
                  "compute event '%s' is channel-split but is not followed "
                  "by an on-chip burst on chip %zu to reduce-scatter its "
                  "partial sums",
                  e.layer_name.c_str(), e.chip);
        }
      }
      chip_seen[e.chip] = true;
      last_compute_chip = e.chip;
      producer = &e;
    }
  }
  // Stage/chip bijectivity, half 2: the stage map is onto — every chip of
  // a multi-chip package owns at least one compute event.
  if (chips > 1) {
    for (std::size_t s = 0; s < chips; ++s) {
      if (!chip_seen[s]) {
        out.add(VerifyCode::kChipBoundaryViolation, kNoEvent,
                "no pipeline stage maps to chip %zu — every chip must own "
                "at least one compute layer",
                s);
      }
    }
  }
  return report;
}

namespace testing {

namespace {

EventId first_comm(const Schedule& s) {
  for (EventId id = 0; id < s.events.size(); ++id) {
    if (s.events[id].kind == EventKind::kComm) return id;
  }
  LS_CHECK_MSG(false, "corrupt(): schedule has no comm event");
  return kNoEvent;
}

EventId first_compute(const Schedule& s) {
  for (EventId id = 0; id < s.events.size(); ++id) {
    if (s.events[id].kind == EventKind::kCompute) return id;
  }
  LS_CHECK_MSG(false, "corrupt(): schedule has no compute event");
  return kNoEvent;
}

}  // namespace

EventId corrupt(Schedule* s, Corruption kind) {
  switch (kind) {
    case Corruption::kCyclicDependence: {
      // A self-edge: the minimal non-backwards dependency.
      const EventId id = first_compute(*s);
      s->events[id].deps.push_back(id);
      return id;
    }
    case Corruption::kNonBijectivePlacement: {
      if (s->placement.empty()) {
        s->placement.resize(s->cores);
        for (std::size_t i = 0; i < s->cores; ++i) s->placement[i] = i;
      }
      s->placement[0] = s->placement[s->cores - 1];  // duplicate one core
      return kNoEvent;
    }
    case Corruption::kOrphanBurstEndpoint: {
      // Idle the consumer core the first message delivers to; the burst
      // now feeds a core with no work in the consuming layer.
      const EventId id = first_comm(*s);
      Event& consumer = s->events[id + 1];
      consumer.per_core_work[s->events[id].messages.front().dst] = {};
      return id;
    }
    case Corruption::kByteTotalMismatch: {
      const EventId id = first_comm(*s);
      s->events[id].traffic_bytes += 1;
      return id;
    }
    case Corruption::kOffMeshRoute: {
      const EventId id = first_comm(*s);
      s->events[id].messages.front().dst = s->cores + 1;
      return id;
    }
    case Corruption::kCapacityOverflow: {
      const EventId id = first_compute(*s);
      for (accel::LayerPartitionWork& w : s->events[id].per_core_work) {
        if (idle(w)) continue;
        w.weight_bytes = std::numeric_limits<std::uint64_t>::max();
        break;
      }
      return id;
    }
    case Corruption::kNondeterministicReduction: {
      // Swapping two messages preserves the byte total but breaks the
      // strictly ascending (producer, consumer) emission order.
      const EventId id = first_comm(*s);
      auto& msgs = s->events[id].messages;
      LS_CHECK_MSG(msgs.size() >= 2,
                   "corrupt(): burst too small to reorder");
      std::swap(msgs.front(), msgs.back());
      return id;
    }
    case Corruption::kChipBoundaryViolation: {
      // Bend the first inter-chip transfer off its destination gateway
      // (onto the gateway's mesh neighbour on the same chip).
      for (EventId id = 0; id < s->events.size(); ++id) {
        Event& e = s->events[id];
        if (e.kind != EventKind::kComm || !e.inter_chip) continue;
        e.messages.front().dst += 1;
        return id;
      }
      LS_CHECK_MSG(false, "corrupt(): schedule has no inter-chip event");
      return kNoEvent;
    }
  }
  return kNoEvent;
}

}  // namespace testing

}  // namespace ls::sched
