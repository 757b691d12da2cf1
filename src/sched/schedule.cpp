#include "sched/schedule.hpp"

#include "sched/cost_model.hpp"
#include "util/json.hpp"

namespace ls::sched {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kComm:
      return "comm";
    case EventKind::kCompute:
      return "compute";
  }
  return "?";
}

const char* to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::kTraditional:
      return "traditional";
    case Strategy::kStructureLevel:
      return "structure_level";
    case Strategy::kSparsified:
      return "sparsified";
    case Strategy::kHybrid:
      return "hybrid";
  }
  return "?";
}

const char* to_string(PartitionDim dim) {
  switch (dim) {
    case PartitionDim::kKernel:
      return "kernel";
    case PartitionDim::kBatch:
      return "batch";
    case PartitionDim::kHeight:
      return "height";
    case PartitionDim::kWidth:
      return "width";
    case PartitionDim::kChannel:
      return "channel";
  }
  return "?";
}

bool parse_partition_dim(const std::string& name, PartitionDim* out) {
  for (const PartitionDim dim :
       {PartitionDim::kKernel, PartitionDim::kBatch, PartitionDim::kHeight,
        PartitionDim::kWidth, PartitionDim::kChannel}) {
    if (name == to_string(dim)) {
      *out = dim;
      return true;
    }
  }
  return false;
}

std::size_t Schedule::compute_event_count() const {
  std::size_t n = 0;
  for (const Event& e : events) n += e.kind == EventKind::kCompute ? 1 : 0;
  return n;
}

std::size_t Schedule::comm_event_count() const {
  std::size_t n = 0;
  for (const Event& e : events) n += e.kind == EventKind::kComm ? 1 : 0;
  return n;
}

std::size_t Schedule::traffic_bytes() const {
  std::size_t n = 0;
  for (const Event& e : events) n += e.traffic_bytes;
  return n;
}

std::size_t resource_of(const Schedule& schedule, EventId e) {
  const Event& ev = schedule.events[e];
  if (ev.kind == EventKind::kCompute) return ev.chip;
  if (!ev.inter_chip) return schedule.chips + ev.chip;
  return 2 * schedule.chips + ev.chip - 1;
}

std::size_t resource_count(const Schedule& schedule) {
  return 3 * schedule.chips - 1;
}

void to_json(const Schedule& schedule, util::JsonWriter& w,
             const CycleEstimate* estimate) {
  w.begin_object();
  w.key("net").value(schedule.net_name);
  w.key("strategy").value(to_string(schedule.strategy));
  w.key("cores").value(static_cast<std::uint64_t>(schedule.cores));
  // Single-chip dumps stay byte-identical to the pre-hierarchy format:
  // chip fields only appear once a schedule actually spans chips.
  if (schedule.chips > 1) {
    w.key("chips").value(static_cast<std::uint64_t>(schedule.chips));
  }
  if (!schedule.placement.empty()) {
    w.key("placement");
    w.begin_array();
    for (const std::size_t core : schedule.placement) {
      w.value(static_cast<std::uint64_t>(core));
    }
    w.end_array();
  }
  w.key("traffic_bytes")
      .value(static_cast<std::uint64_t>(schedule.traffic_bytes()));
  if (estimate != nullptr) {
    w.key("est_total_cycles").value(estimate->total_cycles);
    w.key("est_compute_cycles").value(estimate->compute_cycles);
    w.key("est_comm_cycles").value(estimate->comm_cycles);
  }
  w.key("events");
  w.begin_array();
  for (std::size_t id = 0; id < schedule.events.size(); ++id) {
    const Event& e = schedule.events[id];
    w.begin_object();
    w.key("id").value(static_cast<std::uint64_t>(id));
    w.key("kind").value(to_string(e.kind));
    w.key("layer").value(e.layer_name);
    if (schedule.chips > 1) {
      w.key("chip").value(static_cast<std::uint64_t>(e.chip));
      if (e.kind == EventKind::kComm) {
        w.key("inter_chip").value(e.inter_chip);
      }
    }
    if (estimate != nullptr && id < estimate->events.size()) {
      // The analytic scorer's view of this event: what it contributes to
      // the serial timeline (after overlap) and, for comm events, the
      // estimated raw drain before overlap.
      w.key("est_cycles").value(estimate->events[id].cycles);
      if (e.kind == EventKind::kComm) {
        w.key("est_raw_comm_cycles")
            .value(estimate->events[id].raw_comm_cycles);
      }
    }
    w.key("deps");
    w.begin_array();
    for (const EventId dep : e.deps) {
      w.value(static_cast<std::uint64_t>(dep));
    }
    w.end_array();
    if (e.kind == EventKind::kComm) {
      w.key("bytes").value(static_cast<std::uint64_t>(e.traffic_bytes));
      w.key("overlap").value(e.overlap_with_prev_compute);
      w.key("messages");
      w.begin_array();
      for (const noc::Message& m : e.messages) {
        w.begin_array();
        w.value(static_cast<std::uint64_t>(m.src));
        w.value(static_cast<std::uint64_t>(m.dst));
        w.value(static_cast<std::uint64_t>(m.bytes));
        w.end_array();
      }
      w.end_array();
    } else {
      w.key("dim").value(to_string(e.partition_dim));
      w.key("macs_discounted").value(e.macs_discounted);
      w.key("per_core");
      w.begin_array();
      for (std::size_t c = 0; c < e.per_core_work.size(); ++c) {
        const accel::LayerPartitionWork& work = e.per_core_work[c];
        if (work.macs == 0 && work.weight_bytes == 0 &&
            work.input_bytes == 0 && work.output_bytes == 0) {
          continue;  // idle core
        }
        w.begin_object();
        w.key("core").value(static_cast<std::uint64_t>(c));
        w.key("macs").value(work.macs);
        w.key("weight_bytes").value(work.weight_bytes);
        w.key("input_bytes").value(work.input_bytes);
        w.key("output_bytes").value(work.output_bytes);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string to_json(const Schedule& schedule, const CycleEstimate* estimate) {
  util::JsonWriter w;
  to_json(schedule, w, estimate);
  return w.str();
}

}  // namespace ls::sched
