#include "prof/attribution.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "check/check.hpp"
#include "util/stats.hpp"

namespace ls::prof {

namespace {

bool is_comm(const sched::Schedule& schedule, sched::EventId e) {
  return schedule.events[e].kind == sched::EventKind::kComm;
}

bool is_inter_chip(const sched::Schedule& schedule, sched::EventId e) {
  return schedule.events[e].inter_chip;
}

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// One past the highest request id on the timeline.
std::size_t request_count(const sim::StreamTimeline& timeline) {
  std::size_t requests = 0;
  for (const sim::StreamTimelineItem& it : timeline.items) {
    requests = std::max(requests, it.request + 1);
  }
  return requests;
}

/// Timeline index of (request, event) at [request * E + event]; kNone where
/// the timeline holds no such item.
std::vector<std::size_t> index_items(const sched::Schedule& schedule,
                                     const sim::StreamTimeline& timeline) {
  const std::size_t E = schedule.events.size();
  std::vector<std::size_t> index(request_count(timeline) * E, kNone);
  for (std::size_t i = 0; i < timeline.items.size(); ++i) {
    const sim::StreamTimelineItem& it = timeline.items[i];
    index[it.request * E + it.event] = i;
  }
  return index;
}

}  // namespace

StreamAttribution attribute_stream(const sched::Schedule& schedule,
                                   const sim::StreamTimeline& timeline) {
  StreamAttribution out;
  const std::vector<sim::StreamTimelineItem>& items = timeline.items;
  const std::size_t n = items.size();
  out.items.resize(n);
  if (n == 0) return out;

  const std::size_t E = schedule.events.size();
  const std::vector<std::size_t> by_key = index_items(schedule, timeline);

  // Resource predecessor/successor: the adjacent item on the same resource
  // in dispatch order (dispatch order sequences each resource).
  std::vector<std::size_t> res_pred(n, kNone);
  std::vector<std::size_t> res_succ(n, kNone);
  {
    std::vector<std::size_t> last(sched::resource_count(schedule), kNone);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t& l = last[sched::resource_of(schedule, items[i].event)];
      res_pred[i] = l;
      if (l != kNone) res_succ[l] = i;
      l = i;
    }
  }

  // Makespan item: the latest finish; the last dispatched one on ties (its
  // start is the largest, keeping the backward walk's steps maximal).
  std::size_t peak = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (items[i].finish_cycle >= items[peak].finish_cycle) peak = i;
  }
  out.makespan_cycles = items[peak].finish_cycle;

  // Backward blame walk (see header). Each chain item's duration is blamed
  // by how the walk *entered* it: through its resource -> the resource was
  // busy with it (compute/noc); through a dependency edge -> the
  // successor's resource waited on it (dep stall). The terminal item is
  // "entered" through its own execution.
  std::size_t cur = peak;
  bool entered_via_dep = false;
  sched::EventKind dep_kind = sched::EventKind::kCompute;
  bool dep_inter_chip = false;
  while (true) {
    const sim::StreamTimelineItem& it = items[cur];
    const std::uint64_t dur = it.finish_cycle - it.start_cycle;
    const bool comm = is_comm(schedule, it.event);
    const bool inter = is_inter_chip(schedule, it.event);
    if (entered_via_dep) {
      if (dep_inter_chip) {
        out.blame.dep_stall_on_inter_chip_cycles += dur;
      } else {
        (dep_kind == sched::EventKind::kComm
             ? out.blame.dep_stall_on_comm_cycles
             : out.blame.dep_stall_on_compute_cycles) += dur;
      }
    } else if (inter) {
      out.blame.inter_chip_cycles += dur;
    } else {
      (comm ? out.blame.noc_cycles : out.blame.compute_cycles) += dur;
    }
    out.items[cur].on_critical_chain = true;
    out.critical_chain.push_back(cur);
    if (it.start_cycle == 0) break;

    // Prefer the resource step when both explanations meet the start: the
    // resource genuinely ran back-to-back, so the wait was contention.
    const std::size_t rp = res_pred[cur];
    if (rp != kNone && items[rp].finish_cycle == it.start_cycle) {
      cur = rp;
      entered_via_dep = false;
      continue;
    }
    std::size_t via = kNone;
    for (const sched::EventId dep : schedule.events[it.event].deps) {
      const std::size_t found = by_key[it.request * E + dep];
      if (found != kNone && items[found].finish_cycle == it.start_cycle) {
        via = found;
        break;
      }
    }
    LS_CHECK_MSG(via != kNone,
                 "attribute_stream: item r%zu/e%zu starts at %llu with no "
                 "predecessor finishing there — timeline is not from a "
                 "work-conserving run",
                 it.request, it.event,
                 static_cast<unsigned long long>(it.start_cycle));
    if (via == kNone) {  // unchecked builds: bail out with what we have
      break;
    }
    dep_kind = schedule.events[items[via].event].kind;
    dep_inter_chip = is_inter_chip(schedule, items[via].event);
    cur = via;
    entered_via_dep = true;
  }
  std::reverse(out.critical_chain.begin(), out.critical_chain.end());
  LS_CHECK_MSG(out.blame.total() == out.makespan_cycles,
               "attribute_stream: blame %llu != makespan %llu",
               static_cast<unsigned long long>(out.blame.total()),
               static_cast<unsigned long long>(out.makespan_cycles));

  // Slack: CPM late-finish backward pass over the fixed dispatch sequence.
  // Successors are the next same-resource item plus dependency successors;
  // both are dispatched later, so one reverse sweep sees every successor's
  // late start before its predecessors need it.
  std::vector<std::uint64_t> late_finish(n, out.makespan_cycles);
  for (std::size_t ri = n; ri-- > 0;) {
    const sim::StreamTimelineItem& it = items[ri];
    const std::uint64_t dur = it.finish_cycle - it.start_cycle;
    const std::uint64_t late_start = late_finish[ri] - dur;
    if (res_pred[ri] != kNone) {
      late_finish[res_pred[ri]] =
          std::min(late_finish[res_pred[ri]], late_start);
    }
    for (const sched::EventId dep : schedule.events[it.event].deps) {
      const std::size_t found = by_key[it.request * E + dep];
      if (found != kNone) {
        late_finish[found] = std::min(late_finish[found], late_start);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.items[i].slack_cycles = late_finish[i] - items[i].finish_cycle;
    LS_CHECK_MSG(
        !out.items[i].on_critical_chain || out.items[i].slack_cycles == 0,
        "attribute_stream: critical-chain item %zu has slack %llu", i,
        static_cast<unsigned long long>(out.items[i].slack_cycles));
  }
  return out;
}

BlameBreakdown attribute_single_pass(const sim::InferenceResult& result) {
  BlameBreakdown blame;
  blame.compute_cycles = result.compute_cycles;
  blame.dep_stall_on_comm_cycles = result.comm_cycles;
  LS_CHECK_MSG(blame.total() == result.total_cycles,
               "attribute_single_pass: blame %llu != total %llu",
               static_cast<unsigned long long>(blame.total()),
               static_cast<unsigned long long>(result.total_cycles));
  return blame;
}

StreamLatency stream_latency(const sched::Schedule& schedule,
                             const sim::StreamTimeline& timeline) {
  StreamLatency out;
  // Indexed by request id: iteration below feeds the report in request
  // order, so the accumulation-to-output path never passes through hash
  // order (lslint's unordered-iteration rule; the JSON report is
  // byte-stable because of it). Ids with no item keep request == kNone.
  std::vector<RequestLatency> by_request(request_count(timeline),
                                         RequestLatency{kNone});
  for (const sim::StreamTimelineItem& it : timeline.items) {
    RequestLatency& r = by_request[it.request];
    r.request = it.request;
    r.latency_cycles = std::max(r.latency_cycles, it.finish_cycle);
    const std::uint64_t dur = it.finish_cycle - it.start_cycle;
    (is_comm(schedule, it.event) ? r.comm_cycles : r.compute_cycles) += dur;
  }
  out.requests.reserve(by_request.size());
  for (RequestLatency& r : by_request) {  // ascending request id
    if (r.request == kNone) continue;
    r.queue_wait_cycles = r.latency_cycles - r.compute_cycles - r.comm_cycles;
    out.requests.push_back(r);
  }
  if (!out.requests.empty()) {
    std::vector<double> lat;
    lat.reserve(out.requests.size());
    for (const RequestLatency& r : out.requests) {
      lat.push_back(static_cast<double>(r.latency_cycles));
    }
    out.p50_cycles = util::percentile(lat, 50.0);
    out.p95_cycles = util::percentile(lat, 95.0);
    out.p99_cycles = util::percentile(lat, 99.0);
  }
  return out;
}

}  // namespace ls::prof
