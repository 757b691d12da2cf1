#include "noc/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "check/check.hpp"
#include "obs/trace.hpp"

namespace ls::noc {

namespace {

std::atomic<bool> g_corrupt_next_run{false};

}  // namespace

namespace testing {

void corrupt_next_run() {
  if constexpr (check::kEnabled) g_corrupt_next_run.store(true);
}

}  // namespace testing

namespace {

// Router ports. kLocal is both injection (as input) and ejection (as
// output direction).
enum Port : std::size_t { kLocal = 0, kNorth, kSouth, kWest, kEast, kNumPorts };

constexpr Port kOpposite[kNumPorts] = {kLocal, kSouth, kNorth, kEast, kWest};
constexpr const char* kPortNames[kNumPorts] = {"local", "north", "south",
                                               "west", "east"};

struct Flit {
  std::uint32_t packet = 0;
  std::uint16_t dst = 0;
  bool tail = false;
};

// A flit on a link, headed for input slot `slot` (port * vcs + vc) of
// `router`. Meshes have at most 65536 routers of at most 40 slots.
struct InFlight {
  Flit flit;
  std::uint16_t router = 0;
  std::uint16_t slot = 0;
};

// In-flight heap entry: the cycle the flit lands, wrapped to 32 bits, and
// its InFlight's index in the payload ring.
struct Landing {
  std::uint32_t arrival = 0;
  std::uint32_t at = 0;
};

// Whether wrapped cycle a comes after b. Live arrivals span at most
// router_latency + 1 <= 2^30 cycles, so the wrapped difference has the sign
// of the true one.
bool later(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) > 0;
}

// Min-heap of landings that pops equal arrivals in exactly the order
// libstdc++'s std::priority_queue<..., std::greater<>> pops them, because
// it runs the same algorithm: push is std::push_heap's sift-up; pop moves
// the last entry out, walks the hole from the root to a leaf along the
// earlier child (the right one on ties, and the lone left child at an
// even length), then sifts the moved entry up from there (__adjust_heap).
// The model cycles depend on that order (DESIGN.md §4b).
class LandingHeap {
 public:
  /// Holds at most `capacity` entries.
  explicit LandingHeap(std::size_t capacity) : heap_(capacity) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const Landing& top() const { return heap_[0]; }

  void push(Landing v) {
    LS_CHECK_MSG(size_ < heap_.size(), "noc: %zu flits in flight overflow "
                 "the %zu buffer places", size_ + 1, heap_.size());
    sift_up(size_++, v);
  }

  void pop() {
    const std::size_t len = --size_;
    if (len == 0) return;
    const Landing v = heap_[len];
    std::size_t hole = 0;
    while (hole < (len - 1) / 2) {
      std::size_t child = 2 * hole + 2;
      child -= later(heap_[child].arrival, heap_[child - 1].arrival);
      heap_[hole] = heap_[child];
      hole = child;
    }
    if ((len & 1) == 0 && hole == (len - 2) / 2) {
      heap_[hole] = heap_[2 * hole + 1];
      hole = 2 * hole + 1;
    }
    sift_up(hole, v);
  }

 private:
  void sift_up(std::size_t hole, Landing v) {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!later(heap_[parent].arrival, v.arrival)) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = v;
  }

  std::vector<Landing> heap_;
  std::size_t size_ = 0;
};

// A message that puts flits on the mesh, in packetizer form.
struct Burst {
  std::uint64_t inject = 0;
  std::uint64_t flits = 0;
  std::uint32_t first_packet = 0;
  std::uint16_t dst = 0;
};

// A source's packetizer position in its current burst: the flits left,
// and the next flit's packet, index in that packet and VC (packet % vcs).
struct SourceFront {
  std::uint64_t inject = 0;
  std::uint64_t left = 0;
  std::uint64_t pos = 0;
  std::uint32_t packet = 0;
  std::uint32_t vc = 0;
  std::uint16_t dst = 0;
};

}  // namespace

MeshNocSimulator::MeshNocSimulator(MeshTopology topo, NocConfig cfg)
    : topo_(topo), cfg_(cfg) {
  if (cfg_.flit_bytes == 0 || cfg_.max_packet_flits == 0 || cfg_.vcs == 0 ||
      cfg_.vc_depth == 0 || cfg_.phys_channels == 0) {
    throw std::invalid_argument("degenerate NoC config");
  }
  if (cfg_.vcs > 8) {
    throw std::invalid_argument("at most 8 virtual channels supported");
  }
  if (cfg_.router_latency >= std::size_t{1} << 30) {
    throw std::invalid_argument("router latency must be under 2^30 cycles");
  }
}

std::size_t MeshNocSimulator::flits_for_bytes(std::size_t bytes) const {
  return (bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes;
}

std::uint64_t MeshNocSimulator::zero_load_latency(const Message& m) const {
  return zero_load_latency(topo_.hops(m.src, m.dst),
                           flits_for_bytes(m.bytes));
}

std::uint64_t MeshNocSimulator::zero_load_latency(std::size_t hops,
                                                  std::size_t flits) const {
  flits = std::max<std::size_t>(1, flits);
  // Head flit pays (router_latency + 1 link cycle) per hop plus the final
  // router; body flits stream behind at the link rate.
  const std::uint64_t head =
      static_cast<std::uint64_t>(hops + 1) * cfg_.router_latency +
      static_cast<std::uint64_t>(hops);
  const std::uint64_t serialization =
      (flits - 1) / cfg_.phys_channels;
  return head + serialization;
}

NocStats MeshNocSimulator::run(const std::vector<Message>& messages,
                               std::uint64_t max_cycles) const {
  obs::Span burst_span;
  if (obs::trace_enabled()) burst_span.begin("noc.burst", "noc");

  const std::size_t n = topo_.num_cores();
  const std::size_t vcs = cfg_.vcs;
  const std::size_t mpf = cfg_.max_packet_flits;
  if (n > 65536) {
    throw std::invalid_argument("NoC mesh of " + std::to_string(n) +
                                " cores exceeds the 65536 flits can address");
  }
  const std::size_t slots = kNumPorts * vcs;
  const std::size_t depth = cfg_.vc_depth;
  if (depth > std::numeric_limits<std::uint32_t>::max() / (n * slots)) {
    throw std::invalid_argument(
        "NoC buffers of " + std::to_string(n * slots) + " x " +
        std::to_string(depth) + " flits exceed the 2^32 the in-flight ring "
        "can address");
  }

  // Packetizer: flits are generated at injection time from each source's
  // ordered burst list; a message's packets take consecutive ids.
  // queue[s][cursor[s]] is source s's current burst and front[s] its
  // position in it.
  NocStats stats;
  obs::Span phase_span;
  if (obs::trace_enabled()) phase_span.begin("noc.packetize", "noc");
  std::vector<Burst> bursts;
  std::vector<std::vector<std::uint32_t>> queue(n);
  std::uint64_t next_packet = 0;
  for (const Message& m : messages) {
    if (m.src >= n || m.dst >= n) throw std::out_of_range("message endpoint");
    if (m.src == m.dst || m.bytes == 0) continue;  // no NoC traffic
    const std::uint64_t flits = flits_for_bytes(m.bytes);
    bursts.push_back({m.inject_cycle, flits,
                      static_cast<std::uint32_t>(next_packet),
                      static_cast<std::uint16_t>(m.dst)});
    queue[m.src].push_back(static_cast<std::uint32_t>(bursts.size() - 1));
    next_packet += (flits + mpf - 1) / mpf;
    stats.total_flits += flits;
  }
  if (next_packet > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("NoC burst packetizes to " +
                                std::to_string(next_packet) +
                                " packets; packet ids are 32-bit");
  }
  stats.packets = next_packet;
  phase_span.end();
  if (stats.total_flits == 0) return stats;

  std::vector<std::size_t> cursor(n, 0);
  std::uint64_t awaiting = stats.total_flits;  // not yet injected

#ifdef LS_ENABLE_CHECKS
  // One-shot test fault: append a copy of the first pending flit to the
  // first non-empty source, so the network carries one more flit than the
  // packetizer accounted for. The conservation checks after the drain loop
  // must catch this.
  if (g_corrupt_next_run.exchange(false)) {
    auto& q = *std::find_if(queue.begin(), queue.end(),
                            [](const auto& sq) { return !sq.empty(); });
    bursts.push_back(bursts[q.front()]);
    bursts.back().flits = 1;
    q.push_back(static_cast<std::uint32_t>(bursts.size() - 1));
    ++awaiting;
  }
#endif

  // Sources with messages left to inject. Each source only fills its own
  // local slots, so the order they are visited in does not matter.
  std::vector<SourceFront> front(n);
  auto load_front = [&](std::size_t s) {
    const Burst& b = bursts[queue[s][cursor[s]]];
    front[s] = {b.inject, b.flits, 0, b.first_packet,
                static_cast<std::uint32_t>(b.first_packet % vcs), b.dst};
  };
  std::vector<std::uint32_t> active;
  for (std::size_t s = 0; s < n; ++s) {
    if (queue[s].empty()) continue;
    active.push_back(static_cast<std::uint32_t>(s));
    load_front(s);
  }

  if (obs::trace_enabled()) phase_span.begin("noc.drain", "noc");

  // Route and neighbour tables: route[r*n + dst] is the output port a flit
  // at router r takes toward dst, nbr[r*kNumPorts + port] the next router.
  // Off-mesh neighbour entries wrap and are never read: XY/YX routes stay
  // on the mesh.
  std::vector<std::uint8_t> route(n * n);
  std::vector<std::uint32_t> nbr(n * kNumPorts);
  const auto cols = static_cast<std::uint32_t>(topo_.cols());
  const bool xy = cfg_.routing == Routing::kXY;
  for (std::size_t r = 0; r < n; ++r) {
    const auto id = static_cast<std::uint32_t>(r);
    const std::uint32_t next[kNumPorts] = {id, id - cols, id + cols, id - 1,
                                           id + 1};
    std::copy_n(next, kNumPorts, nbr.begin() + r * kNumPorts);
    const Coord a = topo_.coord(r);
    for (std::size_t dst = 0; dst < n; ++dst) {
      const Coord b = topo_.coord(dst);
      const Port x = b.x > a.x ? kEast : b.x < a.x ? kWest : kLocal;
      const Port y = b.y > a.y ? kSouth : b.y < a.y ? kNorth : kLocal;
      const Port first = xy ? x : y;
      route[r * n + dst] = first != kLocal ? first : (xy ? y : x);
    }
  }

  // Input buffers: slot s = port*vcs + vc of router r is buffer r*slots + s,
  // a ring of vc_depth flits (credits bound every FIFO by vc_depth).
  // occupancy counts FIFO contents plus in-flight flits headed there
  // (credit accounting happens at send time). want[r*kNumPorts + out] has
  // bit s set while slot s of router r is non-empty and its head flit
  // requests output out; it changes only when a flit enters an empty slot
  // and when a slot pops.
  std::vector<Flit> ring(n * slots * depth);
  std::vector<std::uint32_t> head(n * slots, 0);
  std::vector<std::uint32_t> size(n * slots, 0);
  std::vector<std::uint32_t> occupancy(n * slots, 0);
  std::vector<std::uint64_t> want(n * kNumPorts, 0);
  const std::uint64_t all_slots = (std::uint64_t{1} << slots) - 1;
  // vc_of[s] is slot s's VC; vc_slots[vc] has a bit set for each slot on it.
  std::uint8_t vc_of[kNumPorts * 8];
  std::uint64_t vc_slots[8] = {};
  for (std::size_t s = 0; s < slots; ++s) {
    vc_of[s] = static_cast<std::uint8_t>(s % vcs);
    vc_slots[s % vcs] |= std::uint64_t{1} << s;
  }
  std::size_t buffered = 0;
  auto push = [&](std::size_t r, std::size_t s, const Flit& f) {
    const std::size_t bi = r * slots + s;
    std::size_t at = head[bi] + size[bi];
    if (at >= depth) at -= depth;
    ring[bi * depth + at] = f;
    if (size[bi]++ == 0) {
      want[r * kNumPorts + route[r * n + f.dst]] |= std::uint64_t{1} << s;
    }
    ++buffered;
  };

  std::vector<std::uint64_t> packet_inject(stats.packets);
  std::vector<bool> packet_done(check::kEnabled ? stats.packets : 0, false);
  for (const Burst& b : bursts) {
    std::fill_n(packet_inject.begin() + b.first_packet,
                (b.flits + mpf - 1) / mpf, b.inject);
  }

  // Flits on links, keyed by the cycle they land. Flits that land in the
  // same cycle leave in the heap's pop order, and the model cycles depend
  // on it: pushes come in nondecreasing arrival order, yet a FIFO here is
  // not equivalent (DESIGN.md §4b). Credits bound the flits in flight by
  // the n*slots*depth buffer places, so a payload ring of that size never
  // overwrites a flit still in flight.
  std::vector<InFlight> payload(n * slots * depth);
  LandingHeap in_flight(payload.size());
  std::uint32_t next_payload = 0;
  // Flit counts per directed inter-router link (router x direction).
  std::vector<std::uint64_t> link_flits(n * kNumPorts, 0);

  std::uint64_t delivered_flits = 0;
  std::uint64_t total_pkt_latency = 0;
  std::uint64_t cycle = 0;

  for (; delivered_flits < stats.total_flits; ++cycle) {
    // An empty network changes no state until the next landing or the next
    // ready source front; the round-robin pointer is derived from `cycle`.
    // Every arrival still in flight is at or after `cycle`.
    if (buffered == 0) {
      std::uint64_t next =
          in_flight.empty()
              ? std::numeric_limits<std::uint64_t>::max()
              : cycle + (in_flight.top().arrival -
                         static_cast<std::uint32_t>(cycle));
      for (const std::uint32_t s : active) {
        next = std::min(next, front[s].inject);
      }
      if (next > max_cycles) next = max_cycles + 1;
      cycle = std::max(cycle, next);
    }
    if (cycle > max_cycles) {
      std::string msg = "NoC simulation exceeded max_cycles (" +
                        std::to_string(max_cycles) + ") at cycle " +
                        std::to_string(cycle) + ": " +
                        std::to_string(delivered_flits) + "/" +
                        std::to_string(stats.total_flits) +
                        " flits delivered, " +
                        std::to_string(in_flight.size()) + " in flight, " +
                        std::to_string(awaiting) + " awaiting injection";
      std::size_t shown = 0;
      for (std::size_t bi = 0; bi < n * slots && shown < 8; ++bi) {
        if (size[bi] == 0) continue;
        const std::size_t r = bi / slots;
        const Flit& f = ring[bi * depth + head[bi]];
        const Coord at = topo_.coord(r);
        const Coord to = topo_.coord(f.dst);
        const std::size_t out = route[r * n + f.dst];
        const Coord hop = topo_.coord(nbr[r * kNumPorts + out]);
        char line[192];
        std::snprintf(line, sizeof(line),
                      "; router (%zu,%zu) in %s vc %zu: %u flits (%u/%zu "
                      "credits), head packet %u to (%zu,%zu) next %s (%zu,%zu)",
                      at.x, at.y, kPortNames[bi % slots / vcs], bi % vcs,
                      size[bi], occupancy[bi], depth, f.packet, to.x, to.y,
                      out == kLocal ? "ejects at" : kPortNames[out], hop.x,
                      hop.y);
        msg += line;
        ++shown;
      }
      throw std::runtime_error(msg);
    }

    // 1. Land in-flight flits whose arrival time is now (occupancy was
    // already incremented at send time).
    const auto now = static_cast<std::uint32_t>(cycle);
    while (!in_flight.empty() && !later(in_flight.top().arrival, now)) {
      const InFlight& f = payload[in_flight.top().at];
      push(f.router, f.slot, f.flit);
      in_flight.pop();
    }

    // 2. Injection: packetize each active source's front flits into its
    // local input port.
    for (std::size_t i = 0; i < active.size();) {
      const std::uint32_t s = active[i];
      SourceFront& f = front[s];
      bool drained = false;
      for (std::size_t injected = 0;
           injected < cfg_.phys_channels && f.inject <= cycle; ++injected) {
        std::uint32_t& credit = occupancy[s * slots + f.vc];
        if (credit >= depth) break;
        ++credit;
        --f.left;
        const bool tail = ++f.pos == mpf || f.left == 0;
        push(s, f.vc, {f.packet, f.dst, tail});
        --awaiting;
        if (f.pos == mpf) {
          f.pos = 0;
          ++f.packet;
          if (++f.vc == vcs) f.vc = 0;
        }
        if (f.left == 0) {
          drained = ++cursor[s] == queue[s].size();
          if (drained) break;
          load_front(s);
        }
      }
      if (drained) {
        active[i] = active.back();
        active.pop_back();
      } else {
        ++i;
      }
    }

    // 3. Switch allocation: per router, per output direction, grant up to
    // phys_channels head flits, round-robin over input port x vc from
    // cycle % slots. FIFOs only pop during allocation, and a router's turn
    // serves the requests its slots made when the turn began: a slot whose
    // new head asks for a later output waits for the next cycle. A slot
    // whose VC has no credit at the next router is dropped from its
    // output's requests up front, or as soon as a grant takes the last
    // credit, so every slot the walk reaches is granted. A router's outputs
    // touch disjoint state, except that sends must reach the in-flight heap
    // in output order; ejection sends nothing, so it runs first on its own.
    const std::size_t ptr = cycle % slots;
    auto rotate = [&](std::uint64_t m) {
      return (m >> ptr | m << (slots - ptr)) & all_slots;
    };
    std::uint64_t vc_turn[8];
    for (std::size_t vc = 0; vc < vcs; ++vc) vc_turn[vc] = rotate(vc_slots[vc]);
    for (std::size_t r = 0; r < n; ++r) {
      std::uint64_t turn[kNumPorts];
      std::copy_n(want.begin() + r * kNumPorts, kNumPorts, turn);
      // Pops slot s after a grant on `out`; its next head, if any, requests
      // its own output.
      auto pop = [&](std::size_t s, std::size_t out) {
        const std::size_t bi = r * slots + s;
        const std::uint64_t bit = std::uint64_t{1} << s;
        --occupancy[bi];
        head[bi] = head[bi] + 1 == depth ? 0 : head[bi] + 1;
        const std::uint64_t more = std::uint64_t{0} - (--size[bi] != 0);
        const Flit& next = ring[bi * depth + head[bi]];
        want[r * kNumPorts + out] &= ~bit;
        want[r * kNumPorts + route[r * n + next.dst]] |= bit & more;
        --buffered;
        ++stats.router_traversals;
      };
      std::uint64_t rot = rotate(turn[kLocal]);
      for (std::size_t granted = 0; rot != 0 && granted < cfg_.phys_channels;
           ++granted) {
        std::size_t s = ptr + std::countr_zero(rot);
        rot &= rot - 1;
        if (s >= slots) s -= slots;
        const std::size_t bi = r * slots + s;
        const Flit& flit = ring[bi * depth + head[bi]];
        if (flit.tail) {
          if constexpr (check::kEnabled) packet_done[flit.packet] = true;
          const std::uint64_t lat = cycle - packet_inject[flit.packet];
          total_pkt_latency += lat;
          stats.max_packet_latency = std::max(stats.max_packet_latency, lat);
        }
        ++delivered_flits;
        pop(s, kLocal);
      }
      for (std::size_t out = kNorth; out < kNumPorts; ++out) {
        if (turn[out] == 0) continue;
        const std::uint32_t next_r = nbr[r * kNumPorts + out];
        const std::size_t next_port = kOpposite[out] * vcs;
        std::uint32_t* credit = &occupancy[next_r * slots + next_port];
        rot = rotate(turn[out]);
        for (std::size_t vc = 0; vc < vcs; ++vc) {
          rot &= ~(vc_turn[vc] & (std::uint64_t{0} - (credit[vc] >= depth)));
        }
        for (std::size_t granted = 0;
             rot != 0 && granted < cfg_.phys_channels; ++granted) {
          std::size_t s = ptr + std::countr_zero(rot);
          rot &= rot - 1;
          if (s >= slots) s -= slots;
          const std::size_t bi = r * slots + s;
          const std::size_t vc = vc_of[s];
          if (++credit[vc] == depth) rot &= ~vc_turn[vc];
          payload[next_payload] = {ring[bi * depth + head[bi]],
                                   static_cast<std::uint16_t>(next_r),
                                   static_cast<std::uint16_t>(next_port + vc)};
          in_flight.push(
              {static_cast<std::uint32_t>(cycle + cfg_.router_latency + 1),
               next_payload});
          if (++next_payload == payload.size()) next_payload = 0;
          ++link_flits[r * kNumPorts + out];
          ++stats.flit_hops;
          pop(s, out);
        }
      }
    }
  }

  phase_span.end();

  // Conservation invariants (checked builds): every flit the packetizer
  // injected must have drained — nothing left at a source, in a router
  // buffer, or on a link — credits must be fully returned, every packet
  // delivered, and the per-link counters must sum to exactly the hop count.
  // These are the conserved quantities the paper's communication metrics
  // (and the ls::obs heatmap) are built on.
  if constexpr (check::kEnabled) {
    const std::uint64_t undrained = in_flight.size() + buffered + awaiting;
    LS_CHECK_MSG(undrained == 0,
                 "noc flit conservation: %llu flits injected, %llu "
                 "delivered, %llu left undrained",
                 static_cast<unsigned long long>(stats.total_flits),
                 static_cast<unsigned long long>(delivered_flits),
                 static_cast<unsigned long long>(undrained));
    LS_CHECK_MSG(delivered_flits == stats.total_flits,
                 "noc flit conservation: delivered %llu != injected %llu",
                 static_cast<unsigned long long>(delivered_flits),
                 static_cast<unsigned long long>(stats.total_flits));
    std::size_t credits_out = 0;
    for (const std::uint32_t occ : occupancy) credits_out += occ;
    LS_CHECK_MSG(credits_out == 0,
                 "noc flit conservation: %zu buffer credits unreturned",
                 credits_out);
    std::uint64_t link_sum = 0;
    for (const std::uint64_t count : link_flits) link_sum += count;
    LS_CHECK_MSG(link_sum == stats.flit_hops,
                 "noc flit conservation: per-link heatmap total %llu != "
                 "flit_hops %llu",
                 static_cast<unsigned long long>(link_sum),
                 static_cast<unsigned long long>(stats.flit_hops));
    LS_CHECK_MSG(
        stats.router_traversals == stats.flit_hops + delivered_flits,
        "noc flit conservation: router traversals %llu != hops %llu + "
        "ejections %llu",
        static_cast<unsigned long long>(stats.router_traversals),
        static_cast<unsigned long long>(stats.flit_hops),
        static_cast<unsigned long long>(delivered_flits));
    for (std::size_t p = 0; p < packet_done.size(); ++p) {
      LS_CHECK_MSG(packet_done[p],
                   "noc flit conservation: packet %zu never delivered", p);
    }
  }

  for (const std::uint64_t count : link_flits) {
    if (count > 0) {
      ++stats.links_used;
      stats.max_link_flits = std::max(stats.max_link_flits, count);
    }
  }
  stats.completion_cycle = cycle;
  stats.avg_packet_latency =
      stats.packets ? static_cast<double>(total_pkt_latency) /
                          static_cast<double>(stats.packets)
                    : 0.0;
  stats.per_link_flits = std::move(link_flits);

  if (obs::trace_enabled()) {
    char args[96];
    std::snprintf(args, sizeof(args),
                  "{\"flits\":%llu,\"packets\":%llu,\"cycles\":%llu}",
                  static_cast<unsigned long long>(stats.total_flits),
                  static_cast<unsigned long long>(stats.packets),
                  static_cast<unsigned long long>(stats.completion_cycle));
    burst_span.set_args(args);
  }
  return stats;
}

}  // namespace ls::noc
