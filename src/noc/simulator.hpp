#pragma once
// Flit-level 2D-mesh NoC simulator (BookSim2 substitute; see DESIGN.md).
//
// Models the configuration of the paper's TABLE II: 512-bit flits, 20-flit
// packets, 3-stage routers, dimension-ordered (XY) routing, virtual
// channels with credit-based flow control, and 2 physical channels per
// link direction. The layer-transition synchronization traffic of a
// partitioned inference is injected as a burst of messages and simulated
// until delivery; the completion cycle is the "computation-blocking
// communication" time the paper's speedup metric is built on. The drain
// loop's shortcuts are exact (DESIGN.md §4b): route tables, per-output
// request masks kept up to date as slots fill and pop, grants that skip
// VCs without credit, ring-buffer VCs, lazy packetization from the
// sources with messages left, idle skipping, and an in-tree in-flight
// heap that pops flits landing in the same cycle in the order libstdc++'s
// std::priority_queue does, so every standard library gives the same
// cycles. tests/noc/simulator_reference_test.cpp checks them against the
// straightforward loop and pins that order with hard-coded results.

#include <cstdint>
#include <vector>

#include "noc/topology.hpp"

namespace ls::noc {

/// Dimension-ordered routing variant: XY routes the X dimension first
/// (the paper's configuration), YX the Y dimension. Both are minimal and
/// deadlock-free on a mesh.
enum class Routing { kXY, kYX };

/// `vcs` is at most 8, so a router's 5*vcs input slots fit the simulator's
/// 64-bit per-output request masks. `router_latency` is under 2^30 cycles:
/// the simulator keeps in-flight arrival cycles as 32-bit wrapped values.
struct NocConfig {
  std::size_t flit_bytes = 64;       ///< 512-bit flit (TABLE II)
  std::size_t max_packet_flits = 20; ///< packet size cap (TABLE II)
  std::size_t vcs = 3;               ///< virtual channels (TABLE II)
  std::size_t vc_depth = 4;          ///< buffer slots per VC
  std::size_t router_latency = 3;    ///< router pipeline stages (TABLE II)
  std::size_t phys_channels = 2;     ///< parallel links per direction
  Routing routing = Routing::kXY;    ///< dimensional-ordered (TABLE II)

  friend bool operator==(const NocConfig&, const NocConfig&) = default;
};

/// One unicast transfer of `bytes` payload from core src to core dst,
/// injected at `inject_cycle`.
struct Message {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::size_t bytes = 0;
  std::uint64_t inject_cycle = 0;

  friend bool operator==(const Message&, const Message&) = default;
};

struct NocStats {
  std::uint64_t completion_cycle = 0;  ///< cycle the last flit ejects
  std::uint64_t total_flits = 0;
  std::uint64_t flit_hops = 0;            ///< link traversals
  std::uint64_t router_traversals = 0;    ///< router crossings (hops + 1 each)
  std::uint64_t packets = 0;
  double avg_packet_latency = 0.0;
  std::uint64_t max_packet_latency = 0;
  /// Flits carried by the busiest inter-router link — the congestion
  /// hotspot the layer-transition burst creates.
  std::uint64_t max_link_flits = 0;
  /// Links that carried at least one flit.
  std::size_t links_used = 0;
  /// Flits per directed link: 5 entries per router in port order
  /// [local, north, south, west, east] (local stays 0 — ejection is not a
  /// mesh link). Feeds the ls::obs mesh link heatmap.
  std::vector<std::uint64_t> per_link_flits;

  friend bool operator==(const NocStats&, const NocStats&) = default;
};

namespace testing {
/// Checked-build fault injection: arms a one-shot fault so the *next*
/// MeshNocSimulator::run duplicates one packetized flit, breaking the
/// injected == drained conservation invariant. Exists solely so the
/// tests/check death suite can prove the conservation LS_CHECKs fire; a
/// no-op in unchecked builds (the run stays unperturbed).
void corrupt_next_run();
}  // namespace testing

class MeshNocSimulator {
 public:
  MeshNocSimulator(MeshTopology topo, NocConfig cfg);

  /// Simulates the message set to completion. Throws std::runtime_error
  /// ("NoC simulation exceeded max_cycles ...", listing delivered/in-flight/
  /// pending flits and up to 8 occupied buffers) if the network fails to
  /// drain within `max_cycles` — XY routing with credits cannot deadlock,
  /// so this flags a configuration/logic error. Throws std::invalid_argument
  /// for meshes over 65536 cores, bursts of 2^32+ packets or 2^32+ buffer
  /// places in all (flit destinations are 16-bit, packet ids and in-flight
  /// ring indices 32-bit).
  NocStats run(const std::vector<Message>& messages,
               std::uint64_t max_cycles = 200'000'000ull) const;

  /// Closed-form zero-load check value: serialization + per-hop pipeline
  /// latency of a single message, ignoring contention. Used by tests.
  std::uint64_t zero_load_latency(const Message& m) const;
  /// The same for a message of `flits` flits over `hops` mesh hops (the
  /// analytic cost model's per-message latency term).
  std::uint64_t zero_load_latency(std::size_t hops, std::size_t flits) const;

  const MeshTopology& topology() const { return topo_; }
  const NocConfig& config() const { return cfg_; }

  /// Number of flits needed for `bytes` of payload.
  std::size_t flits_for_bytes(std::size_t bytes) const;

 private:
  MeshTopology topo_;
  NocConfig cfg_;
};

}  // namespace ls::noc
