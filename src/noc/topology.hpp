#pragma once
// 2D mesh topology: core coordinates and hop distances.
//
// The paper's SS_Mask technique keys the group-Lasso strength of weight
// block (p, c) to the Manhattan hop distance between cores p and c under
// dimension-ordered routing (Fig. 6(a)), so the hop distance defined here
// is shared by the NoC simulator, the traffic/energy models, and the
// trainer's strength masks.
//
// A multi-chip package (DESIGN.md §4k) is `chips` copies of one such mesh
// joined by InterChipLinkClass links; it has no class of its own. Global
// core ids are chip-major (sched::Schedule::chips), sim::cores_per_chip
// tiles a SystemConfig into chips, and sched::resource_of names the gang,
// NoC or boundary link an event occupies.

#include <cstddef>
#include <stdexcept>

namespace ls::noc {

struct Coord {
  std::size_t x = 0;  ///< column
  std::size_t y = 0;  ///< row
  friend bool operator==(const Coord&, const Coord&) = default;
};

class MeshTopology {
 public:
  MeshTopology(std::size_t cols, std::size_t rows);

  /// Near-square mesh for the given core count (16 -> 4x4, 8 -> 4x2,
  /// 32 -> 8x4). Throws std::invalid_argument when the count is zero or
  /// when its most-square factorization degenerates to a 1xN chain of 4+
  /// cores (prime counts >= 5): a chain is not a mesh, and every model
  /// downstream (DOR routing, bisection cut, SS_Mask distances) would
  /// silently mis-report on one. Counts of 1-3 cores stay legal — there
  /// is no non-degenerate alternative at those sizes.
  static MeshTopology for_cores(std::size_t cores);

  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }
  std::size_t num_cores() const { return cols_ * rows_; }

  Coord coord(std::size_t core) const;
  std::size_t core_at(Coord c) const;

  /// Manhattan hop distance (the DOR path length).
  std::size_t hops(std::size_t a, std::size_t b) const;

  /// Mean hop distance over all ordered pairs (a != b).
  double mean_hops() const;

  /// Network diameter (max hop distance).
  std::size_t diameter() const;

 private:
  std::size_t cols_;
  std::size_t rows_;
};

/// Width/latency class of the serial links joining adjacent chips in a
/// package. Far slower than an on-chip mesh hop: a SerDes crossing pays a
/// fixed latency and a per-byte serialization cost instead of riding the
/// 512-bit flit fabric.
struct InterChipLinkClass {
  double bytes_per_cycle = 16.0;     ///< serialized link bandwidth
  std::size_t latency_cycles = 50;   ///< fixed crossing latency (SerDes+pkg)
  double energy_pj_per_byte = 1.0;   ///< off-die signaling energy

  friend bool operator==(const InterChipLinkClass&,
                         const InterChipLinkClass&) = default;
};

}  // namespace ls::noc
