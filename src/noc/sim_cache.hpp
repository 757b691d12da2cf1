#pragma once
// Memoizing cache in front of MeshNocSimulator::run.
//
// Core-count sweeps (E5/E7) and the hybrid/ablation benches re-simulate
// byte-identical layer-transition bursts many times: the baseline net's
// traffic is simulated once per variant it is compared against, and
// repeated CmpSystem runs over the same trained net repeat every burst.
// A burst's NocStats depend only on (mesh shape, NocConfig, max_cycles,
// message sequence), and MeshNocSimulator::run is a pure function of
// those, so the result can be memoized process-wide.
//
// Key notes (see DESIGN.md "Performance architecture"):
//  * Keys compare the *ordered* message sequence, not just the multiset —
//    packet ids, VC assignment, and injection order follow message order,
//    so two orderings of the same multiset can drain differently. Hashing
//    uses a sorted canonical form so equal multisets share a bucket, but
//    equality is exact; a hit therefore always returns the byte-identical
//    stats the simulator itself would produce. That makes the cache
//    correctness-neutral by construction.
//  * Bypass the cache when measuring *simulator* wall-time (bench_noc_micro
//    calls MeshNocSimulator::run directly, which never consults it), when
//    sweeping unbounded distinct bursts where the memo map would only grow
//    (clear() between sweep points), or via LS_NOC_CACHE=0 / set_enabled.
//
// Thread-safe: CmpSystem::execute dispatches a batch's bursts onto the
// shared pool and all of them may consult the cache concurrently. Misses
// simulate outside the lock. execute deduplicates a batch's bursts before
// dispatch, so two simulations of one key can race only across concurrent
// execute calls; the duplicate insert is then harmless because equal keys
// always map to equal stats.

#include <cstdint>
#include <vector>

#include "noc/simulator.hpp"

namespace ls::noc {

class NocRunCache {
 public:
  /// Process-wide cache. Starts enabled unless LS_NOC_CACHE=0.
  static NocRunCache& instance();

  /// Memoized equivalent of `sim.run(messages, max_cycles)`.
  ///
  /// `stream_epoch` partitions the memo space: entries recorded under one
  /// epoch are invisible to every other. Epoch 0 is the shared single-pass
  /// space every plain run_inference uses. The streaming engine
  /// (ls::sim::CmpSystem::run_stream) keys its bursts by the caller-chosen
  /// epoch so a stream-context-dependent refinement of burst stats (e.g.
  /// charging residual-drain contention between overlapped requests) can
  /// never be served a single-pass memo, and vice versa; today the stats
  /// are context-independent, so epoch 0 deliberately shares entries with
  /// the single-pass space.
  NocStats run(const MeshNocSimulator& sim,
               const std::vector<Message>& messages,
               std::uint64_t max_cycles = 200'000'000ull,
               std::uint64_t stream_epoch = 0);

  void set_enabled(bool enabled);
  bool enabled() const;

  /// Drops all memoized bursts (and resets hit/miss counters).
  void clear();

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;

  NocRunCache(const NocRunCache&) = delete;
  NocRunCache& operator=(const NocRunCache&) = delete;

 private:
  NocRunCache();
  ~NocRunCache();
  struct Impl;
  Impl* impl_;
};

}  // namespace ls::noc
