#pragma once
// Best-schedule cache store for the autotuner (DESIGN.md §4g).
//
// A tuned schedule is worth persisting: the search costs seconds, the
// answer is a few dozen bytes, and it is valid for exactly one
// (net, cores, chips, strategy, NoC configuration) point — that tuple is
// the cache key. `ls_experiment tune` writes entries; `ls_experiment infer` /
// `stream` look their configuration up and transparently execute the tuned
// schedule on a hit, falling back bit-exactly to the untuned kernel-wise
// path on a miss.
//
// The store is one JSON document. Serialization is canonical — entries in
// sorted key order, fixed field order, integer cycle counts — so saving
// the same logical contents always produces byte-identical files (the
// tuner determinism test asserts this end-to-end: same seed + budget ->
// same bytes).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "noc/simulator.hpp"
#include "tune/tuner.hpp"

namespace ls::tune {

/// The configuration point a tuned schedule is valid for. Every field
/// participates in the canonical key string — a tuned placement for one
/// NoC configuration must never be served for another.
struct CacheKey {
  std::string net;
  std::size_t cores = 0;  ///< total cores across all chips
  sched::Strategy strategy = sched::Strategy::kTraditional;
  noc::NocConfig noc{};
  double noc_clock_divider = 1.0;
  std::size_t chips = 1;  ///< package chip count (1 = flat machine)
};

/// Canonical key string, e.g.
/// "alexnet|cores=64|traditional|noc=fb64,mp20,vc3,vd4,rl3,pc2,xy|div=1|chips=1".
/// The trailing chips part is why the on-disk format is version 2: a
/// version-1 store (no chips dimension in its keys) must be rejected
/// loudly, not silently served for the wrong package shape.
std::string cache_key_string(const CacheKey& key);

/// Inverse of cache_key_string: parses a canonical key string back into
/// its configuration point. Returns false on any malformed or
/// non-canonical input (validated by round-tripping through
/// cache_key_string). `ls_experiment verify` uses this to rebuild the
/// system a cached schedule claims to target.
bool parse_cache_key(const std::string& key_string, CacheKey* out);

struct CacheEntry {
  Candidate candidate;
  std::uint64_t est_cycles = 0;       ///< analytic score of the winner
  std::uint64_t sim_cycles = 0;       ///< flit-level validation
  std::uint64_t baseline_sim_cycles = 0;
  std::uint64_t seed = 0;             ///< search provenance
  std::uint64_t budget = 0;

  friend bool operator==(const CacheEntry&, const CacheEntry&) = default;
};

class ScheduleCache {
 public:
  /// Nullptr when absent.
  const CacheEntry* find(const CacheKey& key) const;
  void put(const CacheKey& key, CacheEntry entry);
  std::size_t size() const { return entries_.size(); }

  /// Every entry, keyed by canonical key string in sorted order (the
  /// audit surface of `ls_experiment verify`).
  const std::map<std::string, CacheEntry>& entries() const {
    return entries_;
  }

  /// Canonical document (see file comment).
  std::string to_json() const;
  /// Replaces the contents. False (with *error set when non-null) on
  /// malformed JSON, unknown version, or invalid entry fields (missing,
  /// wrongly typed, or an unknown dim); an entry error names the entry
  /// ("entry '<key>': ..."). Leaves the contents unchanged on failure.
  bool from_json(std::string_view text, std::string* error = nullptr);

  /// Loads `path`; a missing file yields an empty cache and returns true
  /// (an unpopulated store is the normal cold-start state). Parse errors
  /// return false, with the path appended to *error.
  bool load_file(const std::string& path, std::string* error = nullptr);
  bool save_file(const std::string& path) const;

 private:
  std::map<std::string, CacheEntry> entries_;  ///< canonical key -> entry
};

}  // namespace ls::tune
