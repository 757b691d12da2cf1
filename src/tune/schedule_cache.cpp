#include "tune/schedule_cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/json_in.hpp"

namespace ls::tune {

std::string cache_key_string(const CacheKey& key) {
  char buf[176];
  // %g keeps the divider canonical (1, 1.5, 2 ...) without trailing zeros.
  std::snprintf(buf, sizeof(buf),
                "|cores=%zu|%s|noc=fb%zu,mp%zu,vc%zu,vd%zu,rl%zu,pc%zu,%s"
                "|div=%g|chips=%zu",
                key.cores, sched::to_string(key.strategy),
                key.noc.flit_bytes, key.noc.max_packet_flits, key.noc.vcs,
                key.noc.vc_depth, key.noc.router_latency,
                key.noc.phys_channels,
                key.noc.routing == noc::Routing::kXY ? "xy" : "yx",
                key.noc_clock_divider, key.chips);
  return key.net + buf;
}

bool parse_cache_key(const std::string& key_string, CacheKey* out) {
  // net|cores=N|strategy|noc=fbA,mpB,vcC,vdD,rlE,pcF,ROUTE|div=G|chips=H
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t pos = key_string.find('|'); pos != std::string::npos;
       pos = key_string.find('|', start)) {
    parts.push_back(key_string.substr(start, pos - start));
    start = pos + 1;
  }
  parts.push_back(key_string.substr(start));
  if (parts.size() != 6 || parts[0].empty()) return false;

  CacheKey key;
  key.net = parts[0];
  if (std::sscanf(parts[1].c_str(), "cores=%zu", &key.cores) != 1) {
    return false;
  }
  bool strategy_ok = false;
  for (const sched::Strategy s :
       {sched::Strategy::kTraditional, sched::Strategy::kStructureLevel,
        sched::Strategy::kSparsified, sched::Strategy::kHybrid}) {
    if (parts[2] == sched::to_string(s)) {
      key.strategy = s;
      strategy_ok = true;
    }
  }
  if (!strategy_ok) return false;
  char route[3] = {};
  if (std::sscanf(parts[3].c_str(),
                  "noc=fb%zu,mp%zu,vc%zu,vd%zu,rl%zu,pc%zu,%2s",
                  &key.noc.flit_bytes, &key.noc.max_packet_flits,
                  &key.noc.vcs, &key.noc.vc_depth, &key.noc.router_latency,
                  &key.noc.phys_channels, route) != 7) {
    return false;
  }
  if (route == std::string_view("xy")) {
    key.noc.routing = noc::Routing::kXY;
  } else if (route == std::string_view("yx")) {
    key.noc.routing = noc::Routing::kYX;
  } else {
    return false;
  }
  if (std::sscanf(parts[4].c_str(), "div=%lf", &key.noc_clock_divider) != 1) {
    return false;
  }
  if (std::sscanf(parts[5].c_str(), "chips=%zu", &key.chips) != 1) {
    return false;
  }
  // Canonical-form check: anything that does not round-trip byte-identically
  // (stray whitespace, non-%g divider spelling, net names containing '|')
  // is rejected rather than silently normalized.
  if (cache_key_string(key) != key_string) return false;
  *out = std::move(key);
  return true;
}

const CacheEntry* ScheduleCache::find(const CacheKey& key) const {
  const auto it = entries_.find(cache_key_string(key));
  return it == entries_.end() ? nullptr : &it->second;
}

void ScheduleCache::put(const CacheKey& key, CacheEntry entry) {
  entries_.insert_or_assign(cache_key_string(key), std::move(entry));
}

std::string ScheduleCache::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  // Version 2: keys carry the package chip count (|chips=H). Version 1
  // stores predate the multi-chip hierarchy and are rejected on load.
  w.key("version").value(std::uint64_t{2});
  w.key("entries");
  w.begin_object();
  for (const auto& [key, e] : entries_) {  // std::map: sorted, canonical
    w.key(key);
    w.begin_object();
    w.key("layer_dims");
    w.begin_array();
    for (const sched::PartitionDim d : e.candidate.layer_dims) {
      w.value(sched::to_string(d));
    }
    w.end_array();
    w.key("placement");
    w.begin_array();
    for (const std::size_t c : e.candidate.placement) {
      w.value(static_cast<std::uint64_t>(c));
    }
    w.end_array();
    w.key("overlap").value(e.candidate.overlap_comm);
    w.key("est_cycles").value(e.est_cycles);
    w.key("sim_cycles").value(e.sim_cycles);
    w.key("baseline_sim_cycles").value(e.baseline_sim_cycles);
    w.key("seed").value(e.seed);
    w.key("budget").value(e.budget);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

bool ScheduleCache::from_json(std::string_view text, std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = "schedule cache: " + what;
    return false;
  };
  util::JsonValue doc;
  std::string parse_error;
  if (!util::parse_json(text, &doc, &parse_error)) return fail(parse_error);
  // A wrongly typed field (JsonValue's accessors throw std::logic_error)
  // is a malformed store like any other, named by its entry.
  std::string where;
  std::map<std::string, CacheEntry> parsed;
  try {
    const util::JsonValue* version = doc.find("version");
    if (version == nullptr) return fail("missing version");
    if (version->as_u64() != 2) {
      return fail("format version " + std::to_string(version->as_u64()) +
                  " but this build expects 2 (keys gained a chips dimension) "
                  "— delete the stale store and retune");
    }
    const util::JsonValue* entries = doc.find("entries");
    if (entries == nullptr ||
        entries->kind() != util::JsonValue::Kind::kObject) {
      return fail("missing entries object");
    }
    for (const auto& [key, v] : entries->as_object()) {
      where = "entry '" + key + "': ";
      CacheEntry e;
      const util::JsonValue* dims = v.find("layer_dims");
      const util::JsonValue* placement = v.find("placement");
      const util::JsonValue* overlap = v.find("overlap");
      if (dims == nullptr || placement == nullptr || overlap == nullptr) {
        return fail(where + "lacks a required field");
      }
      for (const util::JsonValue& d : dims->as_array()) {
        sched::PartitionDim dim;
        if (!sched::parse_partition_dim(d.as_string(), &dim)) {
          return fail(where + "unknown dim '" + d.as_string() + "'");
        }
        e.candidate.layer_dims.push_back(dim);
      }
      for (const util::JsonValue& c : placement->as_array()) {
        e.candidate.placement.push_back(
            static_cast<std::size_t>(c.as_u64()));
      }
      e.candidate.overlap_comm = overlap->as_bool();
      const auto u64_field = [&v](const char* name, std::uint64_t* out) {
        const util::JsonValue* f = v.find(name);
        if (f != nullptr) *out = f->as_u64();
      };
      u64_field("est_cycles", &e.est_cycles);
      u64_field("sim_cycles", &e.sim_cycles);
      u64_field("baseline_sim_cycles", &e.baseline_sim_cycles);
      u64_field("seed", &e.seed);
      u64_field("budget", &e.budget);
      parsed.insert_or_assign(key, std::move(e));
    }
  } catch (const std::logic_error& e) {
    return fail(where + e.what());
  }
  entries_ = std::move(parsed);
  return true;
}

bool ScheduleCache::load_file(const std::string& path, std::string* error) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    entries_.clear();  // cold start: an absent store is an empty store
    return true;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "schedule cache: cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!from_json(buf.str(), error)) {
    if (error != nullptr) *error += " (in '" + path + "')";
    return false;
  }
  return true;
}

bool ScheduleCache::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace ls::tune
