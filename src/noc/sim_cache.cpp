#include "noc/sim_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace ls::noc {

namespace {

struct BurstKey {
  std::size_t cols = 0;
  std::size_t rows = 0;
  NocConfig cfg{};
  std::uint64_t max_cycles = 0;
  std::uint64_t stream_epoch = 0;  ///< memo-space partition (0 = single-pass)
  std::vector<Message> messages;   ///< in injection order

  friend bool operator==(const BurstKey&, const BurstKey&) = default;
};

std::size_t hash_mix(std::size_t seed, std::size_t v) {
  // splitmix-style combiner
  v += 0x9e3779b97f4a7c15ull + seed;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
  return v ^ (v >> 31);
}

struct BurstKeyHash {
  std::size_t operator()(const BurstKey& k) const {
    std::size_t h = hash_mix(0, k.cols);
    h = hash_mix(h, k.rows);
    h = hash_mix(h, k.cfg.flit_bytes);
    h = hash_mix(h, k.cfg.max_packet_flits);
    h = hash_mix(h, k.cfg.vcs);
    h = hash_mix(h, k.cfg.vc_depth);
    h = hash_mix(h, k.cfg.router_latency);
    h = hash_mix(h, k.cfg.phys_channels);
    h = hash_mix(h, static_cast<std::size_t>(k.cfg.routing));
    h = hash_mix(h, static_cast<std::size_t>(k.max_cycles));
    h = hash_mix(h, static_cast<std::size_t>(k.stream_epoch));
    // Hash a sorted canonical form so equal multisets collide into the
    // same bucket regardless of ordering; equality stays exact.
    std::vector<Message> sorted = k.messages;
    std::sort(sorted.begin(), sorted.end(),
              [](const Message& a, const Message& b) {
                return std::tie(a.inject_cycle, a.src, a.dst, a.bytes) <
                       std::tie(b.inject_cycle, b.src, b.dst, b.bytes);
              });
    for (const Message& m : sorted) {
      h = hash_mix(h, m.src);
      h = hash_mix(h, m.dst);
      h = hash_mix(h, m.bytes);
      h = hash_mix(h, static_cast<std::size_t>(m.inject_cycle));
    }
    return h;
  }
};

bool enabled_from_env() {
  if (const char* env = std::getenv("LS_NOC_CACHE")) {
    return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0);
  }
  return true;
}

}  // namespace

struct NocRunCache::Impl {
  mutable std::mutex mu;
  std::unordered_map<BurstKey, NocStats, BurstKeyHash> map;
  std::atomic<bool> enabled{enabled_from_env()};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

NocRunCache::NocRunCache() : impl_(new Impl) {}
NocRunCache::~NocRunCache() { delete impl_; }

NocRunCache& NocRunCache::instance() {
  static NocRunCache cache;
  return cache;
}

NocStats NocRunCache::run(const MeshNocSimulator& sim,
                          const std::vector<Message>& messages,
                          std::uint64_t max_cycles,
                          std::uint64_t stream_epoch) {
  if (!impl_->enabled.load(std::memory_order_relaxed)) {
    return sim.run(messages, max_cycles);
  }
  BurstKey key;
  key.cols = sim.topology().cols();
  key.rows = sim.topology().rows();
  key.cfg = sim.config();
  key.max_cycles = max_cycles;
  key.stream_epoch = stream_epoch;
  key.messages = messages;
  static obs::Counter& hit_metric =
      obs::Registry::instance().counter("noc.cache.hits");
  static obs::Counter& miss_metric =
      obs::Registry::instance().counter("noc.cache.misses");
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    const auto it = impl_->map.find(key);
    if (it != impl_->map.end()) {
      impl_->hits.fetch_add(1, std::memory_order_relaxed);
      hit_metric.inc();
      return it->second;
    }
  }
  impl_->misses.fetch_add(1, std::memory_order_relaxed);
  miss_metric.inc();
  // Simulate outside the lock: bursts are the expensive part and distinct
  // bursts can run concurrently. A racing duplicate (concurrent execute
  // calls) computes the same stats, so emplace-after is harmless.
  const NocStats stats = sim.run(messages, max_cycles);
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->map.emplace(std::move(key), stats);
  }
  return stats;
}

void NocRunCache::set_enabled(bool enabled) {
  impl_->enabled.store(enabled, std::memory_order_relaxed);
}

bool NocRunCache::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void NocRunCache::clear() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->map.clear();
  impl_->hits.store(0, std::memory_order_relaxed);
  impl_->misses.store(0, std::memory_order_relaxed);
}

std::size_t NocRunCache::size() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->map.size();
}

std::uint64_t NocRunCache::hits() const {
  return impl_->hits.load(std::memory_order_relaxed);
}

std::uint64_t NocRunCache::misses() const {
  return impl_->misses.load(std::memory_order_relaxed);
}

}  // namespace ls::noc
