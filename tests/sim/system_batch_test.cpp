// CmpSystem::execute over a batch is the one-at-a-time executor with the
// bursts pooled: every InferenceResult must equal the cache-off execution
// of its schedule alone, at any pool size and with the burst cache on or
// off; the whole batch is verified before a single flit is simulated; and
// a burst that occurs more than once in a batch is simulated once.

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/sim_cache.hpp"
#include "sched/verify.hpp"
#include "sim/system.hpp"
#include "tune/tuner.hpp"
#include "util/parallel.hpp"

namespace ls::sim {
namespace {

struct BatchPoint {
  nn::NetSpec spec;
  SystemConfig cfg;
  core::InferenceTraffic traffic;
  std::vector<sched::Schedule> schedules;
};

// The untuned schedule, the same schedule under the other overlap policy
// (every burst shared with the first), the tuner's winners from two seeds,
// and the untuned schedule again.
BatchPoint make_point(const nn::NetSpec& spec, std::size_t cores,
                      std::size_t chips) {
  BatchPoint p;
  p.spec = spec;
  p.cfg.cores = cores;
  p.cfg.chips = chips;
  const CmpSystem system(p.cfg);
  p.traffic =
      core::traffic_dense(spec, system.topology(), p.cfg.bytes_per_value);
  p.schedules.push_back(system.build_schedule(spec, p.traffic));
  tune::Candidate flipped;
  flipped.overlap_comm = !p.cfg.overlap_comm;
  p.schedules.push_back(tune::lower_candidate(
      spec, p.traffic, p.cfg, flipped, sched::Strategy::kTraditional));
  for (const std::uint64_t seed : {1u, 2u}) {
    tune::TunerConfig tcfg;
    tcfg.budget = 120;
    tcfg.restarts = 3;
    tcfg.seed = seed;
    const tune::TuneOutcome out = tune::tune(spec, p.traffic, p.cfg, tcfg);
    p.schedules.push_back(tune::lower_candidate(
        spec, p.traffic, p.cfg, out.best, sched::Strategy::kTraditional));
  }
  p.schedules.push_back(p.schedules.front());
  return p;
}

// On-chip burst events across the batch, and how many distinct message
// sequences (in chip-local coordinates) they hold.
struct BurstCount {
  std::size_t events = 0;
  std::size_t distinct = 0;
};

BurstCount count_bursts(const BatchPoint& p) {
  const std::size_t per_chip = p.cfg.cores / p.cfg.chips;
  BurstCount n;
  std::vector<std::vector<noc::Message>> seen;
  for (const sched::Schedule& s : p.schedules) {
    for (const sched::Event& e : s.events) {
      if (e.kind != sched::EventKind::kComm || e.inter_chip) continue;
      ++n.events;
      std::vector<noc::Message> local = e.messages;
      if (p.cfg.chips > 1) {
        for (noc::Message& m : local) {
          m.src -= e.chip * per_chip;
          m.dst -= e.chip * per_chip;
          m.inject_cycle = 0;
        }
      }
      bool dup = false;
      for (const auto& other : seen) dup = dup || other == local;
      if (!dup) seen.push_back(std::move(local));
    }
  }
  n.distinct = seen.size();
  return n;
}

void expect_batch_matches_one_at_a_time(const BatchPoint& p) {
  SystemConfig off = p.cfg;
  off.noc_result_cache = false;
  const CmpSystem reference(off);
  std::vector<InferenceResult> want;
  for (const sched::Schedule& s : p.schedules) {
    want.push_back(reference.execute(s));
  }
  const BurstCount bursts = count_bursts(p);
  // The batch shares bursts (the overlap twin and the repeat at least).
  ASSERT_LT(bursts.distinct, bursts.events);

  noc::NocRunCache& cache = noc::NocRunCache::instance();
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool::set_num_threads(threads);
    for (const bool cached : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " cache=" + (cached ? "on" : "off"));
      cache.clear();
      SystemConfig cfg = p.cfg;
      cfg.noc_result_cache = cached;
      const std::vector<InferenceResult> got =
          CmpSystem(cfg).execute(p.schedules);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "schedule " << i;
      }
      // A cold cache sees each distinct burst exactly once: duplicates
      // within the batch never reach it, so none can race to a second miss.
      EXPECT_EQ(cache.misses(), cached ? bursts.distinct : 0u);
      EXPECT_EQ(cache.hits(), 0u);
    }
  }
  util::ThreadPool::set_num_threads(0);
}

TEST(SystemBatch, ConvNetMatchesOneAtATime) {
  for (const std::size_t chips : {1u, 2u, 4u}) {
    SCOPED_TRACE("chips=" + std::to_string(chips));
    expect_batch_matches_one_at_a_time(
        make_point(nn::convnet_spec(), 16, chips));
  }
}

TEST(SystemBatch, AlexNetMatchesOneAtATime) {
  for (const std::size_t chips : {1u, 2u, 4u}) {
    SCOPED_TRACE("chips=" + std::to_string(chips));
    expect_batch_matches_one_at_a_time(
        make_point(nn::alexnet_spec(), 16, chips));
  }
}

TEST(SystemBatch, FailingScheduleThrowsBeforeAnyFlit) {
  BatchPoint p = make_point(nn::convnet_spec(), 16, 1);
  std::vector<sched::Schedule> batch = {p.schedules[0], p.schedules[1],
                                        p.schedules[0]};
  batch[2].net_name = "corrupted-copy";
  sched::testing::corrupt(&batch[2],
                          sched::testing::Corruption::kByteTotalMismatch);
  const CmpSystem system(p.cfg);
  noc::NocRunCache& cache = noc::NocRunCache::instance();
  cache.clear();
  try {
    system.execute(batch);
    FAIL() << "a batch holding a corrupted schedule executed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "schedule 'corrupted-copy' (batch item 2 of 3)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.size(), 0u);

  // A schedule for another machine is rejected the same way.
  SystemConfig other = p.cfg;
  other.cores = 64;
  const CmpSystem wrong(other);
  batch[2] = wrong.build_schedule(
      p.spec, core::traffic_dense(p.spec, wrong.topology(),
                                  other.bytes_per_value));
  cache.clear();
  EXPECT_THROW(system.execute(batch), std::invalid_argument);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(SystemBatch, EmptyBatchReturnsEmptyResult) {
  SystemConfig cfg;
  cfg.cores = 16;
  noc::NocRunCache& cache = noc::NocRunCache::instance();
  cache.clear();
  EXPECT_TRUE(CmpSystem(cfg).execute(std::vector<sched::Schedule>{}).empty());
  EXPECT_EQ(cache.misses(), 0u);
}

}  // namespace
}  // namespace ls::sim
