// Autotuner suite (`ctest -L tune`): search determinism (same seed +
// budget -> identical winner and byte-identical cache files), the
// tuned-beats-baseline guarantee the bench gate reads, and the schedule
// cache store's round-trip / key-isolation contract.

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "noc/sim_cache.hpp"
#include "sim/system.hpp"
#include "tune/schedule_cache.hpp"
#include "tune/tuner.hpp"
#include "util/parallel.hpp"

namespace ls {
namespace {

struct TunePoint {
  nn::NetSpec spec;
  sim::SystemConfig cfg;
  core::InferenceTraffic traffic;
};

TunePoint convnet16() {
  TunePoint p;
  p.spec = nn::convnet_spec();
  p.cfg.cores = 16;
  p.traffic = core::traffic_dense(
      p.spec, noc::MeshTopology::for_cores(p.cfg.cores),
      p.cfg.bytes_per_value);
  return p;
}

tune::TunerConfig small_search() {
  tune::TunerConfig tcfg;
  tcfg.budget = 300;
  tcfg.restarts = 3;
  tcfg.seed = 17;
  return tcfg;
}

tune::CacheKey key_for(const TunePoint& p) {
  tune::CacheKey key;
  key.net = p.spec.name;
  key.cores = p.cfg.cores;
  key.noc = p.cfg.noc;
  key.noc_clock_divider = p.cfg.noc_clock_divider;
  return key;
}

tune::CacheEntry entry_for(const tune::TuneOutcome& out,
                           const tune::TunerConfig& tcfg) {
  tune::CacheEntry e;
  e.candidate = out.best;
  e.est_cycles = out.best_est_cycles;
  e.sim_cycles = out.best_sim_cycles;
  e.baseline_sim_cycles = out.baseline_sim_cycles;
  e.seed = tcfg.seed;
  e.budget = tcfg.budget;
  return e;
}

TEST(Tuner, DeterministicAndByteIdenticalCache) {
  const TunePoint p = convnet16();
  const tune::TunerConfig tcfg = small_search();
  const tune::TuneOutcome a = tune::tune(p.spec, p.traffic, p.cfg, tcfg);
  const tune::TuneOutcome b = tune::tune(p.spec, p.traffic, p.cfg, tcfg);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_est_cycles, b.best_est_cycles);
  EXPECT_EQ(a.best_sim_cycles, b.best_sim_cycles);
  EXPECT_EQ(a.evals, b.evals);

  // End to end: two independently produced stores serialize to the same
  // bytes — on disk too, not just in memory.
  tune::ScheduleCache cache_a, cache_b;
  cache_a.put(key_for(p), entry_for(a, tcfg));
  cache_b.put(key_for(p), entry_for(b, tcfg));
  EXPECT_EQ(cache_a.to_json(), cache_b.to_json());

  const std::string path_a = ::testing::TempDir() + "tuner_det_a.json";
  const std::string path_b = ::testing::TempDir() + "tuner_det_b.json";
  ASSERT_TRUE(cache_a.save_file(path_a));
  ASSERT_TRUE(cache_b.save_file(path_b));
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_EQ(slurp(path_a), slurp(path_b));
  EXPECT_FALSE(slurp(path_a).empty());
}

TEST(Tuner, TunedBeatsKernelWiseBaseline) {
  const TunePoint p = convnet16();
  const tune::TuneOutcome out =
      tune::tune(p.spec, p.traffic, p.cfg, small_search());
  EXPECT_GT(out.evals, 0u);
  EXPECT_GT(out.validated, 0u);
  // The baseline is validated in the finalists' batch and wins unless one
  // of them beats it, so the flit-validated winner can never lose to it —
  // and with overlap in the space it strictly wins on this config.
  EXPECT_LT(out.best_sim_cycles, out.baseline_sim_cycles);
  EXPECT_GT(out.speedup_sim(), 1.0);
}

// Ranks candidates by the negated cycle model: the search climbs towards
// the slowest schedules it can reach, so every finalist it shortlists
// validates slower than the baseline.
class SlowestFirstScorer final : public tune::Scorer {
 public:
  using tune::Scorer::Scorer;
  std::uint64_t score(const tune::Candidate& c) override {
    return std::numeric_limits<std::uint64_t>::max() - tune::Scorer::score(c);
  }
};

TEST(Tuner, BaselineWinsWhenNoFinalistValidatesFaster) {
  const TunePoint p = convnet16();
  tune::TuneTelemetry t;
  const tune::TuneOutcome out =
      tune::tune(p.spec, p.traffic, p.cfg, small_search(),
                 sched::Strategy::kTraditional, &t,
                 std::make_unique<SlowestFirstScorer>(p.spec, p.traffic,
                                                      p.cfg));
  ASSERT_GT(out.validated, 0u);
  ASSERT_EQ(t.validations.size(), out.validated);
  for (const tune::TuneValidationPoint& v : t.validations) {
    EXPECT_GT(v.sim_cycles, out.baseline_sim_cycles);
    EXPECT_FALSE(v.is_best);
  }
  EXPECT_EQ(out.best_sim_cycles, out.baseline_sim_cycles);
  EXPECT_EQ(out.best_est_cycles, out.baseline_est_cycles);
  // The winner is the baseline candidate itself: kernel-wise dims, the
  // identity placement and the system's own overlap flag.
  std::vector<std::size_t> identity(p.cfg.cores);
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  EXPECT_EQ(out.best.layer_dims,
            std::vector<sched::PartitionDim>(out.best.layer_dims.size(),
                                             sched::PartitionDim::kKernel));
  EXPECT_EQ(out.best.placement, identity);
  EXPECT_EQ(out.best.overlap_comm, p.cfg.overlap_comm);
}

TEST(Tuner, ValidatedWinnerExecutesToItsReportedCycles) {
  const TunePoint p = convnet16();
  const tune::TuneOutcome out =
      tune::tune(p.spec, p.traffic, p.cfg, small_search());
  const sim::CmpSystem system(p.cfg);
  const sched::Schedule best = tune::lower_candidate(
      p.spec, p.traffic, p.cfg, out.best, sched::Strategy::kTraditional);
  EXPECT_EQ(system.execute(best).total_cycles, out.best_sim_cycles);
}

TEST(Tuner, TelemetryAccountsForEveryEvalAndValidation) {
  const TunePoint p = convnet16();
  const tune::TunerConfig tcfg = small_search();
  tune::TuneTelemetry t;
  const tune::TuneOutcome out = tune::tune(
      p.spec, p.traffic, p.cfg, tcfg, sched::Strategy::kTraditional, &t);

  // Restart trajectories: one per executed restart, each starting at its
  // seed score and descending monotonically to its local optimum.
  ASSERT_FALSE(t.restarts.empty());
  EXPECT_LE(t.restarts.size(), tcfg.restarts);
  std::size_t moves = 0;
  for (const tune::TuneRestartTrace& trace : t.restarts) {
    EXPECT_LE(trace.final_est_cycles, trace.start_est_cycles);
    std::uint64_t cur = trace.start_est_cycles;
    for (const tune::TuneMove& m : trace.moves) {
      if (m.accepted) {
        EXPECT_LT(m.est_cycles, cur);
        cur = m.est_cycles;
      } else {
        EXPECT_GE(m.est_cycles, cur);
      }
    }
    EXPECT_EQ(cur, trace.final_est_cycles);
    moves += trace.moves.size();
  }
  // Every analytic eval is either a restart seed or a recorded move.
  EXPECT_EQ(moves, t.moves_accepted + t.moves_rejected);
  EXPECT_EQ(out.evals, moves + t.restarts.size());

  // Validation scatter: one point per flit validation, exactly one best,
  // and the best point is the outcome's winner.
  ASSERT_EQ(t.validations.size(), out.validated);
  std::size_t best_count = 0;
  for (const tune::TuneValidationPoint& v : t.validations) {
    if (v.is_best) {
      ++best_count;
      EXPECT_EQ(v.sim_cycles, out.best_sim_cycles);
      EXPECT_EQ(v.est_cycles, out.best_est_cycles);
    }
  }
  EXPECT_EQ(best_count, 1u);
}

TEST(Tuner, TelemetryIsDeterministicAndNonPerturbing) {
  const TunePoint p = convnet16();
  const tune::TunerConfig tcfg = small_search();
  tune::TuneTelemetry ta;
  tune::TuneTelemetry tb;
  const tune::TuneOutcome a = tune::tune(
      p.spec, p.traffic, p.cfg, tcfg, sched::Strategy::kTraditional, &ta);
  const tune::TuneOutcome b = tune::tune(
      p.spec, p.traffic, p.cfg, tcfg, sched::Strategy::kTraditional, &tb);
  EXPECT_EQ(ta.moves_accepted, tb.moves_accepted);
  EXPECT_EQ(ta.moves_rejected, tb.moves_rejected);
  ASSERT_EQ(ta.restarts.size(), tb.restarts.size());
  for (std::size_t r = 0; r < ta.restarts.size(); ++r) {
    EXPECT_EQ(ta.restarts[r].moves, tb.restarts[r].moves);
  }
  EXPECT_EQ(ta.validations, tb.validations);

  // Collecting telemetry must not change what the search finds.
  const tune::TuneOutcome plain = tune::tune(p.spec, p.traffic, p.cfg, tcfg);
  EXPECT_EQ(a.best, plain.best);
  EXPECT_EQ(a.best_sim_cycles, plain.best_sim_cycles);
  EXPECT_EQ(a.evals, plain.evals);
  EXPECT_EQ(b.best, plain.best);
}

// Validation prices the baseline and the finalists as one pooled batch:
// what the tuner returns must not depend on how many threads ran it. The
// burst cache is cleared before each run so both actually simulate.
TEST(Tuner, OutcomeIndependentOfPoolSize) {
  TunePoint alexnet64;
  alexnet64.spec = nn::alexnet_spec();
  alexnet64.cfg.cores = 64;
  alexnet64.traffic = core::traffic_dense(
      alexnet64.spec, noc::MeshTopology::for_cores(alexnet64.cfg.cores),
      alexnet64.cfg.bytes_per_value);
  for (const TunePoint& p : {convnet16(), alexnet64}) {
    SCOPED_TRACE(p.spec.name);
    tune::TuneOutcome out[2];
    tune::TuneTelemetry telemetry[2];
    const std::size_t threads[2] = {1, 4};
    for (std::size_t k = 0; k < 2; ++k) {
      util::ThreadPool::set_num_threads(threads[k]);
      noc::NocRunCache::instance().clear();
      out[k] = tune::tune(p.spec, p.traffic, p.cfg, small_search(),
                          sched::Strategy::kTraditional, &telemetry[k]);
    }
    util::ThreadPool::set_num_threads(0);
    EXPECT_GT(out[0].validated, 0u);
    EXPECT_EQ(out[0], out[1]);
    EXPECT_EQ(telemetry[0].validations, telemetry[1].validations);
  }
}

TEST(ScheduleCache, RoundTripPreservesEntries) {
  const TunePoint p = convnet16();
  tune::Candidate cand;
  cand.layer_dims = {sched::PartitionDim::kHeight,
                     sched::PartitionDim::kKernel,
                     sched::PartitionDim::kChannel,
                     sched::PartitionDim::kKernel,
                     sched::PartitionDim::kBatch};
  cand.placement = {5, 4, 3, 2, 1, 0, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  cand.overlap_comm = true;
  tune::CacheEntry e;
  e.candidate = cand;
  e.est_cycles = 1234;
  e.sim_cycles = 1300;
  e.baseline_sim_cycles = 2000;
  e.seed = 7;
  e.budget = 500;

  tune::ScheduleCache cache;
  cache.put(key_for(p), e);
  tune::ScheduleCache reloaded;
  std::string error;
  ASSERT_TRUE(reloaded.from_json(cache.to_json(), &error)) << error;
  const tune::CacheEntry* found = reloaded.find(key_for(p));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, e);
  // Canonical serialization is a fixed point of parse -> serialize.
  EXPECT_EQ(reloaded.to_json(), cache.to_json());
}

TEST(ScheduleCache, KeyIsolatesConfigurations) {
  const TunePoint p = convnet16();
  tune::ScheduleCache cache;
  cache.put(key_for(p), tune::CacheEntry{});

  tune::CacheKey other_cores = key_for(p);
  other_cores.cores = 64;
  EXPECT_EQ(cache.find(other_cores), nullptr);

  tune::CacheKey other_net = key_for(p);
  other_net.net = "AlexNet";
  EXPECT_EQ(cache.find(other_net), nullptr);

  tune::CacheKey other_noc = key_for(p);
  other_noc.noc.phys_channels += 1;
  EXPECT_EQ(cache.find(other_noc), nullptr);

  tune::CacheKey other_div = key_for(p);
  other_div.noc_clock_divider = 2.0;
  EXPECT_EQ(cache.find(other_div), nullptr);

  tune::CacheKey other_strategy = key_for(p);
  other_strategy.strategy = sched::Strategy::kSparsified;
  EXPECT_EQ(cache.find(other_strategy), nullptr);

  tune::CacheKey other_chips = key_for(p);
  other_chips.cores = 64;
  other_chips.chips = 4;
  EXPECT_EQ(cache.find(other_chips), nullptr);

  EXPECT_NE(cache.find(key_for(p)), nullptr);
}

TEST(ScheduleCache, KeyStringRoundTripsChipsDimension) {
  tune::CacheKey key = key_for(convnet16());
  key.cores = 64;
  key.chips = 4;
  const std::string s = tune::cache_key_string(key);
  EXPECT_NE(s.find("|chips=4"), std::string::npos) << s;
  tune::CacheKey parsed;
  ASSERT_TRUE(tune::parse_cache_key(s, &parsed)) << s;
  EXPECT_EQ(parsed.chips, 4u);
  EXPECT_EQ(parsed.cores, 64u);
  EXPECT_EQ(tune::cache_key_string(parsed), s);
  // The flat default spells chips=1 explicitly — no ambiguous legacy form.
  EXPECT_NE(tune::cache_key_string(key_for(convnet16())).find("|chips=1"),
            std::string::npos);
}

TEST(ScheduleCache, MissingFileLoadsEmpty) {
  tune::ScheduleCache cache;
  std::string error;
  EXPECT_TRUE(cache.load_file(::testing::TempDir() + "no_such_store.json",
                              &error));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ScheduleCache, MalformedStoreIsRejected) {
  tune::ScheduleCache cache;
  std::string error;
  EXPECT_FALSE(cache.from_json("{not json", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(cache.from_json("{\"version\":3,\"entries\":{}}", &error));
  EXPECT_FALSE(cache.from_json("{\"entries\":{}}", &error));
  // Wrongly typed entry fields are rejected with the entry named, not
  // thrown out of the loader.
  EXPECT_FALSE(cache.from_json(
      "{\"version\":2,\"entries\":{\"k1\":{\"layer_dims\":[],"
      "\"placement\":[],\"overlap\":1}}}",
      &error));
  EXPECT_NE(error.find("entry 'k1': "), std::string::npos) << error;
  EXPECT_FALSE(cache.from_json(
      "{\"version\":2,\"entries\":{\"k2\":{\"layer_dims\":[],"
      "\"placement\":[0,-1],\"overlap\":false}}}",
      &error));
  EXPECT_NE(error.find("entry 'k2': "), std::string::npos) << error;
  // A well-formed document still loads after failures.
  EXPECT_TRUE(cache.from_json("{\"version\":2,\"entries\":{}}", &error));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LowerCandidate, RejectsChipsThatDoNotTileCores) {
  TunePoint p = convnet16();
  p.cfg.chips = 3;
  EXPECT_THROW(tune::lower_candidate(p.spec, p.traffic, p.cfg,
                                     tune::Candidate{},
                                     sched::Strategy::kTraditional),
               std::invalid_argument);
}

TEST(ScheduleCache, StaleVersion1StoreRejectedLoudly) {
  // A pre-chips store exactly as version-1 builds wrote it: version 1 and
  // five-part keys with no chips field. It must be a loud miss — rejected
  // with a message naming the found and expected versions and telling the
  // operator to retune — never silently reinterpreted.
  const std::string v1_store =
      "{\"version\":1,\"entries\":{"
      "\"ConvNet|cores=16|traditional|noc=2,1,4,1|div=1\":{"
      "\"layer_dims\":[\"kernel\",\"kernel\",\"kernel\",\"kernel\","
      "\"kernel\"],"
      "\"placement\":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15],"
      "\"overlap\":false,\"est_cycles\":1000,\"sim_cycles\":1100,"
      "\"baseline_sim_cycles\":1200,\"seed\":1,\"budget\":100}}}";
  tune::ScheduleCache cache;
  std::string error;
  EXPECT_FALSE(cache.from_json(v1_store, &error));
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
  EXPECT_NE(error.find("expects 2"), std::string::npos) << error;
  EXPECT_NE(error.find("retune"), std::string::npos) << error;
  EXPECT_EQ(cache.size(), 0u);
  // The old five-part key itself no longer parses as canonical.
  tune::CacheKey parsed;
  EXPECT_FALSE(tune::parse_cache_key(
      "ConvNet|cores=16|traditional|noc=2,1,4,1|div=1", &parsed));
}

}  // namespace
}  // namespace ls
