// Incremental-scorer differential suite (`ctest -L tune`). tune::Scorer
// prices a candidate from memoized per-layer pieces; it must agree bit for
// bit with sched::estimate_cycles over the fully lowered candidate after
// every move of seeded random walks — dim moves, placement swaps and
// overlap flips, each accepted or rejected — across nets, mesh sizes, chip
// counts, NoC clock dividers and NoC configurations. A second walk drives
// the scorer's swap-delta path the way the search does: swaps priced from
// the incumbent's kept loads, accepted or rejected, mixed with dim moves,
// overlap flips, repeated swaps, wider placement changes and fresh random
// starts. A whole tune() run ranked by a full-relowering reference scorer
// (defined only here) must reach the same outcome through the same
// trajectory.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/traffic.hpp"
#include "nn/model_zoo.hpp"
#include "sched/builders.hpp"
#include "sched/cost_model.hpp"
#include "sim/system.hpp"
#include "tune/tuner.hpp"
#include "util/rng.hpp"

namespace ls {
namespace {

using sched::PartitionDim;

constexpr PartitionDim kDims[] = {PartitionDim::kKernel, PartitionDim::kBatch,
                                  PartitionDim::kHeight, PartitionDim::kWidth,
                                  PartitionDim::kChannel};

struct Point {
  nn::NetSpec spec;
  sim::SystemConfig cfg;
  core::InferenceTraffic traffic;
  std::string label;
};

Point make_point(const nn::NetSpec& spec, std::size_t cores,
                 std::size_t chips, double divider,
                 const noc::NocConfig& noc) {
  Point p;
  p.spec = spec;
  p.cfg.cores = cores;
  p.cfg.chips = chips;
  p.cfg.noc_clock_divider = divider;
  p.cfg.noc = noc;
  p.traffic = core::traffic_dense(
      spec, noc::MeshTopology::for_cores(cores / chips),
      p.cfg.bytes_per_value);
  p.label = spec.name + " cores=" + std::to_string(cores) +
            " chips=" + std::to_string(chips) +
            " div=" + std::to_string(divider) +
            (noc.routing == noc::Routing::kXY ? " xy" : " yx") +
            " pc=" + std::to_string(noc.phys_channels) +
            " rl=" + std::to_string(noc.router_latency);
  return p;
}

/// estimate_cycles over the fully lowered candidate. Its total is also
/// recombined here from the per-event prices with the executor's overlap
/// rule — an overlapped burst charges only what exceeds the previous
/// layer's compute, never less than nothing — independently of the
/// arithmetic the scorer and estimate_cycles share.
std::uint64_t full_relower(const Point& p, const tune::Candidate& c) {
  const sched::Schedule s = tune::lower_candidate(
      p.spec, p.traffic, p.cfg, c, sched::Strategy::kTraditional);
  const sched::CycleEstimate est =
      sched::estimate_cycles(s, tune::cost_model_for(p.cfg));
  std::uint64_t total = 0;
  std::uint64_t prev_compute = 0;
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (s.events[i].kind == sched::EventKind::kCompute) {
      prev_compute = est.events[i].cycles;
      total += prev_compute;
      continue;
    }
    const std::uint64_t raw = est.events[i].raw_comm_cycles;
    if (!s.events[i].overlap_with_prev_compute) {
      total += raw;
    } else if (raw > prev_compute) {
      total += raw - prev_compute;
    }
  }
  EXPECT_EQ(total, est.total_cycles) << p.label;
  return est.total_cycles;
}

/// Routing x physical channels x router latency.
std::vector<noc::NocConfig> noc_variants() {
  std::vector<noc::NocConfig> out;
  for (const noc::Routing r : {noc::Routing::kXY, noc::Routing::kYX}) {
    for (const std::size_t pc : {1, 3}) {
      for (const std::size_t rl : {0, 3}) {
        noc::NocConfig noc;
        noc.routing = r;
        noc.phys_channels = pc;
        noc.router_latency = rl;
        out.push_back(noc);
      }
    }
  }
  return out;
}

std::size_t compute_layers(const nn::NetSpec& spec) {
  std::size_t n = 0;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    n += a.is_compute() ? 1 : 0;
  }
  return n;
}

/// The tuner's move filter: the lowering context's compatible().
std::vector<std::vector<PartitionDim>> legal_dims(const tune::Scorer& scorer) {
  const sched::LoweringContext& ctx = scorer.context();
  std::vector<std::vector<PartitionDim>> legal(ctx.layers());
  for (std::size_t li = 0; li < ctx.layers(); ++li) {
    for (const PartitionDim d : kDims) {
      if (ctx.compatible(li, d)) legal[li].push_back(d);
    }
  }
  return legal;
}

/// A seeded random walk of `moves` single-knob moves, each accepted or
/// rejected by a coin flip (not by score, so both paths run whatever the
/// landscape); every score is checked against a full relowering.
void random_walk(const Point& p, std::uint64_t seed, std::size_t moves) {
  tune::Scorer scorer(p.spec, p.traffic, p.cfg);
  util::Rng rng(seed);
  const auto legal = legal_dims(scorer);
  const std::size_t mesh = p.cfg.cores / p.cfg.chips;
  const auto pick = [&](std::size_t li) {
    return legal[li][rng.uniform_index(legal[li].size())];
  };

  tune::Candidate cur;
  for (std::size_t li = 0; li < legal.size(); ++li) {
    cur.layer_dims.push_back(pick(li));
  }
  for (std::size_t i = 0; i < mesh; ++i) cur.placement.push_back(i);
  if (p.cfg.chips == 1) {
    for (std::size_t i = mesh; i > 1; --i) {
      std::swap(cur.placement[i - 1], cur.placement[rng.uniform_index(i)]);
    }
  }
  cur.overlap_comm = rng.bernoulli(0.5);
  ASSERT_EQ(scorer.score(cur), full_relower(p, cur)) << p.label << " start";
  scorer.adopt(cur);

  for (std::size_t m = 0; m < moves; ++m) {
    tune::Candidate next = cur;
    // Placement is frozen on multi-chip systems, as in the tuner.
    const std::uint64_t kind = rng.uniform_index(p.cfg.chips == 1 ? 3 : 2);
    std::string what;
    if (kind == 0) {
      const std::size_t li = rng.uniform_index(legal.size());
      next.layer_dims[li] = pick(li);
      what = "dim of layer " + std::to_string(li);
    } else if (kind == 1) {
      next.overlap_comm = !next.overlap_comm;
      what = "overlap flip";
    } else {
      std::swap(next.placement[rng.uniform_index(mesh)],
                next.placement[rng.uniform_index(mesh)]);
      what = "placement swap";
    }
    ASSERT_EQ(scorer.score(next), full_relower(p, next))
        << p.label << " move " << m << " (" << what << ")";
    if (rng.bernoulli(0.5)) {
      cur = std::move(next);
      scorer.adopt(cur);
    }
  }
  EXPECT_EQ(scorer.score(cur), full_relower(p, cur)) << p.label << " end";
}

// The full sweep: every net x mesh size x chip count the scorer serves, on
// every NoC configuration and clock divider.
TEST(IncrementalScore, MatchesFullRelowerAcrossTheSweep) {
  std::uint64_t seed = 1;
  std::size_t walks = 0;
  for (const nn::NetSpec& spec :
       {nn::mlp_spec(), nn::convnet_spec(), nn::alexnet_spec()}) {
    for (const std::size_t cores : {16, 64}) {
      for (const std::size_t chips : {1, 2, 4}) {
        if (chips > compute_layers(spec)) continue;  // MLP has 3 layers
        for (const double divider : {1.0, 4.0}) {
          for (const noc::NocConfig& noc : noc_variants()) {
            random_walk(make_point(spec, cores, chips, divider, noc), seed++,
                        40);
            ++walks;
          }
        }
      }
    }
  }
  EXPECT_EQ(walks, (2u + 3u + 3u) * 2u * 2u * 8u);
}

// Scores a candidate by lowering it in full every time — what the search
// did before its scorer was memoized.
class ReferenceScorer final : public tune::Scorer {
 public:
  explicit ReferenceScorer(const Point& p)
      : tune::Scorer(p.spec, p.traffic, p.cfg), p_(p) {}
  std::uint64_t score(const tune::Candidate& c) override {
    return full_relower(p_, c);
  }
  void adopt(const tune::Candidate&) override {}

 private:
  const Point& p_;
};

/// A walk that adopts as the search does (each start, each accepted move)
/// and mixes the placement moves of the swap-delta path with the rest:
/// single swaps, accepted or rejected, the same swap scored twice, a
/// rotation of three or more positions (not one swap away, so priced in
/// full), dim moves, overlap flips, a candidate scored between a swap and
/// its adoption, and fresh random starts. Every score must equal the
/// full-relowering reference.
void swap_walk(const Point& p, std::uint64_t seed, std::size_t moves) {
  tune::Scorer scorer(p.spec, p.traffic, p.cfg);
  ReferenceScorer ref(p);
  util::Rng rng(seed);
  const auto legal = legal_dims(scorer);
  const std::size_t mesh = p.cfg.cores;
  const auto random_start = [&] {
    tune::Candidate c;
    for (std::size_t li = 0; li < legal.size(); ++li) {
      c.layer_dims.push_back(legal[li][rng.uniform_index(legal[li].size())]);
    }
    for (std::size_t i = 0; i < mesh; ++i) c.placement.push_back(i);
    for (std::size_t i = mesh; i > 1; --i) {
      std::swap(c.placement[i - 1], c.placement[rng.uniform_index(i)]);
    }
    c.overlap_comm = rng.bernoulli(0.5);
    return c;
  };

  tune::Candidate cur = random_start();
  ASSERT_EQ(scorer.score(cur), ref.score(cur)) << p.label << " start";
  scorer.adopt(cur);
  std::size_t swaps = 0;
  for (std::size_t m = 0; m < moves; ++m) {
    tune::Candidate next = cur;
    std::string what;
    const std::uint64_t kind = rng.uniform_index(8);
    if (kind < 3) {
      std::swap(next.placement[rng.uniform_index(mesh)],
                next.placement[rng.uniform_index(mesh)]);
      what = "swap";
      ++swaps;
    } else if (kind == 3) {
      std::swap(next.placement[rng.uniform_index(mesh)],
                next.placement[rng.uniform_index(mesh)]);
      ASSERT_EQ(scorer.score(next), ref.score(next))
          << p.label << " move " << m << " (repeated swap, first)";
      what = "repeated swap";
    } else if (kind == 4) {
      // Rotate k >= 3 distinct positions: never a single transposition.
      const std::size_t k = 3 + rng.uniform_index(3);
      std::vector<std::size_t> pos;
      while (pos.size() < k) {
        const std::size_t i = rng.uniform_index(mesh);
        if (std::find(pos.begin(), pos.end(), i) == pos.end()) {
          pos.push_back(i);
        }
      }
      for (std::size_t i = 0; i + 1 < k; ++i) {
        std::swap(next.placement[pos[i]], next.placement[pos[i + 1]]);
      }
      what = "rotation of " + std::to_string(k);
    } else if (kind == 5) {
      const std::size_t li = rng.uniform_index(legal.size());
      next.layer_dims[li] = legal[li][rng.uniform_index(legal[li].size())];
      what = "dim of layer " + std::to_string(li);
    } else if (kind == 6) {
      next.overlap_comm = !next.overlap_comm;
      what = "overlap flip";
    } else {
      next = random_start();
      ASSERT_EQ(scorer.score(next), ref.score(next))
          << p.label << " move " << m << " (random start)";
      cur = std::move(next);
      scorer.adopt(cur);
      continue;
    }
    ASSERT_EQ(scorer.score(next), ref.score(next))
        << p.label << " move " << m << " (" << what << ")";
    if (rng.uniform_index(8) == 0) {
      // Another swap of the incumbent scored before `next` is decided.
      tune::Candidate other = cur;
      std::swap(other.placement[rng.uniform_index(mesh)],
                other.placement[rng.uniform_index(mesh)]);
      ASSERT_EQ(scorer.score(other), ref.score(other))
          << p.label << " move " << m << " (interleaved swap)";
    }
    if (rng.bernoulli(0.5)) {
      cur = std::move(next);
      scorer.adopt(cur);
    }
  }
  EXPECT_EQ(scorer.score(cur), ref.score(cur)) << p.label << " end";
  EXPECT_GT(swaps, moves / 8) << p.label;
}

TEST(IncrementalScore, SwapDeltaWalkMatchesReference) {
  noc::NocConfig yx;
  yx.routing = noc::Routing::kYX;
  yx.phys_channels = 3;
  yx.router_latency = 3;
  const std::vector<Point> points = {
      make_point(nn::alexnet_spec(), 64, 1, 1.0, noc::NocConfig{}),
      make_point(nn::alexnet_spec(), 16, 1, 4.0, yx),
      make_point(nn::convnet_spec(), 64, 1, 4.0, yx),
      make_point(nn::convnet_spec(), 16, 1, 1.0, noc::NocConfig{}),
      make_point(nn::mlp_spec(), 16, 1, 1.0, yx),
  };
  std::uint64_t seed = 101;
  for (const Point& p : points) swap_walk(p, seed++, 120);
}

TEST(IncrementalScore, TuneMatchesReferenceOnAlexNet64) {
  const Point p =
      make_point(nn::alexnet_spec(), 64, 1, 1.0, noc::NocConfig{});
  tune::TunerConfig tcfg;
  tcfg.budget = 2000;
  tune::TuneTelemetry fast_t, ref_t;
  const tune::TuneOutcome fast = tune::tune(
      p.spec, p.traffic, p.cfg, tcfg, sched::Strategy::kTraditional, &fast_t);
  const tune::TuneOutcome ref = tune::tune(
      p.spec, p.traffic, p.cfg, tcfg, sched::Strategy::kTraditional, &ref_t,
      std::make_unique<ReferenceScorer>(p));
  EXPECT_TRUE(fast == ref);
  EXPECT_TRUE(fast_t == ref_t);
  EXPECT_EQ(fast.evals, tcfg.budget);
}

TEST(IncrementalScore, TuneMatchesFullRelowerReference) {
  noc::NocConfig yx;
  yx.routing = noc::Routing::kYX;
  yx.phys_channels = 3;
  const std::vector<Point> points = {
      make_point(nn::convnet_spec(), 16, 1, 1.0, noc::NocConfig{}),
      make_point(nn::alexnet_spec(), 16, 1, 4.0, yx),
      make_point(nn::convnet_spec(), 64, 4, 4.0, noc::NocConfig{}),
      make_point(nn::mlp_spec(), 32, 2, 1.0, yx),
  };
  for (const Point& p : points) {
    tune::TunerConfig tcfg;
    tcfg.budget = 240;
    tcfg.restarts = 3;
    tcfg.seed = 23;
    tune::TuneTelemetry fast_t, ref_t;
    const tune::TuneOutcome fast =
        tune::tune(p.spec, p.traffic, p.cfg, tcfg,
                   sched::Strategy::kTraditional, &fast_t);
    const tune::TuneOutcome ref = tune::tune(
        p.spec, p.traffic, p.cfg, tcfg, sched::Strategy::kTraditional,
        &ref_t, std::make_unique<ReferenceScorer>(p));
    EXPECT_TRUE(fast == ref) << p.label;
    EXPECT_TRUE(fast_t == ref_t) << p.label;
    EXPECT_EQ(fast.evals, tcfg.budget) << p.label;
  }
}

}  // namespace
}  // namespace ls
