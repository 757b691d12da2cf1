#include "tune/tuner.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/verify.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace ls::tune {

namespace {

constexpr sched::PartitionDim kAllDims[] = {
    sched::PartitionDim::kKernel, sched::PartitionDim::kBatch,
    sched::PartitionDim::kHeight, sched::PartitionDim::kWidth,
    sched::PartitionDim::kChannel};
constexpr std::size_t kDimCount = std::size(kAllDims);
// The scorer's memo tables index by the dim's enumerator value.
static_assert(static_cast<std::size_t>(sched::PartitionDim::kChannel) + 1 ==
              kDimCount);

/// Compute layer li's dim in `c` (kernel when c leaves the dims empty).
sched::PartitionDim dim_of(const Candidate& c, std::size_t li) {
  return c.layer_dims.empty() ? sched::PartitionDim::kKernel
                              : c.layer_dims[li];
}

/// The two positions a single transposition of `from` swaps to give `to`,
/// or nullopt when `to` is not exactly one swap away from `from`.
std::optional<std::pair<std::size_t, std::size_t>> transposition(
    const std::vector<std::size_t>& from, const std::vector<std::size_t>& to) {
  if (from.size() != to.size()) return std::nullopt;
  std::size_t diffs[2];
  std::size_t n = 0;
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from[i] == to[i]) continue;
    if (n == 2) return std::nullopt;
    diffs[n++] = i;
  }
  if (n != 2 || from[diffs[0]] != to[diffs[1]] ||
      from[diffs[1]] != to[diffs[0]]) {
    return std::nullopt;
  }
  return std::pair{diffs[0], diffs[1]};
}

std::vector<std::size_t> identity(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  return p;
}

/// Search state shared by the restarts: the scorer, the per-layer legal
/// moves, and the budget ledger.
class Search {
 public:
  Search(Scorer& scorer, const sim::SystemConfig& system,
         const TunerConfig& cfg)
      : scorer_(scorer), system_(system), cfg_(cfg), rng_(cfg.seed) {
    legal_dims_.resize(scorer.layers());
    for (std::size_t li = 0; li < scorer.layers(); ++li) {
      for (const sched::PartitionDim d : kAllDims) {
        if (scorer.context().compatible(li, d)) legal_dims_[li].push_back(d);
      }
    }
  }

  std::size_t layers() const { return legal_dims_.size(); }
  std::uint64_t evals() const { return evals_; }
  util::Rng& rng() { return rng_; }

  std::uint64_t score(const Candidate& c) {
    ++evals_;
    return scorer_.score(c);
  }
  void adopt(const Candidate& c) { scorer_.adopt(c); }

  Candidate baseline() const {
    Candidate c;
    c.layer_dims.assign(layers(), sched::PartitionDim::kKernel);
    // Placement permutes one chip's mesh (== the whole machine when
    // chips == 1); stage-pipelined lowering requires it to stay identity,
    // so multi-chip searches freeze this knob (dims + overlap only).
    c.placement = identity(system_.cores / system_.chips);
    c.overlap_comm = system_.overlap_comm;
    return c;
  }

  Candidate random_start() {
    Candidate c = baseline();
    for (std::size_t li = 0; li < layers(); ++li) {
      const auto& legal = legal_dims_[li];
      c.layer_dims[li] = legal[rng_.uniform_index(legal.size())];
    }
    if (system_.chips == 1) {
      // Fisher-Yates with the search rng — deterministic under the seed.
      for (std::size_t i = c.placement.size(); i > 1; --i) {
        std::swap(c.placement[i - 1], c.placement[rng_.uniform_index(i)]);
      }
    }
    if (cfg_.search_overlap) c.overlap_comm = rng_.bernoulli(0.5);
    return c;
  }

  /// One single-knob mutation of `c`.
  Candidate mutate(const Candidate& c) {
    Candidate m = c;
    // Move mix: dims are the high-value knob, placement swaps explore the
    // mesh mapping (single-chip only — see baseline()), the overlap flip
    // is one bit (when searchable).
    const std::size_t placement_moves = system_.chips == 1 ? 2 : 0;
    const std::uint64_t move = rng_.uniform_index(
        3 + placement_moves + (cfg_.search_overlap ? 1 : 0));
    if (move < 3) {
      const std::size_t li = rng_.uniform_index(layers());
      const auto& legal = legal_dims_[li];
      m.layer_dims[li] = legal[rng_.uniform_index(legal.size())];
    } else if (move < 3 + placement_moves) {
      const std::size_t a = rng_.uniform_index(m.placement.size());
      const std::size_t b = rng_.uniform_index(m.placement.size());
      std::swap(m.placement[a], m.placement[b]);
    } else {
      m.overlap_comm = !m.overlap_comm;
    }
    return m;
  }

 private:
  Scorer& scorer_;
  const sim::SystemConfig& system_;
  const TunerConfig& cfg_;
  util::Rng rng_;
  std::vector<std::vector<sched::PartitionDim>> legal_dims_;
  std::uint64_t evals_ = 0;
};

}  // namespace

Scorer::Scorer(const nn::NetSpec& spec,
               const core::InferenceTraffic& traffic,
               const sim::SystemConfig& system)
    : ctx_(spec, traffic, sim::cores_per_chip(system),
           system.bytes_per_value, system.chips),
      pricer_(cost_model_for(system),
              noc::MeshTopology::for_cores(sim::cores_per_chip(system))),
      compute_(ctx_.layers() * kDimCount),
      bursts_(ctx_.layers() * kDimCount * kDimCount),
      comm_(bursts_.size()),
      loads_(bursts_.size()) {}

std::size_t Scorer::transition_index(std::size_t li, sched::PartitionDim prev,
                                     sched::PartitionDim dim) const {
  return (li * kDimCount + static_cast<std::size_t>(prev)) * kDimCount +
         static_cast<std::size_t>(dim);
}

std::uint64_t Scorer::compute_cycles(std::size_t li,
                                     sched::PartitionDim dim) {
  std::optional<std::uint64_t>& memo =
      compute_[li * kDimCount + static_cast<std::size_t>(dim)];
  if (!memo) memo = pricer_.compute_cycles(ctx_.work(li, dim).per_partition);
  return *memo;
}

std::optional<std::uint64_t> Scorer::comm_cycles(
    std::size_t li, sched::PartitionDim prev, sched::PartitionDim dim,
    const Candidate& c, bool incumbent_placement,
    const std::optional<std::pair<std::size_t, std::size_t>>& swap) {
  if (ctx_.stages()[li - 1] != ctx_.stages()[li]) {
    return pricer_.inter_chip_cycles(ctx_.input_bytes(li));
  }
  const std::size_t t = transition_index(li, prev, dim);
  if (!bursts_[t]) bursts_[t] = ctx_.transition(li, prev, dim);
  const std::vector<noc::Message>& messages = bursts_[t]->messages;
  if (messages.empty()) return std::nullopt;
  if (incumbent_placement) {
    if (!comm_[t]) comm_[t] = pricer_.burst_cycles(messages, c.placement);
    return *comm_[t];
  }
  std::uint64_t raw;
  if (swap) {
    std::optional<sched::BurstLoads>& kept = loads_[t];
    if (!kept) {
      comm_[t] = pricer_.burst_cycles(messages, placement_, 0, kept.emplace());
    }
    raw = pricer_.reprice(*kept, messages, c.placement, swap->first,
                          swap->second);
  } else {
    raw = pricer_.burst_cycles(messages, c.placement);
  }
  pending_.emplace_back(t, raw);
  return raw;
}

std::uint64_t Scorer::score(const Candidate& c) {
  LS_CHECK_MSG(c.layer_dims.empty() || c.layer_dims.size() == layers(),
               "Scorer: %zu layer dims for %zu compute layers",
               c.layer_dims.size(), layers());
  const bool incumbent_placement = c.placement == placement_;
  std::optional<std::pair<std::size_t, std::size_t>> swap;
  if (!incumbent_placement) {
    pending_.clear();
    pending_placement_ = c.placement;
    swap = transposition(placement_, c.placement);
  }
  std::uint64_t total = 0;
  std::uint64_t prev_compute = 0;
  for (std::size_t li = 0; li < layers(); ++li) {
    if (li > 0) {
      if (const auto raw = comm_cycles(li, dim_of(c, li - 1), dim_of(c, li), c,
                                       incumbent_placement, swap)) {
        total +=
            sched::blocking_comm_cycles(*raw, prev_compute, c.overlap_comm);
      }
    }
    prev_compute = compute_cycles(li, dim_of(c, li));
    total += prev_compute;
  }
  return total;
}

void Scorer::adopt(const Candidate& c) {
  if (c.placement == placement_) {
    // Keep only the loads of the new incumbent's own transitions.
    std::vector<bool> keep(loads_.size());
    for (std::size_t li = 1; li < layers(); ++li) {
      keep[transition_index(li, dim_of(c, li - 1), dim_of(c, li))] = true;
    }
    for (std::size_t t = 0; t < loads_.size(); ++t) {
      if (!keep[t]) loads_[t].reset();
    }
    return;
  }
  placement_ = c.placement;
  std::fill(comm_.begin(), comm_.end(), std::nullopt);
  std::fill(loads_.begin(), loads_.end(), std::nullopt);
  if (pending_placement_ == placement_) {
    for (const auto& [t, raw] : pending_) comm_[t] = raw;
  }
  pending_.clear();
}

sched::CostModelConfig cost_model_for(const sim::SystemConfig& system) {
  sched::CostModelConfig cost;
  cost.accel = system.accel;
  cost.chip_dram_bytes_per_cycle = system.chip_dram_bytes_per_cycle;
  cost.noc = system.noc;
  cost.noc_clock_divider = system.noc_clock_divider;
  cost.inter_chip = system.inter_chip;
  return cost;
}

sched::Schedule lower_candidate(const nn::NetSpec& spec,
                                const core::InferenceTraffic& traffic,
                                const sim::SystemConfig& system,
                                const Candidate& candidate,
                                sched::Strategy strategy) {
  sched::BuildOptions opts;
  opts.cores = sim::cores_per_chip(system);  // one chip's mesh
  opts.bytes_per_value = system.bytes_per_value;
  opts.overlap_comm = candidate.overlap_comm;
  opts.sparse_cycle_model = false;
  opts.layer_dims = candidate.layer_dims;
  opts.placement = candidate.placement;
  return sched::lower_pipelined(spec, traffic, opts, system.chips, nullptr,
                                strategy);
}

TuneOutcome tune(const nn::NetSpec& spec,
                 const core::InferenceTraffic& traffic,
                 const sim::SystemConfig& system, const TunerConfig& cfg,
                 sched::Strategy strategy, TuneTelemetry* telemetry) {
  return tune(spec, traffic, system, cfg, strategy, telemetry,
              std::make_unique<Scorer>(spec, traffic, system));
}

TuneOutcome tune(const nn::NetSpec& spec,
                 const core::InferenceTraffic& traffic,
                 const sim::SystemConfig& system, const TunerConfig& cfg,
                 sched::Strategy strategy, TuneTelemetry* telemetry,
                 std::unique_ptr<Scorer> scorer) {
  LS_CHECK_MSG(cfg.budget > 0 && cfg.restarts > 0 && cfg.top_k > 0,
               "tune('%s'): budget, restarts and top_k must be positive",
               spec.name.c_str());
  LS_CHECK_MSG(scorer != nullptr, "tune('%s'): no scorer",
               spec.name.c_str());
  static obs::Counter& evals_ctr =
      obs::Registry::instance().counter("tune.evals");
  static obs::Counter& validated_ctr =
      obs::Registry::instance().counter("tune.validated");
  static obs::Counter& restarts_ctr =
      obs::Registry::instance().counter("tune.restarts");
  static obs::Counter& accepted_ctr =
      obs::Registry::instance().counter("tune.moves_accepted");
  static obs::Counter& rejected_ctr =
      obs::Registry::instance().counter("tune.moves_rejected");
  if (telemetry != nullptr) *telemetry = TuneTelemetry{};

  TuneOutcome out;
  Candidate base;
  // Greedy hill-climbing with restarts; collect each restart's local
  // optimum as a validation candidate.
  std::vector<std::pair<std::uint64_t, Candidate>> optima;
  {
    obs::Span span("tune.search", "tune");
    Search search(*scorer, system, cfg);
    // Baseline: what ls_experiment executes untuned. Scored outside the
    // budget (it is the yardstick, not a candidate).
    base = search.baseline();
    const std::uint64_t per_restart =
        std::max<std::uint64_t>(1, cfg.budget / cfg.restarts);
    for (std::size_t r = 0;
         r < cfg.restarts && search.evals() < cfg.budget; ++r) {
      obs::Span restart_span;
      if (obs::trace_enabled()) {
        restart_span.begin("tune.restart#" + std::to_string(r), "tune");
      }
      restarts_ctr.inc();
      Candidate cur = r == 0 ? base : search.random_start();
      std::uint64_t cur_cost = search.score(cur);
      search.adopt(cur);
      TuneRestartTrace trace;
      trace.restart = r;
      trace.start_est_cycles = cur_cost;
      const std::uint64_t stop =
          std::min<std::uint64_t>(cfg.budget, (r + 1) * per_restart);
      while (search.evals() < stop) {
        const Candidate next = search.mutate(cur);
        const std::uint64_t next_cost = search.score(next);
        const bool accepted = next_cost < cur_cost;
        (accepted ? accepted_ctr : rejected_ctr).inc();
        if (telemetry != nullptr) {
          trace.moves.push_back({search.evals(), next_cost, accepted});
          (accepted ? telemetry->moves_accepted : telemetry->moves_rejected)++;
        }
        if (accepted) {
          cur = next;
          cur_cost = next_cost;
          search.adopt(cur);
        }
      }
      if (telemetry != nullptr) {
        trace.final_est_cycles = cur_cost;
        telemetry->restarts.push_back(std::move(trace));
      }
      optima.emplace_back(cur_cost, std::move(cur));
    }
    out.evals = search.evals();
  }
  // The memo tables are dead weight from here on: free them before flit
  // validation, which has its own peak.
  scorer.reset();
  evals_ctr.inc(out.evals);

  // Deduplicate and keep the top-k analytic winners for flit validation.
  std::stable_sort(optima.begin(), optima.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::pair<std::uint64_t, Candidate>> finalists;
  for (auto& [est, cand] : optima) {
    if (finalists.size() >= cfg.top_k) break;
    bool dup = false;
    for (const auto& f : finalists) dup = dup || f.second == cand;
    if (!dup) finalists.emplace_back(est, std::move(cand));
  }
  LS_CHECK_MSG(!finalists.empty(), "tune('%s'): search produced no optima",
               spec.name.c_str());

  // Flit-level validation: the analytic model picks the shortlist, the
  // real simulator picks the winner (and prices the baseline for the
  // reported speedup). The baseline and every surviving finalist go to
  // the simulator as one batch, so their bursts share one pool job and
  // bursts common to several schedules run once.
  {
    obs::Span span("tune.validate", "tune");
    const sim::CmpSystem sys(system);
    std::vector<sched::Schedule> batch;
    batch.push_back(lower_candidate(spec, traffic, system, base, strategy));
    out.baseline_est_cycles =
        sched::estimate_cycles(batch.front(), cost_model_for(system))
            .total_cycles;
    std::vector<const std::pair<std::uint64_t, Candidate>*> survivors;
    for (const auto& finalist : finalists) {
      // Static verification gates the expensive flit-level validation:
      // a finalist the verifier rejects never reaches the simulator. A
      // violation here means a builder bug — abort in checked builds,
      // skip the candidate in release.
      sched::Schedule lowered =
          lower_candidate(spec, traffic, system, finalist.second, strategy);
      if (const sched::VerifyReport report = sys.verify(lowered);
          !report.ok()) {
        LS_CHECK_MSG(false, "tune('%s'): finalist failed verify:\n%s",
                     spec.name.c_str(), report.to_string().c_str());
        LS_LOG_WARN("tune('%s'): skipping finalist that failed verify:\n%s",
                    spec.name.c_str(), report.to_string().c_str());
        continue;
      }
      survivors.push_back(&finalist);
      batch.push_back(std::move(lowered));
    }
    const std::vector<sim::InferenceResult> priced = sys.execute(batch);
    out.baseline_sim_cycles = priced.front().total_cycles;
    std::size_t best_idx = 0;
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      const auto& [est, cand] = *survivors[i];
      const std::uint64_t sim_cycles = priced[i + 1].total_cycles;
      if (telemetry != nullptr) {
        telemetry->validations.push_back({est, sim_cycles, false});
      }
      if (i == 0 || sim_cycles < out.best_sim_cycles) {
        best_idx = i;
        out.best = cand;
        out.best_est_cycles = est;
        out.best_sim_cycles = sim_cycles;
      }
    }
    out.validated = survivors.size();
    if (survivors.empty() || out.best_sim_cycles >= out.baseline_sim_cycles) {
      // No finalist validated faster than the baseline (the analytic model
      // misranked them, or the static verifier rejected all of them in a
      // release build — checked builds abort above). The baseline, priced
      // in the same batch, is the winner.
      out.best = base;
      out.best_est_cycles = out.baseline_est_cycles;
      out.best_sim_cycles = out.baseline_sim_cycles;
    } else if (telemetry != nullptr) {
      telemetry->validations[best_idx].is_best = true;
    }
  }
  validated_ctr.inc(out.validated);
  return out;
}

}  // namespace ls::tune
