#pragma once
// Measurement plumbing shared by the ls_bench workloads: the operation
// ledger (attempted / failed accounting), the benchmark's own layer spans,
// and the reader that turns a written trace back into per-name self times.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace ls::bench {

/// Per-layer values a job rep reads off library results (counts, cycles,
/// ratios), keyed by per-layer metric name.
using Values = std::map<std::string, double>;

/// Counts the operations a run attempted and which of them failed. An
/// operation fails when it throws or a check on its output fails.
class Ledger {
 public:
  /// One operation; `what` names it in the failure report.
  void op(bool ok, const std::string& what);
  /// `n` operations of one kind, `failed` of which failed.
  void ops(std::uint64_t n, std::uint64_t failed, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Arms the LayerSpans. Off for the untraced (end-to-end) runs.
void set_layer_spans(bool on);

/// A `bench.<layer>.<call>` span around one call into a library layer,
/// recorded into the process tracer's in-memory buffer whether or not the
/// library's own tracing is running (obs::Span records on end() either
/// way), so every workload gets these spans on one clock.
class LayerSpan {
 public:
  explicit LayerSpan(const char* name);

 private:
  obs::Span span_;
};

/// Seconds on the steady clock since `start`.
double seconds_since(std::chrono::steady_clock::time_point start);

double median(std::vector<double> values);

/// Wall-clock totals of one span name across every thread.
struct SpanTotals {
  std::string cat;
  double self_s = 0.0;   ///< duration minus the part child spans cover
  double total_s = 0.0;  ///< summed durations
};

/// Reads a Chrome-trace file written by obs::Tracer and returns per-name
/// totals over the wall-clock complete events. Self time is computed per
/// thread from span nesting. The thread pool's own spans (category "pool")
/// are left out: they wrap the kernel work they schedule and would
/// otherwise take its self time. Throws std::runtime_error when the file
/// cannot be read or parsed.
std::map<std::string, SpanTotals> summarize_trace(const std::string& path);

}  // namespace ls::bench
