#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>

#include "util/json_in.hpp"

namespace ls::bench {

void Ledger::op(bool ok, const std::string& what) {
  ops(1, ok ? 0 : 1, what);
}

void Ledger::ops(std::uint64_t n, std::uint64_t failed,
                 const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0) {
    failures_.push_back(what + " (" + std::to_string(failed) + " of " +
                        std::to_string(n) + " failed)");
    std::fprintf(stderr, "ls_bench: FAILED %s\n", failures_.back().c_str());
  }
}

namespace {
std::atomic<bool> g_layer_spans{false};
}  // namespace

void set_layer_spans(bool on) { g_layer_spans.store(on); }

LayerSpan::LayerSpan(const char* name) {
  if (g_layer_spans.load()) span_.begin(name, "bench");
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

struct Interval {
  const std::string* name = nullptr;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  std::size_t order = 0;  ///< position in the file (children precede parents)
  std::uint64_t covered = 0;
};

const util::JsonValue& member(const util::JsonValue& event, const char* key) {
  const util::JsonValue* v = event.find(key);
  if (v == nullptr) {
    throw std::runtime_error(std::string("trace event without \"") + key +
                             "\"");
  }
  return *v;
}

}  // namespace

std::map<std::string, SpanTotals> summarize_trace(const std::string& path) {
  util::JsonValue doc;
  std::string error;
  if (!util::parse_json_file(path, &doc, &error)) {
    throw std::runtime_error("cannot read trace " + path + ": " + error);
  }
  const util::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || events->kind() != util::JsonValue::Kind::kArray) {
    throw std::runtime_error("trace " + path + " has no traceEvents array");
  }

  std::map<std::string, SpanTotals> totals;
  std::map<std::uint64_t, std::vector<Interval>> by_thread;
  std::size_t order = 0;
  for (const util::JsonValue& e : events->as_array()) {
    if (member(e, "ph").as_string() != "X" ||
        member(e, "pid").as_u64() != obs::kWallPid) {
      continue;
    }
    const std::string& cat = member(e, "cat").as_string();
    if (cat == "pool") continue;
    auto [it, inserted] = totals.try_emplace(member(e, "name").as_string());
    if (inserted) it->second.cat = cat;
    by_thread[member(e, "tid").as_u64()].push_back(
        {&it->first, member(e, "ts").as_u64(), member(e, "dur").as_u64(),
         order++, 0});
  }

  // Spans on one thread nest. Visit them parents-first (earlier start,
  // then longer, then later-written) and charge each span's duration,
  // clipped to its parent's interval, to the innermost open span.
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(),
              [](const Interval& a, const Interval& b) {
                if (a.ts != b.ts) return a.ts < b.ts;
                if (a.dur != b.dur) return a.dur > b.dur;
                return a.order > b.order;
              });
    std::vector<Interval*> open;
    for (Interval& s : spans) {
      while (!open.empty() && open.back()->ts + open.back()->dur <= s.ts) {
        open.pop_back();
      }
      if (!open.empty()) {
        const std::uint64_t parent_end = open.back()->ts + open.back()->dur;
        open.back()->covered += std::min(s.ts + s.dur, parent_end) - s.ts;
      }
      open.push_back(&s);
    }
    for (const Interval& s : spans) {
      SpanTotals& t = totals[*s.name];
      t.total_s += static_cast<double>(s.dur) * 1e-6;
      t.self_s +=
          static_cast<double>(s.dur - std::min(s.dur, s.covered)) * 1e-6;
    }
  }
  return totals;
}

}  // namespace ls::bench
