// Interface between perf_e2e's main program (perf_e2e.cpp) and its workloads.
//
// Each workload builds its inputs, runs one untimed warm-up operation, then
// repeats its end-to-end operation for `seconds` with tracing off; set-up
// is timed on throwaway builds around that phase. With `trace` set it runs a
// second, traced pass through benchmark-side replicas of the library's
// inner loops and reports per-layer numbers. Correctness checks never
// abort a run: a failed check is recorded and turns "correct" false.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/timer.hpp"
#include "stats.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// One operation per phase and one set-up: correctness checks only.
  bool smoke = false;

  /// Throwaway set-ups timed after the warm-up, and again after the timed
  /// phase.
  int setups_each_side() const { return smoke ? 1 : 3; }
  /// The traced pass takes the second half of a traced run.
  double untraced_seconds() const { return trace ? seconds / 2 : seconds; }
  double traced_seconds() const { return seconds / 2; }
};

struct WorkloadResult {
  std::vector<double> setup_s;  // one entry per set-up
  std::vector<double> op_ms;    // untraced timed operations
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  /// Per-layer metrics (traced pass), keyed by the names perf_e2e.cpp
  /// declares; layers a workload never enters stay 0.
  std::map<std::string, double> layer;
  /// Extra numbers for the "detail" BENCH row (not part of the result).
  std::map<std::string, double> details;

  void check(bool ok, std::string what) {
    if (!ok && std::find(errors.begin(), errors.end(), what) == errors.end())
      errors.push_back(std::move(what));
  }
};

WorkloadResult run_pes_sweep(const RunConfig& config);
WorkloadResult run_adapt_water10(const RunConfig& config);
WorkloadResult run_dist_hubbard20(const RunConfig& config);
WorkloadResult run_serve_zipf(const RunConfig& config);

/// Global-registry counter deltas since construction.
class CounterDelta {
 public:
  CounterDelta() : start_(read()) {}
  double operator()(std::string_view name) const {
    const auto now = read();
    const auto end = now.find(std::string(name));
    if (end == now.end()) return 0.0;
    const auto begin = start_.find(std::string(name));
    const std::uint64_t base = begin == start_.end() ? 0 : begin->second;
    return static_cast<double>(end->second - base);
  }

 private:
  static std::map<std::string, std::uint64_t> read() {
    std::map<std::string, std::uint64_t> out;
    for (const auto& c :
         vqsim::telemetry::MetricsRegistry::global().snapshot().counters)
      out[c.name] = c.value;
    return out;
  }
  std::map<std::string, std::uint64_t> start_;
};

/// Per-layer count metrics: registry deltas since `delta` was taken, divided
/// by `ops`.
void record_counts(WorkloadResult& result, const CounterDelta& delta,
                   double ops);

/// trace.* metrics plus one `<span>_frac` self-time share (of the traced
/// pass's wall time, the sum of `traced_ms`) per span name the pass opened.
void record_trace(WorkloadResult& result, const SpanLedger& ledger,
                  const std::vector<double>& traced_ms, bool replica_match);

/// Runs `op` (which returns its own latency in ms) until `seconds` have
/// passed; at least one operation.
template <class Op>
std::vector<double> repeat_for(double seconds, Op&& op) {
  std::vector<double> ms;
  const vqsim::WallTimer clock;
  do {
    ms.push_back(op());
  } while (clock.seconds() < seconds);
  return ms;
}

/// Times `count` throwaway calls of `build` into result.setup_s; tearing
/// each down is not timed. Workloads call this after their warm-up
/// operation and again after the timed phase: by then the heap has grown,
/// so a set-up costs its work rather than however the allocator last gave
/// memory back, and one slow stretch of the host does not decide the
/// median.
template <class Build>
void time_setups(int count, WorkloadResult& result, Build&& build) {
  for (int i = 0; i < count; ++i) {
    const vqsim::WallTimer clock;
    const auto built = build();
    result.setup_s.push_back(clock.seconds());
  }
}

}  // namespace perfbench
