// Statistics and span bookkeeping for the end-to-end benchmark.
//
// Kept apart from the workloads so perfbench/test_stats.cpp can pin the
// rules every reported number depends on: the quantile convention, the
// "highest percentile with at least ten samples beyond it" tail rule, the
// self-time reduction over nested spans, and the seeded Zipf sampler.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

/// Quantile `q` in [0, 1] by linear interpolation between order statistics
/// (the "inclusive" convention of Python's statistics.quantiles).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: no samples");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("mean: no samples");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};

/// The highest of p99.9 / p99 / p90 that has at least ten samples beyond
/// it; p50 when none has.
inline Tail tail_percentile(const std::vector<double>& values) {
  const auto n = static_cast<double>(values.size());
  for (double p : {99.9, 99.0, 90.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0 - 1e-9)
      return {p, quantile(values, p / 100.0)};
  }
  return {50.0, median(values)};
}

/// Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s. Draws come
/// only from the caller's Rng, so a seed fixes the whole request stream.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) {
    if (n == 0) throw std::invalid_argument("ZipfSampler: empty support");
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r)
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s) / total;
      cdf_.push_back(acc);
    }
    cdf_.back() = 1.0;
  }

  std::size_t operator()(vqsim::Rng& rng) const {
    const double u = rng.uniform();
    return static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Self time per span name over a tree of nested spans on one thread. A
/// span's self time is its duration minus the durations of its direct
/// children, so the self times of all spans sum to the time covered by the
/// outermost spans. Names must be string literals (compared by address
/// first, then by content).
class SpanLedger {
 public:
  using Clock = std::chrono::steady_clock;

  /// RAII span; a null ledger makes it a no-op.
  class Scope {
   public:
    Scope(SpanLedger* ledger, const char* name) : ledger_(ledger) {
      if (ledger_) ledger_->open(name, now());
    }
    ~Scope() {
      if (ledger_) ledger_->close(now());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    static double now() {
      return std::chrono::duration<double>(Clock::now().time_since_epoch())
          .count();
    }
    SpanLedger* ledger_;
  };

  /// Explicit-time interface (seconds on any monotonic axis).
  void open(const char* name, double t) {
    stack_.push_back({slot(name), t, 0.0});
  }
  void close(double t) {
    if (stack_.empty())
      throw std::logic_error("SpanLedger: close without open");
    const Frame f = stack_.back();
    stack_.pop_back();
    const double duration = t - f.start;
    self_[f.slot].second += duration - f.child_seconds;
    if (stack_.empty())
      covered_ += duration;
    else
      stack_.back().child_seconds += duration;
  }

  double self_seconds(std::string_view name) const {
    for (const auto& [n, s] : self_)
      if (name == n) return s;
    return 0.0;
  }
  /// (name, self seconds) per span name, in first-opened order.
  const std::vector<std::pair<const char*, double>>& self_times() const {
    return self_;
  }
  /// Time inside any span (the sum of every self time).
  double covered_seconds() const { return covered_; }
  bool idle() const { return stack_.empty(); }

 private:
  struct Frame {
    std::size_t slot;
    double start;
    double child_seconds;
  };

  std::size_t slot(const char* name) {
    for (std::size_t i = 0; i < self_.size(); ++i)
      if (self_[i].first == name || std::string_view(self_[i].first) == name)
        return i;
    self_.emplace_back(name, 0.0);
    return self_.size() - 1;
  }

  std::vector<Frame> stack_;
  std::vector<std::pair<const char*, double>> self_;
  double covered_ = 0.0;
};

/// `f()` inside a span named `name`; returns what `f` returns.
template <class F>
decltype(auto) spanned(SpanLedger* ledger, const char* name, F&& f) {
  const SpanLedger::Scope span(ledger, name);
  return f();
}

}  // namespace perfbench
