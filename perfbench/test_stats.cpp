// Unit tests for the benchmark's own statistics (perfbench/stats.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Quantile, InterpolatesLikePythonInclusive) {
  // statistics.quantiles([1..10], n=4, method="inclusive") == [3.25, 5.5, 7.75]
  const std::vector<double> v = ramp(10);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 3.25);
  EXPECT_DOUBLE_EQ(median(v), 5.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 7.75);
  EXPECT_DOUBLE_EQ(median({4.0}), 4.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(ramp(19)).percentile, 50.0);
  EXPECT_EQ(tail_percentile(ramp(99)).percentile, 50.0);
  EXPECT_EQ(tail_percentile(ramp(100)).percentile, 90.0);
  EXPECT_EQ(tail_percentile(ramp(999)).percentile, 90.0);
  EXPECT_EQ(tail_percentile(ramp(1000)).percentile, 99.0);
  EXPECT_EQ(tail_percentile(ramp(10000)).percentile, 99.9);
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(100)).value, quantile(ramp(100), 0.9));
}

TEST(SpanLedger, SelfTimeExcludesDirectChildren) {
  SpanLedger ledger;
  ledger.open("optimizer", 0.0);
  ledger.open("apply", 1.0);
  ledger.open("kernel", 1.5);
  ledger.close(2.5);  // kernel: 1.0
  ledger.close(3.0);  // apply: 2.0 total, 1.0 self
  ledger.open("apply", 4.0);
  ledger.close(4.5);  // apply: 0.5 more self
  ledger.close(10.0);  // optimizer: 10 total, 10 - 2.0 - 0.5 self
  ledger.open("setup", 12.0);
  ledger.close(13.0);
  EXPECT_TRUE(ledger.idle());
  EXPECT_DOUBLE_EQ(ledger.self_seconds("kernel"), 1.0);
  EXPECT_DOUBLE_EQ(ledger.self_seconds("apply"), 1.5);
  EXPECT_DOUBLE_EQ(ledger.self_seconds("optimizer"), 7.5);
  EXPECT_DOUBLE_EQ(ledger.self_seconds("setup"), 1.0);
  EXPECT_DOUBLE_EQ(ledger.self_seconds("absent"), 0.0);
  // Self times partition the covered time; the gap 10..12 is uncovered.
  double total = 0.0;
  for (const auto& [name, s] : ledger.self_times()) total += s;
  EXPECT_DOUBLE_EQ(total, ledger.covered_seconds());
  EXPECT_DOUBLE_EQ(ledger.covered_seconds(), 11.0);
  EXPECT_THROW(ledger.close(14.0), std::logic_error);
}

TEST(SpanLedger, NullLedgerScopeIsNoOp) {
  EXPECT_EQ(spanned(nullptr, "x", [] { return 7; }), 7);
}

TEST(ZipfSampler, SeedFixesTheStream) {
  const ZipfSampler zipf(4096, 1.0);
  vqsim::Rng a(42);
  vqsim::Rng b(42);
  vqsim::Rng c(43);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const std::size_t x = zipf(a);
    EXPECT_EQ(x, zipf(b));
    EXPECT_LT(x, zipf.size());
    differs = differs || x != zipf(c);
  }
  EXPECT_TRUE(differs);
}

TEST(ZipfSampler, RankZeroIsHottest) {
  const ZipfSampler zipf(100, 1.0);
  vqsim::Rng rng(1);
  std::vector<int> hist(100, 0);
  for (int i = 0; i < 20000; ++i) ++hist[zipf(rng)];
  // Weight of rank 0 is 1 / H(100) ~ 0.193; rank 1 half of that.
  EXPECT_NEAR(hist[0] / 20000.0, 0.193, 0.01);
  EXPECT_GT(hist[0], hist[1]);
  EXPECT_GT(hist[1], hist[50]);
}

}  // namespace
}  // namespace perfbench
