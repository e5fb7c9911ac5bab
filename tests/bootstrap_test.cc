// Unit tests for the bootstrap layer: poissonized multiplicities, trial
// accumulators, error estimates, and variation-range tracking with
// decision constraints.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "bootstrap/error_estimate.h"
#include "bootstrap/poisson_multiplicities.h"
#include "bootstrap/trial_accumulator.h"
#include "bootstrap/variation_range.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/aggregate.h"

namespace iolap {
namespace {

TEST(BootstrapWeightsTest, DeterministicPerRowAndTrial) {
  BootstrapWeights a(7, 50);
  BootstrapWeights b(7, 50);
  for (uint64_t uid : {0ull, 5ull, 999ull}) {
    for (int t = 0; t < 50; ++t) {
      EXPECT_EQ(a.WeightAt(uid, t), b.WeightAt(uid, t));
    }
  }
}

TEST(BootstrapWeightsTest, DifferentSeedsDiffer) {
  BootstrapWeights a(1, 100);
  BootstrapWeights b(2, 100);
  int diffs = 0;
  for (int t = 0; t < 100; ++t) {
    diffs += a.WeightAt(42, t) != b.WeightAt(42, t);
  }
  EXPECT_GT(diffs, 10);
}

TEST(BootstrapWeightsTest, MeanAndVarianceNearOne) {
  BootstrapWeights weights(3, 1);
  double sum = 0, sumsq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const int w = weights.WeightAt(static_cast<uint64_t>(i), 0);
    sum += w;
    sumsq += static_cast<double>(w) * w;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 1.0, 0.02);
  EXPECT_NEAR(sumsq / n - mean * mean, 1.0, 0.03);
}

TEST(BootstrapWeightsTest, RowOverheadMatchesTrials) {
  EXPECT_EQ(BootstrapWeights(0, 64).RowOverheadBytes(), 64u);
}

TEST(BootstrapWeightsTest, FillEqualsWeightAt) {
  for (int trials : {1, 20, 60, 100}) {
    const BootstrapWeights weights(9, trials);
    std::vector<uint8_t> packed(trials);
    for (uint64_t uid : {0ull, 1ull, 77ull, 123456789ull, ~0ull >> 8}) {
      weights.Fill(uid, packed.data());
      for (int t = 0; t < trials; ++t) {
        EXPECT_EQ(packed[t], weights.WeightAt(uid, t))
            << "T=" << trials << " uid=" << uid << " t=" << t;
      }
    }
  }
}

// The inverse CDF as a double-precision uniform compared against the
// Poisson(1) CDF: the definition the integer thresholds must reproduce.
constexpr double kOracleCdf[] = {
    0.36787944117144233, 0.7357588823428847, 0.9196986029286058,
    0.9810118431238462,  0.9963401531726563, 0.9994058151824183,
    0.9999167588507119,  0.9999897508033253, 0.9999988747974020,
};

int PoissonOneDoubleCdf(uint64_t hash) {
  const double u = static_cast<double>(hash >> 11) * 0x1.0p-53;
  for (int k = 0; k < 9; ++k) {
    if (u < kOracleCdf[k]) return k;
  }
  return 9;
}

TEST(PoissonThresholdTest, MatchesDoubleCdfOnIndices) {
  int mismatches = 0;
  for (uint64_t i = 0; i < 1000000; ++i) {
    const uint64_t stream = 0xb0075742u ^ (i % 3);
    mismatches += PoissonOneAt(stream, i) !=
                  PoissonOneDoubleCdf(Mix64(HashCombine(stream, i)));
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(PoissonThresholdTest, MatchesDoubleCdfAtEveryThreshold) {
  for (double cdf : kOracleCdf) {
    const auto boundary = static_cast<uint64_t>(cdf * 0x1.0p53);
    for (uint64_t bits = boundary - 1; bits <= boundary + 2; ++bits) {
      for (uint64_t low : {0ull, 0x7ffull}) {
        const uint64_t hash = (bits << 11) | low;
        EXPECT_EQ(PoissonOneOfHash(hash), PoissonOneDoubleCdf(hash))
            << "bits=" << bits;
      }
    }
  }
  EXPECT_EQ(PoissonOneOfHash(0), 0);
  EXPECT_EQ(PoissonOneOfHash(~0ull), 9);
}

// The lookup table agrees with the threshold compares at the first and
// last 53-bit value of every bucket, and one below, at and one above every
// threshold (the values that decide a straddling bucket's fallback).
TEST(PoissonTableTest, MatchesThresholdComparesAtBucketEdges) {
  int straddling = 0;
  for (uint64_t b = 0; b < kPoissonOneTable.size(); ++b) {
    straddling += kPoissonOneTable[b] == kPoissonStraddle;
    const uint64_t first = b << (53 - kPoissonTableBits);
    const uint64_t last = first | ((uint64_t{1} << (53 - kPoissonTableBits)) - 1);
    for (uint64_t bits : {first, last}) {
      for (uint64_t low : {0ull, 0x7ffull}) {
        const uint64_t hash = (bits << 11) | low;
        ASSERT_EQ(PoissonOneByTable(hash), PoissonOneOfHash(hash))
            << "bucket " << b << " bits " << bits;
      }
    }
  }
  EXPECT_EQ(straddling, 7);
  for (uint64_t threshold : kPoissonOneThresholds) {
    for (uint64_t bits = threshold - 1; bits <= threshold + 1; ++bits) {
      for (uint64_t low : {0ull, 0x7ffull}) {
        const uint64_t hash = (bits << 11) | low;
        EXPECT_EQ(PoissonOneByTable(hash), PoissonOneOfHash(hash))
            << "bits " << bits;
      }
    }
  }
}

TEST(PoissonTableTest, FillMatchesHashDrawsOverManyRows) {
  const BootstrapWeights weights(5, 100);
  std::vector<uint8_t> packed(100);
  int mismatches = 0;
  for (uint64_t uid = 0; uid < 10000; ++uid) {
    weights.Fill(uid, packed.data());
    for (int t = 0; t < 100; ++t) mismatches += packed[t] != weights.WeightAt(uid, t);
  }
  EXPECT_EQ(mismatches, 0);
}

// ------------------------------------------------- TrialAccumulatorSet

TEST(TrialAccumulatorTest, MainAndTrialsIndependent) {
  auto fn = MakeBuiltinAggFunction(AggKind::kSum);
  TrialAccumulatorSet acc(*fn, 3);
  const uint8_t weights[3] = {0, 1, 2};
  acc.AddMainOnly(Value::Double(10), 1.0);
  acc.AddTrials(Value::Double(10), 1.0, weights, 0, 3);
  EXPECT_DOUBLE_EQ(acc.MainResult(1.0).AsDouble(), 10.0);
  const auto trials = acc.TrialResults(1.0);
  ASSERT_EQ(trials.size(), 3u);
  EXPECT_DOUBLE_EQ(trials[0], 10.0);  // empty trial falls back to main
  EXPECT_DOUBLE_EQ(trials[1], 10.0);
  EXPECT_DOUBLE_EQ(trials[2], 20.0);
}

TEST(TrialAccumulatorTest, NullTrialWeightsMeanUniform) {
  auto fn = MakeBuiltinAggFunction(AggKind::kCount);
  TrialAccumulatorSet acc(*fn, 2);
  acc.AddMainOnly(Value::Int64(1), 2.0);
  acc.AddTrials(Value::Int64(1), 2.0, nullptr, 0, 2);
  for (double t : acc.TrialResults(1.0)) EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(TrialAccumulatorTest, AddPerTrialUsesTrialValues) {
  auto fn = MakeBuiltinAggFunction(AggKind::kAvg);
  TrialAccumulatorSet acc(*fn, 2);
  // main value 10; trial replicas 8 and 12 (uncertain aggregate inputs
  // arrive per trial).
  acc.AddMainOnly(Value::Double(10), 1.0);
  acc.AddTrialOnly(0, Value::Double(8), 1.0);
  acc.AddTrialOnly(1, Value::Double(12), 1.0);
  EXPECT_DOUBLE_EQ(acc.MainResult(1.0).AsDouble(), 10.0);
  const auto trials = acc.TrialResults(1.0);
  EXPECT_DOUBLE_EQ(trials[0], 8.0);
  EXPECT_DOUBLE_EQ(trials[1], 12.0);
}

TEST(TrialAccumulatorTest, AddMainOnlyAndTrialOnly) {
  auto fn = MakeBuiltinAggFunction(AggKind::kSum);
  TrialAccumulatorSet acc(*fn, 2);
  acc.AddMainOnly(Value::Double(5), 1.0);
  acc.AddTrialOnly(1, Value::Double(7), 1.0);
  EXPECT_DOUBLE_EQ(acc.MainResult(1.0).AsDouble(), 5.0);
  const auto trials = acc.TrialResults(1.0);
  EXPECT_DOUBLE_EQ(trials[0], 5.0);  // empty -> main fallback
  EXPECT_DOUBLE_EQ(trials[1], 7.0);
}

TEST(TrialAccumulatorTest, CloneAndMerge) {
  auto fn = MakeBuiltinAggFunction(AggKind::kSum);
  TrialAccumulatorSet a(*fn, 2);
  const uint8_t w[2] = {1, 1};
  a.AddMainOnly(Value::Double(1), 1.0);
  a.AddTrials(Value::Double(1), 1.0, w, 0, 2);
  TrialAccumulatorSet b = a.Clone();
  b.AddMainOnly(Value::Double(2), 1.0);
  b.AddTrials(Value::Double(2), 1.0, w, 0, 2);
  EXPECT_DOUBLE_EQ(a.MainResult(1.0).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(b.MainResult(1.0).AsDouble(), 3.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.MainResult(1.0).AsDouble(), 4.0);
  EXPECT_GT(a.ByteSize(), 0u);
}

// A range fold split across lanes equals the per-trial folds of the
// engine's pending path, and TrialResults reads each replica with the
// main-value fallback for empty trials.
TEST(TrialAccumulatorTest, SplitRangeEqualsPerTrialAdds) {
  constexpr int kTrials = 60;
  auto fn = MakeBuiltinAggFunction(AggKind::kAvg);
  TrialAccumulatorSet split(*fn, kTrials);
  TrialAccumulatorSet per_trial(*fn, kTrials);
  const BootstrapWeights weights(5, kTrials);
  std::vector<uint8_t> tw(kTrials);
  for (uint64_t uid = 0; uid < 50; ++uid) {
    weights.Fill(uid, tw.data());
    const Value v = Value::Double(0.25 * static_cast<double>(uid) - 3.0);
    split.AddMainOnly(v, 1.0);
    per_trial.AddMainOnly(v, 1.0);
    split.AddTrials(v, 1.0, tw.data(), 0, 17);
    split.AddTrials(v, 1.0, tw.data(), 17, kTrials);
    for (int t = 0; t < kTrials; ++t) {
      per_trial.AddTrialOnly(t, v, 1.0 * weights.WeightAt(uid, t));
    }
  }
  const std::vector<double> a = split.TrialResults(1.0);
  const std::vector<double> b = per_trial.TrialResults(1.0);
  ASSERT_EQ(a.size(), static_cast<size_t>(kTrials));
  for (int t = 0; t < kTrials; ++t) EXPECT_EQ(a[t], b[t]) << "trial " << t;
  EXPECT_EQ(split.ByteSize(), static_cast<size_t>(1 + kTrials) * 16);

  TrialAccumulatorSet copy = split.Clone();
  copy.Merge(per_trial);
  const std::vector<double> merged = copy.TrialResults(1.0);
  for (int t = 0; t < kTrials; ++t) EXPECT_EQ(merged[t], a[t]) << "trial " << t;
  EXPECT_EQ(split.TrialResults(1.0), a);  // the clone is independent
}

// ------------------------------------------------------ ErrorEstimate

TEST(ErrorEstimateTest, DegenerateWithFewTrials) {
  const ErrorEstimate est = EstimateError(5.0, {});
  EXPECT_DOUBLE_EQ(est.value, 5.0);
  EXPECT_DOUBLE_EQ(est.stddev, 0.0);
  EXPECT_DOUBLE_EQ(est.ci_lo, 5.0);
  EXPECT_DOUBLE_EQ(est.ci_hi, 5.0);
}

TEST(ErrorEstimateTest, StddevAndCi) {
  std::vector<double> trials;
  for (int i = 0; i < 101; ++i) trials.push_back(90.0 + 0.2 * i);  // 90..110
  const ErrorEstimate est = EstimateError(100.0, trials);
  EXPECT_NEAR(est.stddev, 5.87, 0.1);
  EXPECT_NEAR(est.rel_stddev, 0.0587, 0.001);
  EXPECT_NEAR(est.ci_lo, 90.5, 0.2);   // 2.5th percentile
  EXPECT_NEAR(est.ci_hi, 109.5, 0.2);  // 97.5th percentile
  EXPECT_FALSE(est.ToString().empty());
}

// The 2.5 / 97.5 percentiles by full sort under `less`, interpolated the
// way EstimateError defines them.
template <typename Less>
std::pair<double, double> SortedPercentiles(std::vector<double> trials,
                                            Less less) {
  std::sort(trials.begin(), trials.end(), less);
  const auto percentile = [&trials](double p) {
    const double pos = p * (trials.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, trials.size() - 1);
    const double frac = pos - lo;
    return trials[lo] * (1.0 - frac) + trials[hi] * frac;
  };
  return {percentile(0.025), percentile(0.975)};
}

// The selection-based percentile CI against a full sort, on random
// vectors of every replica count up to past the buffered-selection limit
// (where nth_element takes over).
TEST(ErrorEstimateTest, PercentileCiMatchesSortOracle) {
  Rng rng(17);
  for (size_t n = 2; n <= 1200; n += (n < 130 ? 1 : 97)) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<double> trials(n);
      for (double& x : trials) {
        // Repeated values exercise ties.
        x = rep % 2 == 0 ? rng.NextGaussian() * 10
                         : static_cast<double>(rng.NextBounded(5));
      }
      const auto [lo, hi] = SortedPercentiles(trials, std::less<double>());
      const ErrorEstimate est = EstimateError(1.0, trials);
      ASSERT_EQ(est.ci_lo, lo) << "n=" << n;
      ASSERT_EQ(est.ci_hi, hi) << "n=" << n;
    }
  }
}

// Non-finite replicas (SUM over +inf and -inf inputs yields NaN) get a
// defined order, -inf < finite < +inf < NaN, which std::sort's `<` cannot
// provide once NaN is present.
TEST(ErrorEstimateTest, NonFiniteReplicasHaveDefinedOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto nan_last = [](double a, double b) {
    return a < b || (std::isnan(b) && !std::isnan(a));
  };
  const auto same = [](double a, double b) {
    return (std::isnan(a) && std::isnan(b)) || a == b;
  };
  Rng rng(23);
  const double pool[] = {nan, inf, -inf, 0.0, -0.0, 1.5, -2.0, 1e308};
  for (size_t n : {size_t{2}, size_t{3}, size_t{60}, size_t{100},
                   size_t{2000}}) {
    for (int rep = 0; rep < 200; ++rep) {
      std::vector<double> trials(n);
      // Mostly finite, with a rep-dependent share of non-finite values so
      // NaN and the infinities land in and around the percentile ranks.
      const uint64_t odds = 2 + rep % 12;
      for (double& x : trials) {
        x = rng.NextBounded(odds) == 0 ? pool[rng.NextBounded(3)]
                                       : pool[3 + rng.NextBounded(5)];
      }
      const auto [lo, hi] = SortedPercentiles(trials, nan_last);
      const ErrorEstimate est = EstimateError(1.0, trials);
      ASSERT_TRUE(same(est.ci_lo, lo))
          << "n=" << n << " rep=" << rep << ": " << est.ci_lo << " vs " << lo;
      ASSERT_TRUE(same(est.ci_hi, hi))
          << "n=" << n << " rep=" << rep << ": " << est.ci_hi << " vs " << hi;
    }
  }
  // Directed: NaN sorts above +inf, so the top percentile of a vector with
  // NaN in its top ranks is NaN while the bottom stays finite.
  std::vector<double> trials(60, 1.0);
  trials[7] = nan;
  trials[8] = nan;
  trials[9] = inf;
  const ErrorEstimate est = EstimateError(1.0, trials);
  EXPECT_EQ(est.ci_lo, 1.0);
  EXPECT_TRUE(std::isnan(est.ci_hi));
}

// ±0 compare equal: either sign may come out, but the value is zero.
TEST(ErrorEstimateTest, SignedZerosCompareEqual) {
  for (size_t n : {size_t{2}, size_t{60}, size_t{2000}}) {
    std::vector<double> trials;
    for (size_t i = 0; i < n; ++i) trials.push_back(i % 2 == 0 ? 0.0 : -0.0);
    const ErrorEstimate est = EstimateError(0.0, trials);
    EXPECT_EQ(est.ci_lo, 0.0);
    EXPECT_EQ(est.ci_hi, 0.0);
    EXPECT_EQ(est.stddev, 0.0);
  }
}

TEST(ErrorEstimateTest, RelStddevOfZeroValue) {
  const ErrorEstimate est = EstimateError(0.0, {-1.0, 1.0});
  EXPECT_GT(est.stddev, 0.0);
  EXPECT_DOUBLE_EQ(est.rel_stddev, est.stddev);
}

TEST(ErrorEstimateTest, AnalyticEstimate) {
  const ErrorEstimate est = AnalyticEstimate(100.0, 400.0, 100.0);
  EXPECT_NEAR(est.stddev, 2.0, 1e-9);
  EXPECT_NEAR(est.ci_lo, 100 - 3.92, 0.01);
  EXPECT_NEAR(est.ci_hi, 100 + 3.92, 0.01);
  // Degenerate inputs.
  EXPECT_DOUBLE_EQ(AnalyticEstimate(5, -1, 10).stddev, 0.0);
  EXPECT_DOUBLE_EQ(AnalyticEstimate(5, 4, 1).stddev, 0.0);
}

// -------------------------------------------------- VariationRangeTracker

TEST(VariationRangeTest, UnboundedBeforeFirstUpdate) {
  VariationRangeTracker tracker(2.0);
  EXPECT_TRUE(tracker.current().IsUnbounded());
}

TEST(VariationRangeTest, FirstUpdateSetsPaddedEnvelope) {
  VariationRangeTracker tracker(2.0);
  ASSERT_TRUE(tracker.Update(10.0, {8.0, 10.0, 12.0}).ok);
  const Interval r = tracker.current();
  const double sd = 2.0;  // stddev of {8,10,12}
  EXPECT_NEAR(r.lo, 8.0 - 2.0 * sd, 1e-9);
  EXPECT_NEAR(r.hi, 12.0 + 2.0 * sd, 1e-9);
}

TEST(VariationRangeTest, UnconstrainedValuesNeverFail) {
  VariationRangeTracker tracker(2.0);
  ASSERT_TRUE(tracker.Update(10.0, {9, 10, 11}).ok);
  // Wild excursions are fine while nothing depends on the range.
  ASSERT_TRUE(tracker.Update(1000.0, {900, 1000, 1100}).ok);
  ASSERT_TRUE(tracker.Update(-50.0, {-60, -50, -40}).ok);
  EXPECT_EQ(tracker.num_batches(), 3);
}

TEST(VariationRangeTest, ConstraintViolationFails) {
  VariationRangeTracker tracker(2.0);
  ASSERT_TRUE(tracker.Update(10.0, {9, 10, 11}).ok);
  tracker.ConstrainUpper(20.0);  // a pruning decision needs v <= 20
  ASSERT_TRUE(tracker.Update(12.0, {11, 12, 13}).ok);
  const auto result = tracker.Update(25.0, {24, 25, 26});
  EXPECT_FALSE(result.ok);
}

TEST(VariationRangeTest, LowerConstraint) {
  VariationRangeTracker tracker(1.0);
  ASSERT_TRUE(tracker.Update(100.0, {95, 100, 105}).ok);
  tracker.ConstrainLower(50.0);
  ASSERT_TRUE(tracker.Update(80.0, {75, 80, 85}).ok);
  EXPECT_FALSE(tracker.Update(40.0, {35, 40, 45}).ok);
}

TEST(VariationRangeTest, DecayingValueWithUpperConstraintOnlyIsFine) {
  // The q18 scenario: a scaled per-group SUM decays towards its true value
  // after the group is fully seen. A decided-false comparison only bounds
  // it from above, so the decay never violates anything.
  VariationRangeTracker tracker(2.0);
  double value = 100.0;
  ASSERT_TRUE(tracker.Update(value, {80, 100, 120}).ok);
  tracker.ConstrainUpper(200.0);
  for (int b = 1; b <= 20; ++b) {
    value *= 0.9;
    ASSERT_TRUE(
        tracker.Update(value, {value * 0.8, value, value * 1.2}).ok)
        << "batch " << b;
  }
}

TEST(VariationRangeTest, FailureReportsLastConsistentBatch) {
  VariationRangeTracker tracker(0.0);
  ASSERT_TRUE(tracker.Update(10, {10}).ok);      // batch 0: no constraints
  tracker.ConstrainUpper(100.0);                 // loose constraint
  ASSERT_TRUE(tracker.Update(11, {11}).ok);      // batch 1
  tracker.ConstrainUpper(15.0);                  // tight constraint
  ASSERT_TRUE(tracker.Update(12, {12}).ok);      // batch 2
  const auto result = tracker.Update(50, {50});  // violates <=15 and <=100...
  ASSERT_FALSE(result.ok);
  // 50 violates both constraints; only batch 0 (unconstrained) contains it.
  EXPECT_EQ(result.last_consistent_batch, 0);
}

TEST(VariationRangeTest, FailureWalksToLooserConstraint) {
  // Engine call order: the block publishes batch b (Update), then
  // downstream classifications of batch b register their constraints —
  // so a constraint belongs to the snapshot of the batch whose decisions
  // created it, and rolling back to the previous batch undoes it.
  VariationRangeTracker tracker(0.0);
  ASSERT_TRUE(tracker.Update(10, {10}).ok);  // batch 0 published
  tracker.ConstrainUpper(100.0);             // decision during batch 0
  ASSERT_TRUE(tracker.Update(11, {11}).ok);  // batch 1 published
  tracker.ConstrainUpper(15.0);              // decision during batch 1
  ASSERT_TRUE(tracker.Update(12, {12}).ok);  // batch 2
  const auto result = tracker.Update(30, {30});
  ASSERT_FALSE(result.ok);
  // 30 violates the batch-1 decision (<=15) but honours batch 0 (<=100):
  // recovery lands on batch 0, undoing the batch-1 decision.
  EXPECT_EQ(result.last_consistent_batch, 0);
}

TEST(VariationRangeTest, RecoverRestoresConstraintsAndFreezes) {
  VariationRangeTracker tracker(2.0);
  ASSERT_TRUE(tracker.Update(10, {9, 10, 11}).ok);
  ASSERT_TRUE(tracker.Update(10, {9, 10, 11}).ok);
  tracker.ConstrainUpper(12.0);
  ASSERT_FALSE(tracker.Update(20, {19, 20, 21}).ok);
  tracker.RecoverTo(0, /*freeze_updates=*/2);
  EXPECT_EQ(tracker.num_batches(), 1);
  // During the freeze the classification range is just the recovered
  // constraints — unbounded below here.
  EXPECT_TRUE(std::isinf(tracker.current().lo));
  // Replay: updates within the frozen window append without narrowing.
  ASSERT_TRUE(tracker.Update(20, {19, 20, 21}).ok);
  EXPECT_TRUE(std::isinf(tracker.current().lo));
  ASSERT_TRUE(tracker.Update(20, {19, 20, 21}).ok);
  // Freeze expired: the padded envelope returns.
  ASSERT_TRUE(tracker.Update(20, {19, 20, 21}).ok);
  EXPECT_FALSE(std::isinf(tracker.current().lo));
}

TEST(VariationRangeTest, RecoverToScratch) {
  VariationRangeTracker tracker(2.0);
  tracker.ConstrainUpper(5.0);
  ASSERT_TRUE(tracker.Update(4, {4}).ok);
  tracker.RecoverTo(-1, 0);
  EXPECT_EQ(tracker.num_batches(), 0);
  EXPECT_TRUE(tracker.current().IsUnbounded());
  // Constraints were cleared: large values pass again.
  EXPECT_TRUE(tracker.Update(100, {100}).ok);
}

TEST(VariationRangeTest, CurrentIntersectsConstraints) {
  VariationRangeTracker tracker(2.0);
  ASSERT_TRUE(tracker.Update(10.0, {8, 10, 12}).ok);
  tracker.ConstrainUpper(11.0);
  const Interval r = tracker.current();
  EXPECT_DOUBLE_EQ(r.hi, 11.0);
}

TEST(VariationRangeTest, ZeroSlackIsBareEnvelope) {
  VariationRangeTracker tracker(0.0);
  ASSERT_TRUE(tracker.Update(10.0, {8, 10, 12}).ok);
  EXPECT_DOUBLE_EQ(tracker.current().lo, 8.0);
  EXPECT_DOUBLE_EQ(tracker.current().hi, 12.0);
}

}  // namespace
}  // namespace iolap
