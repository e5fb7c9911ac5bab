#include "bootstrap/error_estimate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace iolap {

std::string ErrorEstimate::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.6g ± %.3g (95%% CI [%.6g, %.6g])", value,
                2 * stddev, ci_lo, ci_hi);
  return buf;
}

namespace {

/// The total order percentiles are taken in: -inf < finite < +inf < NaN.
/// Plain `<` is no strict weak ordering once a replica is NaN (SUM over
/// +inf and -inf inputs), which std::sort requires.
bool NanLast(double a, double b) {
  return a < b || (std::isnan(b) && !std::isnan(a));
}

/// Linear-interpolation percentile p of n sorted values: the value at rank
/// lo weighted (1 - frac) plus the value at rank hi weighted frac.
struct PercentileRanks {
  size_t lo;
  size_t hi;
  double frac;
};

PercentileRanks RanksOf(double p, size_t n) {
  const double pos = p * (n - 1);
  const size_t lo = static_cast<size_t>(pos);
  return {lo, std::min(lo + 1, n - 1), pos - lo};
}

double Interpolate(double at_lo, double at_hi, double frac) {
  return at_lo * (1.0 - frac) + at_hi * frac;
}

/// Largest selection kept in insertion-sorted buffers; beyond it (about
/// 600 replicas) nth_element wins.
constexpr size_t kMaxBufferedRanks = 16;

/// Inserts `x` into `buf`, which holds the `*count` (at most `cap`) values
/// that come first under `before`, in that order.
template <typename Before>
void KeepFirst(double x, double* buf, size_t* count, size_t cap,
               Before before) {
  size_t i = *count;
  if (i == cap) {
    if (!before(x, buf[cap - 1])) return;
    --i;
  } else {
    ++*count;
  }
  for (; i > 0 && before(x, buf[i - 1]); --i) buf[i] = buf[i - 1];
  buf[i] = x;
}

/// Sets ci_lo / ci_hi to the 2.5 / 97.5 percentiles of `trials` (n >= 2)
/// without sorting: one pass keeps the few smallest and largest replicas
/// the two percentiles read.
void PercentileInterval(const std::vector<double>& trials, ErrorEstimate* est) {
  const size_t n = trials.size();
  const PercentileRanks low = RanksOf(0.025, n);
  const PercentileRanks high = RanksOf(0.975, n);
  const size_t num_small = low.hi + 1;  // ranks 0 .. low.hi
  const size_t num_large = n - high.lo;  // ranks high.lo .. n - 1
  if (std::max(num_small, num_large) <= kMaxBufferedRanks) {
    double small[kMaxBufferedRanks];
    double large[kMaxBufferedRanks];  // large[j] holds rank n - 1 - j
    size_t small_count = 0;
    size_t large_count = 0;
    const auto after = [](double a, double b) { return NanLast(b, a); };
    for (double x : trials) {
      KeepFirst(x, small, &small_count, num_small, NanLast);
      KeepFirst(x, large, &large_count, num_large, after);
    }
    est->ci_lo = Interpolate(small[low.lo], small[low.hi], low.frac);
    est->ci_hi = Interpolate(large[n - 1 - high.lo], large[n - 1 - high.hi],
                             high.frac);
    return;
  }
  std::vector<double> v = trials;
  const auto rank = [&v](size_t r) {
    std::nth_element(v.begin(), v.begin() + r, v.end(), NanLast);
    return v[r];
  };
  // After nth_element(r), rank r + 1 is the least element past r.
  const auto next_rank = [&v](size_t r) {
    return *std::min_element(v.begin() + r + 1, v.end(), NanLast);
  };
  const double low_lo = rank(low.lo);
  const double low_hi = low.hi == low.lo ? low_lo : next_rank(low.lo);
  const double high_lo = rank(high.lo);
  const double high_hi = high.hi == high.lo ? high_lo : next_rank(high.lo);
  est->ci_lo = Interpolate(low_lo, low_hi, low.frac);
  est->ci_hi = Interpolate(high_lo, high_hi, high.frac);
}

}  // namespace

ErrorEstimate EstimateError(double value, const std::vector<double>& trials) {
  ErrorEstimate est;
  est.value = value;
  est.ci_lo = value;
  est.ci_hi = value;
  if (trials.size() < 2) return est;

  double sum = 0.0;
  for (double t : trials) sum += t;
  const double mean = sum / trials.size();
  double ss = 0.0;
  for (double t : trials) ss += (t - mean) * (t - mean);
  est.stddev = std::sqrt(ss / (trials.size() - 1));
  est.rel_stddev = value != 0.0 ? est.stddev / std::fabs(value) : est.stddev;

  PercentileInterval(trials, &est);
  return est;
}

double AnalyticUnscaledStddev(const std::string& agg_name, double n,
                              double variance) {
  if (n <= 0.0) return 0.0;
  if (agg_name == "sum") return std::sqrt(n * variance);
  if (agg_name == "count") return std::sqrt(n);
  if (agg_name == "avg") return n > 1.0 ? std::sqrt(variance / n) : 0.0;
  return -1.0;
}

ErrorEstimate EstimateFromStddev(double value, double stddev) {
  ErrorEstimate est;
  est.value = value;
  est.stddev = stddev < 0.0 ? 0.0 : stddev;
  est.rel_stddev = value != 0.0 ? est.stddev / std::fabs(value) : est.stddev;
  est.ci_lo = value - 1.96 * est.stddev;
  est.ci_hi = value + 1.96 * est.stddev;
  return est;
}

ErrorEstimate AnalyticEstimate(double value, double sample_variance,
                               double sample_count) {
  ErrorEstimate est;
  est.value = value;
  est.ci_lo = value;
  est.ci_hi = value;
  if (sample_count <= 1.0 || sample_variance < 0.0) return est;
  est.stddev = std::sqrt(sample_variance / sample_count);
  est.rel_stddev = value != 0.0 ? est.stddev / std::fabs(value) : est.stddev;
  est.ci_lo = value - 1.96 * est.stddev;
  est.ci_hi = value + 1.96 * est.stddev;
  return est;
}

}  // namespace iolap
