#include "bootstrap/trial_accumulator.h"

namespace iolap {

TrialAccumulatorSet::TrialAccumulatorSet(const AggFunction& fn,
                                         int num_trials)
    : acc_(fn.NewAccumulator(1 + num_trials)), num_trials_(num_trials) {}

double TrialAccumulatorSet::moment_variance() const {
  if (m_n_ <= 1.0) return 0.0;
  const double mean = m_sum_ / m_n_;
  const double var = m_sumsq_ / m_n_ - mean * mean;
  return var < 0.0 ? 0.0 : var;
}

void TrialAccumulatorSet::AddMainOnly(const Value& v, double weight) {
  acc_->Add(0, v, weight);
  if (v.is_null() || !v.is_numeric()) return;
  const double x = v.AsDouble();
  m_n_ += weight;
  m_sum_ += weight * x;
  m_sumsq_ += weight * x * x;
}

void TrialAccumulatorSet::AddTrials(const Value& v, double weight,
                                    const uint8_t* tw, int t0, int t1) {
  acc_->AddRange(v, weight, tw != nullptr ? tw + t0 : nullptr, 1 + t0,
                 1 + t1);
}

void TrialAccumulatorSet::AddTrialOnly(int trial, const Value& v,
                                       double weight) {
  if (weight != 0.0) acc_->Add(1 + trial, v, weight);
}

void TrialAccumulatorSet::Merge(const TrialAccumulatorSet& other) {
  acc_->Merge(*other.acc_);
  m_n_ += other.m_n_;
  m_sum_ += other.m_sum_;
  m_sumsq_ += other.m_sumsq_;
}

Value TrialAccumulatorSet::MainResult(double scale) const {
  return acc_->Result(0, scale);
}

std::vector<double> TrialAccumulatorSet::TrialResults(double scale) const {
  const Value main = acc_->Result(0, scale);
  const double fallback = main.is_null() ? 0.0 : main.AsDouble();
  std::vector<double> out(static_cast<size_t>(num_trials_));
  for (int t = 0; t < num_trials_; ++t) {
    const Value v = acc_->Result(1 + t, scale);
    out[t] = v.is_null() ? fallback : v.AsDouble();
  }
  return out;
}

TrialAccumulatorSet TrialAccumulatorSet::Clone() const {
  TrialAccumulatorSet copy;
  copy.acc_ = acc_->Clone();
  copy.num_trials_ = num_trials_;
  copy.m_n_ = m_n_;
  copy.m_sum_ = m_sum_;
  copy.m_sumsq_ = m_sumsq_;
  return copy;
}

size_t TrialAccumulatorSet::ByteSize() const { return acc_->ByteSize(); }

}  // namespace iolap
