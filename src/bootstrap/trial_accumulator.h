#ifndef IOLAP_BOOTSTRAP_TRIAL_ACCUMULATOR_H_
#define IOLAP_BOOTSTRAP_TRIAL_ACCUMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/aggregate.h"
#include "core/value.h"

namespace iolap {

/// The sketch state of one aggregate over one group, replicated across
/// bootstrap trials: one AggAccumulator holding 1 + `num_trials` replicas,
/// replica 0 the main evaluation (plain multiplicities) and replica 1 + t
/// trial t (Poisson multiplicities). This is the runtime form of the
/// paper's "all uncertain attributes are duplicated to multiple instances,
/// one per bootstrap trial" (§7/Appendix C), compressed into sub-linear
/// sketches per §4.2.
class TrialAccumulatorSet {
 public:
  TrialAccumulatorSet(const AggFunction& fn, int num_trials);

  int num_trials() const { return num_trials_; }

  /// Folds into the main replica only.
  void AddMainOnly(const Value& v, double weight);

  /// Folds `v` into trials [t0, t1): trial t with multiplicity
  /// weight * tw[t], or `weight` when `tw` is null (non-streamed rows).
  /// `tw` holds the row's packed multiplicities for every trial
  /// (BootstrapWeights::Fill). Zero multiplicities are skipped.
  void AddTrials(const Value& v, double weight, const uint8_t* tw, int t0,
                 int t1);

  /// Folds per-trial values into trials [t0, t1): trial t gets `v[t]`
  /// with multiplicity weight * tw[t]; zero multiplicities are skipped.
  /// Used for non-deterministic rows whose filter decision and argument
  /// values differ per bootstrap trial (§5): the delta engine evaluates them
  /// lane by lane and masks the trials a row does not survive to 0.
  /// Bit-identical to AddTrialOnly per trial.
  void AddTrialLanes(const NumericValue* v, double weight, const uint8_t* tw,
                     int t0, int t1);

  /// Folds into one trial replica only (skipped when `weight` is 0): the
  /// per-trial form of AddTrialLanes, for values that are not numeric.
  void AddTrialOnly(int trial, const Value& v, double weight);

  void Merge(const TrialAccumulatorSet& other);

  Value MainResult(double scale) const;
  /// Numeric trial replicas (NULL trials surface as the main value, so a
  /// group that is empty in some resample does not poison the envelope).
  std::vector<double> TrialResults(double scale) const;

  TrialAccumulatorSet Clone() const;
  size_t ByteSize() const;

  /// Input moments of the main contributions (weighted count, mean,
  /// variance), maintained alongside the accumulators for the closed-form
  /// (analytic) error estimator — the paper's §9 pointer to analytical
  /// bootstrap [39] as a drop-in replacement for simulation.
  double moment_count() const { return m_n_; }
  double moment_mean() const { return m_n_ > 0 ? m_sum_ / m_n_ : 0.0; }
  double moment_variance() const;

 private:
  TrialAccumulatorSet() = default;

  std::unique_ptr<AggAccumulator> acc_;
  int num_trials_ = 0;
  double m_n_ = 0.0;
  double m_sum_ = 0.0;
  double m_sumsq_ = 0.0;
};

}  // namespace iolap

#endif  // IOLAP_BOOTSTRAP_TRIAL_ACCUMULATOR_H_
