#ifndef IOLAP_BOOTSTRAP_POISSON_MULTIPLICITIES_H_
#define IOLAP_BOOTSTRAP_POISSON_MULTIPLICITIES_H_

#include <cstdint>

namespace iolap {

/// Poissonized bootstrap multiplicities (§2, §7 step 2; Agarwal et al. [8]).
///
/// Each bootstrap trial re-weights every tuple of the streamed relation with
/// an i.i.d. Poisson(1) multiplicity, which approximates resampling-with-
/// replacement without materializing resamples. The weight of row `uid` in
/// trial `t` is a pure function of (seed, uid, t): re-processing a tuple
/// during a delta update or a failure recovery sees exactly the weights the
/// first pass saw, which the correctness argument of Theorem 1 relies on.
class BootstrapWeights {
 public:
  BootstrapWeights(uint64_t seed, int num_trials)
      : stream_(seed ^ 0xb0075742u), num_trials_(num_trials) {}

  int num_trials() const { return num_trials_; }

  /// Poisson(1) multiplicity of streamed row `uid` in trial `t`.
  int WeightAt(uint64_t uid, int trial) const;

  /// Packs row `uid`'s multiplicities for every trial: out[t] =
  /// WeightAt(uid, t) for t in [0, num_trials), drawn through the
  /// PoissonOneByTable lookup. The engine fills this once per streamed row
  /// and every aggregate and trial of the row reads it.
  void Fill(uint64_t uid, uint8_t* out) const;

  /// Approximate extra bytes the bootstrap multiplicity columns add to one
  /// shuffled row (one byte per trial), for the data-shipped cost model.
  uint64_t RowOverheadBytes() const { return static_cast<uint64_t>(num_trials_); }

 private:
  uint64_t stream_;
  int num_trials_;
};

}  // namespace iolap

#endif  // IOLAP_BOOTSTRAP_POISSON_MULTIPLICITIES_H_
