#include "bootstrap/poisson_multiplicities.h"

#include "common/random.h"

namespace iolap {

int BootstrapWeights::WeightAt(uint64_t uid, int trial) const {
  return PoissonOneAt(stream_, uid * static_cast<uint64_t>(num_trials_) +
                                   static_cast<uint64_t>(trial));
}

void BootstrapWeights::Fill(uint64_t uid, uint8_t* out) const {
  const uint64_t base = uid * static_cast<uint64_t>(num_trials_);
  for (int t = 0; t < num_trials_; ++t) {
    out[t] = static_cast<uint8_t>(PoissonOneByTable(
        Mix64(HashCombine(stream_, base + static_cast<uint64_t>(t)))));
  }
}

}  // namespace iolap
