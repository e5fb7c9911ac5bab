#ifndef IOLAP_COMMON_RANDOM_H_
#define IOLAP_COMMON_RANDOM_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/hash.h"

namespace iolap {

/// Deterministic xoshiro256**-based pseudo-random generator. Every use of
/// randomness in the library (data generation, batch shuffling, bootstrap
/// multiplicities) goes through this type so runs are reproducible from a
/// single seed.
class Rng {
 public:
  /// Seeds the four lanes from a single 64-bit seed via SplitMix64.
  explicit Rng(uint64_t seed);

  /// Deterministic per-lane split: the generator worker thread `lane`
  /// (0-based) uses when a parallel phase needs local randomness. The
  /// stream is a pure function of (seed, lane) — SplitMix64 over
  /// seed ^ lane — so results do not depend on which OS thread executes
  /// which lane, nor on the thread count of lanes that draw nothing.
  static Rng ForLane(uint64_t seed, uint64_t lane);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform in [0, bound). Returns 0 when bound <= 1 (a bound of 0 would
  /// otherwise hit `% 0`). Uses rejection sampling to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Exponential with rate `lambda`.
  double NextExponential(double lambda);

  /// Zipf-distributed integer in [0, n) with exponent `s` (s = 0 is
  /// uniform). Uses the rejection-inversion method of Hörmann (adequate for
  /// the skewed key distributions of the synthetic workloads).
  uint64_t NextZipf(uint64_t n, double s);

  /// Poisson with small mean (Knuth's algorithm; used with mean 1 for the
  /// poissonized bootstrap).
  int NextPoisson(double mean);

 private:
  uint64_t state_[4];
};

/// CDF of Poisson(1) at k = 0..8.
inline constexpr double kPoissonOneCdf[9] = {
    0.36787944117144233, 0.7357588823428847, 0.9196986029286058,
    0.9810118431238462,  0.9963401531726563, 0.9994058151824183,
    0.9999167588507119,  0.9999897508033253, 0.9999988747974020,
};

/// ceil(x) for 0 <= x < 2^53.
constexpr uint64_t CeilToUint64(double x) {
  const auto floor = static_cast<uint64_t>(x);
  return static_cast<double>(floor) < x ? floor + 1 : floor;
}

/// Threshold k is ceil(CDF(k) * 2^53). CDF(k) * 2^53 is exact in double,
/// so for a 53-bit integer u, `u >= threshold` decides exactly what
/// `u * 2^-53 >= CDF(k)` decides in double arithmetic.
inline constexpr uint64_t kPoissonOneThresholds[9] = {
    CeilToUint64(kPoissonOneCdf[0] * 0x1.0p53),
    CeilToUint64(kPoissonOneCdf[1] * 0x1.0p53),
    CeilToUint64(kPoissonOneCdf[2] * 0x1.0p53),
    CeilToUint64(kPoissonOneCdf[3] * 0x1.0p53),
    CeilToUint64(kPoissonOneCdf[4] * 0x1.0p53),
    CeilToUint64(kPoissonOneCdf[5] * 0x1.0p53),
    CeilToUint64(kPoissonOneCdf[6] * 0x1.0p53),
    CeilToUint64(kPoissonOneCdf[7] * 0x1.0p53),
    CeilToUint64(kPoissonOneCdf[8] * 0x1.0p53),
};

/// Poisson(1) draw by inverse CDF on the top 53 bits of a 64-bit hash,
/// done as integer compares against kPoissonOneThresholds. k >= 9 has
/// probability < 1e-6 and is folded into 9; the bias is far below
/// bootstrap noise.
inline int PoissonOneOfHash(uint64_t hash) {
  const uint64_t bits = hash >> 11;
  int k = 0;
  for (uint64_t threshold : kPoissonOneThresholds) k += bits >= threshold;
  return k;
}

/// PoissonOneOfHash by table lookup on the top kPoissonTableBits of the
/// hash. Bucket b covers the 53-bit values [b << 41, (b + 1) << 41); its
/// entry is the draw all of them map to, or kPoissonStraddle for the
/// buckets a threshold falls inside (the last three thresholds share one
/// bucket, so 7 of the 4096 straddle).
inline constexpr int kPoissonTableBits = 12;
inline constexpr uint8_t kPoissonStraddle = 0xff;

constexpr std::array<uint8_t, size_t{1} << kPoissonTableBits>
MakePoissonOneTable() {
  std::array<uint8_t, size_t{1} << kPoissonTableBits> table{};
  constexpr int kBucketShift = 53 - kPoissonTableBits;
  const auto draw = [](uint64_t bits) {
    uint8_t k = 0;
    for (uint64_t threshold : kPoissonOneThresholds) k += bits >= threshold;
    return k;
  };
  for (uint64_t b = 0; b < table.size(); ++b) {
    const uint64_t first = b << kBucketShift;
    const uint64_t last = first | ((uint64_t{1} << kBucketShift) - 1);
    table[b] = draw(first) == draw(last) ? draw(first) : kPoissonStraddle;
  }
  return table;
}

inline constexpr auto kPoissonOneTable = MakePoissonOneTable();

/// Same result as PoissonOneOfHash(hash) for every hash.
inline int PoissonOneByTable(uint64_t hash) {
  const uint8_t k = kPoissonOneTable[hash >> (64 - kPoissonTableBits)];
  return k != kPoissonStraddle ? k : PoissonOneOfHash(hash);
}

/// Stateless Poisson(1) draw keyed by (stream, index). The poissonized
/// bootstrap needs the multiplicity of row r in trial t to be a pure
/// function of (r, t) so that re-processing a tuple (delta updates, failure
/// recovery) sees the same multiplicities the first pass saw.
inline int PoissonOneAt(uint64_t stream, uint64_t index) {
  return PoissonOneOfHash(Mix64(HashCombine(stream, index)));
}

}  // namespace iolap

#endif  // IOLAP_COMMON_RANDOM_H_
