#ifndef IOLAP_CORE_AGGREGATE_H_
#define IOLAP_CORE_AGGREGATE_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/value.h"

namespace iolap {

/// Built-in aggregate kinds. kUdaf marks user-defined aggregates resolved
/// through the FunctionRegistry.
enum class AggKind {
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kVar,
  kStddev,
  kUdaf,
};

/// Incremental state of one aggregate over one group, replicated R times.
/// Accumulators are the "sketch states" of the paper (§4.2): an AGGREGATE
/// operator keeps one accumulator per group instead of the input tuples, so
/// its state is sub-linear in the data. Replica 0 is the main evaluation and
/// replica 1 + t is bootstrap trial t (§7, Appendix C); the reference
/// evaluator uses R = 1. Each kind stores its replicas as struct-of-arrays
/// and writes its per-replica step once: single adds and range folds share
/// it, so every replica sees the same arithmetic whichever path fed it.
///
/// `weight` carries tuple multiplicity: 1 for a plainly seen tuple, the
/// Poisson trial multiplicity in bootstrap trials, fractional values after
/// multiplicity-scaling joins. NULL inputs are ignored (SQL semantics).
class AggAccumulator {
 public:
  virtual ~AggAccumulator() = default;

  /// Folds one input value into replica `r` with multiplicity `weight`.
  virtual void Add(int r, const Value& v, double weight) = 0;

  /// Folds one input value into replicas [r0, r1): replica r0 + i gets
  /// multiplicity weight * tw[i], or `weight` when `tw` is null. Replicas
  /// whose multiplicity is zero are left untouched (the tuple is absent
  /// from that resample). Bit-identical to Add on each replica in turn.
  virtual void AddRange(const Value& v, double weight, const uint8_t* tw,
                        int r0, int r1) = 0;

  /// Folds per-replica numeric values into replicas [r0, r1): replica
  /// r0 + i gets `v[i]` with multiplicity weight * tw[i]. Zero
  /// multiplicities are skipped. Bit-identical to Add(r0 + i,
  /// v[i].ToValue(), weight * tw[i]) for each nonzero multiplicity in
  /// turn, which is what this default does; the weighted-sum kinds fold
  /// the unboxed doubles directly.
  virtual void AddLanes(const NumericValue* v, double weight,
                        const uint8_t* tw, int r0, int r1) {
    for (int r = r0; r < r1; ++r) {
      const double w = weight * tw[r - r0];
      if (w != 0.0) Add(r, v[r - r0].ToValue(), w);
    }
  }

  /// Folds another accumulator of the same dynamic type and replica count,
  /// replica by replica (partial-aggregate merge).
  virtual void Merge(const AggAccumulator& other) = 0;

  /// Replica `r`'s current result, with tuple multiplicities scaled by
  /// `scale` (= |D| / |D_i|, the paper's m_i). Scale affects magnitude
  /// aggregates (COUNT, SUM) and cancels out of ratio aggregates (AVG,
  /// GEOMEAN, ...).
  virtual Value Result(int r, double scale) const = 0;

  /// Deep copy: the copy-on-write clone of a checkpointed sketch cell
  /// (failure recovery, §5.1) and the sketch ⊎ scratch merge at publish.
  virtual std::unique_ptr<AggAccumulator> Clone() const = 0;

  /// Approximate state footprint for the memory-utilization experiments:
  /// the sum of the per-replica footprints.
  virtual size_t ByteSize() const = 0;
};

/// Shared body of the kinds whose per-replica state is `kFields` weighted
/// sums (COUNT/SUM/AVG, VAR/STDDEV and the smooth UDAFs). Field k of
/// replica r lives at sums_[k * R + r]. NULL inputs are skipped here;
/// every other input reaches the kind as its AsDouble(). `Derived`
/// supplies
///   static bool Prepare(double v, double* x);
/// which rejects inputs the aggregate skips and hoists the per-input term
/// (x, log x, ...) out of the replica loop, and
///   void Step(int r, double x, double weight);
/// the per-replica fold. Merge is field-wise addition.
template <typename Derived, int kFields>
class WeightedSumsAccumulator : public AggAccumulator {
 public:
  void Add(int r, const Value& v, double weight) final {
    double x;
    if (!v.is_null() && Derived::Prepare(v.AsDouble(), &x)) {
      self().Step(r, x, weight);
    }
  }

  void AddRange(const Value& v, double weight, const uint8_t* tw, int r0,
                int r1) final {
    double x;
    if (v.is_null() || !Derived::Prepare(v.AsDouble(), &x)) return;
    Derived& d = self();
    if (tw == nullptr) {
      if (weight == 0.0) return;
      for (int r = r0; r < r1; ++r) d.Step(r, x, weight);
    } else if (std::isfinite(x)) {
      // A zero multiplicity folds exact zeros: the sums start at +0 and
      // never become -0, so adding ±0 leaves their bits unchanged and the
      // loop needs no branch. (0 * inf is NaN, hence the finite guard.)
      for (int r = r0; r < r1; ++r) d.Step(r, x, weight * tw[r - r0]);
    } else {
      for (int r = r0; r < r1; ++r) {
        const double w = weight * tw[r - r0];
        if (w != 0.0) d.Step(r, x, w);
      }
    }
  }

  void AddLanes(const NumericValue* v, double weight, const uint8_t* tw,
                int r0, int r1) final {
    Derived& d = self();
    for (int r = r0; r < r1; ++r) {
      const NumericValue& in = v[r - r0];
      const double w = weight * tw[r - r0];
      double x;
      if (w != 0.0 && !in.is_null() && Derived::Prepare(in.f64, &x)) {
        d.Step(r, x, w);
      }
    }
  }

  void Merge(const AggAccumulator& other) final {
    const auto& o = static_cast<const WeightedSumsAccumulator&>(other);
    for (size_t i = 0; i < sums_.size(); ++i) sums_[i] += o.sums_[i];
  }

  std::unique_ptr<AggAccumulator> Clone() const final {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }

  size_t ByteSize() const final { return sums_.size() * sizeof(double); }

 protected:
  explicit WeightedSumsAccumulator(int replicas)
      : replicas_(static_cast<size_t>(replicas)),
        sums_(kFields * replicas_, 0.0) {}

  double* field(int k) { return sums_.data() + k * replicas_; }
  const double* field(int k) const { return sums_.data() + k * replicas_; }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  size_t replicas_;
  std::vector<double> sums_;
};

/// Immutable descriptor + factory for an aggregate function. Shared between
/// the plan (type checking) and the executor (accumulator creation).
class AggFunction {
 public:
  virtual ~AggFunction() = default;

  /// Lower-case SQL name ("sum", "geomean", ...).
  virtual std::string name() const = 0;

  /// Result type for a given input type.
  virtual ValueType ResultType(ValueType input) const = 0;

  /// How the result depends on the multiplicity scale m_i = |D|/|D_i|:
  /// linear (SUM, COUNT: result ∝ scale) or invariant (ratio aggregates —
  /// AVG, VAR, UDAF means: scale cancels). Every supported aggregate is
  /// one of the two, which lets the engine store unscaled sketch results
  /// and re-scale lazily instead of re-publishing untouched groups each
  /// batch.
  virtual bool ScalesLinearly() const { return false; }

  /// Whether the aggregate is smooth (Hadamard differentiable) under
  /// sampling, i.e., whether running results converge and bootstrap error
  /// estimation applies (§3.3). MIN/MAX are not; the binder rejects them
  /// over streamed relations.
  virtual bool SupportsSampling() const = 0;

  /// A fresh accumulator with `replicas` replicas (1 + number of trials).
  virtual std::unique_ptr<AggAccumulator> NewAccumulator(
      int replicas) const = 0;
};

/// Built-in aggregate for `kind` (anything but kUdaf).
std::shared_ptr<const AggFunction> MakeBuiltinAggFunction(AggKind kind);

/// Maps a lower-case SQL aggregate name to a built-in kind; kUdaf if the
/// name is not a built-in (the binder then consults the FunctionRegistry).
AggKind AggKindFromName(const std::string& name);

}  // namespace iolap

#endif  // IOLAP_CORE_AGGREGATE_H_
