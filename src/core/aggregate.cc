#include "core/aggregate.h"

#include <cassert>
#include <cmath>

namespace iolap {

namespace {

// ------------------------------------------------- COUNT / SUM / AVG

// One (sum, count) pair per replica serves all three linear aggregates:
// field 0 is the weighted sum, field 1 the weighted count.
class SumCountAccumulator final
    : public WeightedSumsAccumulator<SumCountAccumulator, 2> {
 public:
  SumCountAccumulator(AggKind kind, int replicas)
      : WeightedSumsAccumulator(replicas), kind_(kind) {}

  static bool Prepare(double v, double* x) {
    *x = v;
    return true;
  }

  void Step(int r, double x, double weight) {
    field(1)[r] += weight;
    field(0)[r] += weight * x;
  }

  Value Result(int r, double scale) const override {
    const double count = field(1)[r];
    const double sum = field(0)[r];
    switch (kind_) {
      case AggKind::kCount:
        return Value::Double(scale * count);
      case AggKind::kSum:
        return count == 0.0 ? Value::Null() : Value::Double(scale * sum);
      default:  // kAvg
        return count == 0.0 ? Value::Null() : Value::Double(sum / count);
    }
  }

 private:
  AggKind kind_;
};

// ----------------------------------------------------------- MIN / MAX

class MinMaxAccumulator final : public AggAccumulator {
 public:
  MinMaxAccumulator(bool is_min, int replicas)
      : is_min_(is_min), best_(static_cast<size_t>(replicas)) {}

  void Add(int r, const Value& v, double weight) override {
    if (!v.is_null()) Step(r, v, weight);
  }

  void AddRange(const Value& v, double weight, const uint8_t* tw, int r0,
                int r1) override {
    if (v.is_null()) return;
    for (int r = r0; r < r1; ++r) {
      Step(r, v, tw != nullptr ? weight * tw[r - r0] : weight);
    }
  }

  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const MinMaxAccumulator&>(other);
    for (size_t r = 0; r < best_.size(); ++r) {
      Add(static_cast<int>(r), o.best_[r], 1.0);
    }
  }

  Value Result(int r, double) const override { return best_[r]; }

  std::unique_ptr<AggAccumulator> Clone() const override {
    return std::make_unique<MinMaxAccumulator>(*this);
  }

  size_t ByteSize() const override {
    size_t total = 0;
    for (const Value& best : best_) total += sizeof(Value) + best.ByteSize();
    return total;
  }

 private:
  // Zero and negative multiplicities leave the replica untouched.
  void Step(int r, const Value& v, double weight) {
    if (weight <= 0.0) return;
    Value& best = best_[r];
    if (best.is_null()) {
      best = v;
      return;
    }
    const int cmp = v.Compare(best);
    if ((is_min_ && cmp < 0) || (!is_min_ && cmp > 0)) best = v;
  }

  bool is_min_;
  std::vector<Value> best_;
};

// ------------------------------------------------------ VAR / STDDEV

// Fields: weight, weighted x, weighted x^2.
class MomentsAccumulator final
    : public WeightedSumsAccumulator<MomentsAccumulator, 3> {
 public:
  MomentsAccumulator(bool stddev, int replicas)
      : WeightedSumsAccumulator(replicas), stddev_(stddev) {}

  static bool Prepare(double v, double* x) {
    *x = v;
    return true;
  }

  void Step(int r, double x, double weight) {
    field(0)[r] += weight;
    field(1)[r] += weight * x;
    field(2)[r] += weight * x * x;
  }

  Value Result(int r, double) const override {
    const double w = field(0)[r];
    if (w <= 0.0) return Value::Null();
    const double mean = field(1)[r] / w;
    double var = field(2)[r] / w - mean * mean;
    if (var < 0.0) var = 0.0;  // numerical noise
    return Value::Double(stddev_ ? std::sqrt(var) : var);
  }

 private:
  bool stddev_;
};

// --------------------------------------------------- built-in factory

class BuiltinAggFunction final : public AggFunction {
 public:
  explicit BuiltinAggFunction(AggKind kind) : kind_(kind) {}

  std::string name() const override {
    switch (kind_) {
      case AggKind::kCount:
        return "count";
      case AggKind::kSum:
        return "sum";
      case AggKind::kAvg:
        return "avg";
      case AggKind::kMin:
        return "min";
      case AggKind::kMax:
        return "max";
      case AggKind::kVar:
        return "var";
      case AggKind::kStddev:
        return "stddev";
      default:
        return "?";
    }
  }

  ValueType ResultType(ValueType input) const override {
    if (kind_ == AggKind::kMin || kind_ == AggKind::kMax) return input;
    return ValueType::kDouble;
  }

  bool ScalesLinearly() const override {
    return kind_ == AggKind::kCount || kind_ == AggKind::kSum;
  }

  bool SupportsSampling() const override {
    // MIN/MAX are not Hadamard differentiable (§3.3).
    return kind_ != AggKind::kMin && kind_ != AggKind::kMax;
  }

  std::unique_ptr<AggAccumulator> NewAccumulator(
      int replicas) const override {
    switch (kind_) {
      case AggKind::kCount:
      case AggKind::kSum:
      case AggKind::kAvg:
        return std::make_unique<SumCountAccumulator>(kind_, replicas);
      case AggKind::kMin:
        return std::make_unique<MinMaxAccumulator>(/*is_min=*/true, replicas);
      case AggKind::kMax:
        return std::make_unique<MinMaxAccumulator>(/*is_min=*/false,
                                                   replicas);
      case AggKind::kVar:
        return std::make_unique<MomentsAccumulator>(/*stddev=*/false,
                                                    replicas);
      case AggKind::kStddev:
        return std::make_unique<MomentsAccumulator>(/*stddev=*/true,
                                                    replicas);
      default:
        assert(false && "kUdaf has no built-in accumulator");
        return nullptr;
    }
  }

 private:
  AggKind kind_;
};

}  // namespace

std::shared_ptr<const AggFunction> MakeBuiltinAggFunction(AggKind kind) {
  assert(kind != AggKind::kUdaf);
  return std::make_shared<BuiltinAggFunction>(kind);
}

AggKind AggKindFromName(const std::string& name) {
  if (name == "count") return AggKind::kCount;
  if (name == "sum") return AggKind::kSum;
  if (name == "avg") return AggKind::kAvg;
  if (name == "min") return AggKind::kMin;
  if (name == "max") return AggKind::kMax;
  if (name == "var" || name == "variance") return AggKind::kVar;
  if (name == "stddev" || name == "std") return AggKind::kStddev;
  return AggKind::kUdaf;
}

}  // namespace iolap
