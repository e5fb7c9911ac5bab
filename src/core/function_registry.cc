#include "core/function_registry.h"

#include <algorithm>
#include <cmath>

#include "core/aggregate.h"

namespace iolap {

namespace {

ValueType DoubleType(const std::vector<ValueType>&) {
  return ValueType::kDouble;
}
ValueType Int64Type(const std::vector<ValueType>&) { return ValueType::kInt64; }
ValueType StringType(const std::vector<ValueType>&) {
  return ValueType::kString;
}
ValueType FirstArgType(const std::vector<ValueType>& args) {
  return args.empty() ? ValueType::kNull : args[0];
}

bool AnyNull(const std::vector<Value>& args) {
  return std::any_of(args.begin(), args.end(),
                     [](const Value& v) { return v.is_null(); });
}

bool AnyNullNum(const NumericValue* args, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (args[i].is_null()) return true;
  }
  return false;
}

// Value::Compare restricted to numerics (both operands numeric or NULL-free
// here): compares through AsDouble, exactly like the boxed path.
int CompareNum(const NumericValue& a, const NumericValue& b) {
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

// ------------------------------- built-in smooth UDAF implementations

// GEOMEAN(x) = exp(weighted mean of log x); non-positive inputs skipped.
// Fields: weight, weighted log x. log x is computed once per input.
class GeomeanAccumulator final
    : public WeightedSumsAccumulator<GeomeanAccumulator, 2> {
 public:
  explicit GeomeanAccumulator(int replicas)
      : WeightedSumsAccumulator(replicas) {}
  static bool Prepare(double x, double* log_x) {
    if (x <= 0.0) return false;
    *log_x = std::log(x);
    return true;
  }
  void Step(int r, double log_x, double weight) {
    field(0)[r] += weight;
    field(1)[r] += weight * log_x;
  }
  Value Result(int r, double) const override {
    const double w = field(0)[r];
    return w <= 0.0 ? Value::Null() : Value::Double(std::exp(field(1)[r] / w));
  }
};

// HARMONIC_MEAN(x) = W / sum(w/x); non-positive inputs skipped.
// Fields: weight, weighted 1/x. The step keeps the division w / x: the
// product w * (1/x) would round differently.
class HarmonicAccumulator final
    : public WeightedSumsAccumulator<HarmonicAccumulator, 2> {
 public:
  explicit HarmonicAccumulator(int replicas)
      : WeightedSumsAccumulator(replicas) {}
  static bool Prepare(double v, double* x) {
    *x = v;
    return !(v <= 0.0);  // NaN inputs are folded, not skipped
  }
  void Step(int r, double x, double weight) {
    field(0)[r] += weight;
    field(1)[r] += weight / x;
  }
  Value Result(int r, double) const override {
    const double winv = field(1)[r];
    return winv <= 0.0 ? Value::Null() : Value::Double(field(0)[r] / winv);
  }
};

// RMS(x) = sqrt(weighted mean of x^2). Fields: weight, weighted x^2.
class RmsAccumulator final
    : public WeightedSumsAccumulator<RmsAccumulator, 2> {
 public:
  explicit RmsAccumulator(int replicas) : WeightedSumsAccumulator(replicas) {}
  static bool Prepare(double v, double* x) {
    *x = v;
    return true;
  }
  void Step(int r, double x, double weight) {
    field(0)[r] += weight;
    field(1)[r] += weight * x * x;
  }
  Value Result(int r, double) const override {
    const double w = field(0)[r];
    return w <= 0.0 ? Value::Null() : Value::Double(std::sqrt(field(1)[r] / w));
  }
};

template <typename Accumulator>
class SmoothUdaf final : public AggFunction {
 public:
  explicit SmoothUdaf(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  ValueType ResultType(ValueType) const override { return ValueType::kDouble; }
  bool SupportsSampling() const override { return true; }
  std::unique_ptr<AggAccumulator> NewAccumulator(
      int replicas) const override {
    return std::make_unique<Accumulator>(replicas);
  }

 private:
  std::string name_;
};

}  // namespace

void FunctionRegistry::RegisterScalar(ScalarFunction fn) {
  scalars_[fn.name] = std::move(fn);
}

void FunctionRegistry::RegisterAggregate(
    const std::string& name, std::shared_ptr<const AggFunction> agg) {
  aggregates_[name] = std::move(agg);
}

Result<const ScalarFunction*> FunctionRegistry::FindScalar(
    const std::string& name) const {
  auto it = scalars_.find(name);
  if (it == scalars_.end()) {
    return Status::NotFound("unknown scalar function: " + name);
  }
  return &it->second;
}

Result<std::shared_ptr<const AggFunction>> FunctionRegistry::FindAggregate(
    const std::string& name) const {
  auto it = aggregates_.find(name);
  if (it == aggregates_.end()) {
    return Status::NotFound("unknown aggregate function: " + name);
  }
  return it->second;
}

bool FunctionRegistry::HasScalar(const std::string& name) const {
  return scalars_.count(name) > 0;
}

bool FunctionRegistry::HasAggregate(const std::string& name) const {
  return aggregates_.count(name) > 0;
}

std::shared_ptr<FunctionRegistry> FunctionRegistry::Default() {
  auto registry = std::make_shared<FunctionRegistry>();

  auto unary_math = [&](const std::string& name, double (*fn)(double),
                        bool monotone) {
    registry->RegisterScalar(
        {name, 1, DoubleType,
         [fn](const std::vector<Value>& args) -> Value {
           if (AnyNull(args)) return Value::Null();
           return Value::Double(fn(args[0].AsDouble()));
         },
         monotone,
         [fn](const NumericValue* args, size_t n) -> NumericValue {
           if (AnyNullNum(args, n)) return NumericValue::Null();
           return NumericValue::Dbl(fn(args[0].AsDouble()));
         }});
  };
  unary_math("abs", [](double x) { return std::fabs(x); }, false);
  unary_math("sqrt", [](double x) { return x < 0 ? 0.0 : std::sqrt(x); }, true);
  unary_math("log", [](double x) { return x <= 0 ? 0.0 : std::log(x); }, true);
  unary_math("exp", [](double x) { return std::exp(x); }, true);
  unary_math("floor", [](double x) { return std::floor(x); }, true);
  unary_math("ceil", [](double x) { return std::ceil(x); }, true);
  unary_math("round", [](double x) { return std::round(x); }, true);

  registry->RegisterScalar(
      {"pow", 2, DoubleType,
       [](const std::vector<Value>& args) -> Value {
         if (AnyNull(args)) return Value::Null();
         return Value::Double(std::pow(args[0].AsDouble(), args[1].AsDouble()));
       },
       false,
       [](const NumericValue* args, size_t n) -> NumericValue {
         if (AnyNullNum(args, n)) return NumericValue::Null();
         return NumericValue::Dbl(std::pow(args[0].AsDouble(),
                                           args[1].AsDouble()));
       }});
  registry->RegisterScalar(
      {"mod", 2, Int64Type,
       [](const std::vector<Value>& args) -> Value {
         if (AnyNull(args)) return Value::Null();
         const int64_t d = static_cast<int64_t>(args[1].AsDouble());
         if (d == 0) return Value::Null();
         return Value::Int64(static_cast<int64_t>(args[0].AsDouble()) % d);
       },
       false,
       [](const NumericValue* args, size_t n) -> NumericValue {
         if (AnyNullNum(args, n)) return NumericValue::Null();
         const int64_t d = static_cast<int64_t>(args[1].AsDouble());
         if (d == 0) return NumericValue::Null();
         return NumericValue::Int(static_cast<int64_t>(args[0].AsDouble()) % d);
       }});
  registry->RegisterScalar(
      {"least", -1, FirstArgType,
       [](const std::vector<Value>& args) -> Value {
         Value best;
         for (const Value& v : args) {
           if (v.is_null()) continue;
           if (best.is_null() || v.Compare(best) < 0) best = v;
         }
         return best;
       },
       false,
       [](const NumericValue* args, size_t n) -> NumericValue {
         NumericValue best;
         for (size_t i = 0; i < n; ++i) {
           if (args[i].is_null()) continue;
           if (best.is_null() || CompareNum(args[i], best) < 0) best = args[i];
         }
         return best;
       }});
  registry->RegisterScalar(
      {"greatest", -1, FirstArgType,
       [](const std::vector<Value>& args) -> Value {
         Value best;
         for (const Value& v : args) {
           if (v.is_null()) continue;
           if (best.is_null() || v.Compare(best) > 0) best = v;
         }
         return best;
       },
       false,
       [](const NumericValue* args, size_t n) -> NumericValue {
         NumericValue best;
         for (size_t i = 0; i < n; ++i) {
           if (args[i].is_null()) continue;
           if (best.is_null() || CompareNum(args[i], best) > 0) best = args[i];
         }
         return best;
       }});
  registry->RegisterScalar(
      {"if", 3,
       [](const std::vector<ValueType>& args) {
         return args.size() == 3 ? args[1] : ValueType::kNull;
       },
       [](const std::vector<Value>& args) -> Value {
         return args[0].IsTruthy() ? args[1] : args[2];
       },
       false,
       [](const NumericValue* args, size_t) -> NumericValue {
         return args[0].IsTruthy() ? args[1] : args[2];
       }});
  registry->RegisterScalar(
      {"coalesce", -1, FirstArgType,
       [](const std::vector<Value>& args) -> Value {
         for (const Value& v : args) {
           if (!v.is_null()) return v;
         }
         return Value::Null();
       },
       false,
       [](const NumericValue* args, size_t n) -> NumericValue {
         for (size_t i = 0; i < n; ++i) {
           if (!args[i].is_null()) return args[i];
         }
         return NumericValue::Null();
       }});
  registry->RegisterScalar(
      {"length", 1, Int64Type,
       [](const std::vector<Value>& args) -> Value {
         if (AnyNull(args)) return Value::Null();
         if (args[0].type() != ValueType::kString) return Value::Null();
         return Value::Int64(static_cast<int64_t>(args[0].str().size()));
       },
       false,
       {}});
  registry->RegisterScalar(
      {"lower", 1, StringType,
       [](const std::vector<Value>& args) -> Value {
         if (AnyNull(args) || args[0].type() != ValueType::kString) {
           return Value::Null();
         }
         std::string s = args[0].str();
         std::transform(s.begin(), s.end(), s.begin(), ::tolower);
         return Value::String(std::move(s));
       },
       false,
       {}});
  registry->RegisterScalar(
      {"upper", 1, StringType,
       [](const std::vector<Value>& args) -> Value {
         if (AnyNull(args) || args[0].type() != ValueType::kString) {
           return Value::Null();
         }
         std::string s = args[0].str();
         std::transform(s.begin(), s.end(), s.begin(), ::toupper);
         return Value::String(std::move(s));
       },
       false,
       {}});
  registry->RegisterScalar(
      {"substr", 3, StringType,
       [](const std::vector<Value>& args) -> Value {
         if (AnyNull(args) || args[0].type() != ValueType::kString) {
           return Value::Null();
         }
         const std::string& s = args[0].str();
         // SQL-style 1-based start.
         int64_t start = static_cast<int64_t>(args[1].AsDouble()) - 1;
         int64_t len = static_cast<int64_t>(args[2].AsDouble());
         if (start < 0) start = 0;
         if (start >= static_cast<int64_t>(s.size()) || len <= 0) {
           return Value::String("");
         }
         return Value::String(s.substr(static_cast<size_t>(start),
                                       static_cast<size_t>(len)));
       },
       false,
       {}});
  registry->RegisterScalar(
      {"concat", -1, StringType,
       [](const std::vector<Value>& args) -> Value {
         std::string out;
         for (const Value& v : args) {
           if (!v.is_null()) out += v.ToString();
         }
         return Value::String(std::move(out));
       },
       false,
       {}});

  registry->RegisterAggregate(
      "geomean", std::make_shared<SmoothUdaf<GeomeanAccumulator>>("geomean"));
  registry->RegisterAggregate(
      "harmonic_mean",
      std::make_shared<SmoothUdaf<HarmonicAccumulator>>("harmonic_mean"));
  registry->RegisterAggregate("rms",
                              std::make_shared<SmoothUdaf<RmsAccumulator>>("rms"));
  return registry;
}

}  // namespace iolap
