#ifndef IOLAP_CORE_FUNCTION_REGISTRY_H_
#define IOLAP_CORE_FUNCTION_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/value.h"

namespace iolap {

class AggFunction;

/// A scalar function (built-in or user-defined). UDFs are black boxes to
/// the uncertainty analysis: an expression calling a scalar function over an
/// uncertain operand gets the conservative Unbounded() variation range
/// unless the function declares itself monotone (in which case interval
/// endpoints map through the function).
struct ScalarFunction {
  /// Lower-case function name as referenced from SQL.
  std::string name;
  /// Expected argument count; -1 = variadic.
  int arity = -1;
  /// Result type given argument types.
  std::function<ValueType(const std::vector<ValueType>&)> result_type;
  /// The implementation. Must be pure (referenced from multiple threads).
  std::function<Value(const std::vector<Value>&)> eval;
  /// True if the function is monotone non-decreasing in each argument
  /// (e.g. sqrt, log): allows tight interval propagation for UDFs.
  bool monotone = false;
  /// Optional typed kernel for the compiled expression path: used instead of
  /// `eval` when every argument is statically numeric. Must be bit-identical
  /// to `eval` over NULL/INT64/DOUBLE inputs; NULL handling is the kernel's
  /// own responsibility (mirroring `eval`), so non-propagating functions
  /// (if, coalesce, least, greatest) get kernels too. Functions without a
  /// kernel fall back to `eval` through a Value-boxing call site.
  std::function<NumericValue(const NumericValue* args, size_t n)>
      numeric_kernel;
};

/// Registry of scalar functions and aggregate (UDAF) factories. A process
/// typically uses one registry with the built-ins plus workload UDFs; the
/// registry is immutable during query execution.
class FunctionRegistry {
 public:
  /// Creates a registry pre-populated with the built-in scalar functions
  /// (abs, sqrt, log, exp, floor, ceil, round, pow, mod, least, greatest,
  /// if, coalesce, length, lower, upper, substr, concat) and built-in UDAF
  /// factories (geomean, harmonic_mean, rms).
  static std::shared_ptr<FunctionRegistry> Default();

  /// Registers (or replaces) a scalar function.
  void RegisterScalar(ScalarFunction fn);

  /// Registers (or replaces) a user-defined aggregate.
  void RegisterAggregate(const std::string& name,
                         std::shared_ptr<const AggFunction> agg);

  /// Looks up a scalar function by (lower-case) name.
  Result<const ScalarFunction*> FindScalar(const std::string& name) const;

  /// Looks up a UDAF by (lower-case) name.
  Result<std::shared_ptr<const AggFunction>> FindAggregate(
      const std::string& name) const;

  bool HasScalar(const std::string& name) const;
  bool HasAggregate(const std::string& name) const;

 private:
  std::map<std::string, ScalarFunction> scalars_;
  std::map<std::string, std::shared_ptr<const AggFunction>> aggregates_;
};

}  // namespace iolap

#endif  // IOLAP_CORE_FUNCTION_REGISTRY_H_
