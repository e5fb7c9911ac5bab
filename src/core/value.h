#ifndef IOLAP_CORE_VALUE_H_
#define IOLAP_CORE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace iolap {

/// Runtime type of a Value. The engine supports the types needed by the
/// paper's workloads: 64-bit integers, doubles and strings, plus SQL NULL.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

const char* ValueTypeToString(ValueType type);

/// A dynamically typed SQL value. Values are small, copyable and totally
/// ordered (NULL sorts first; numeric types compare by numeric value, so
/// Int64(2) == Double(2.0)). The binder type-checks queries up front, so
/// runtime evaluation follows SQL semantics: operations on NULL yield NULL
/// rather than errors.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) { return Value(Storage(std::in_place_index<1>, v)); }
  static Value Double(double v) { return Value(Storage(std::in_place_index<2>, v)); }
  static Value String(std::string v) {
    return Value(Storage(std::in_place_index<3>, std::move(v)));
  }
  static Value Bool(bool v) { return Int64(v ? 1 : 0); }

  ValueType type() const { return static_cast<ValueType>(storage_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const {
    return type() == ValueType::kInt64 || type() == ValueType::kDouble;
  }

  /// Integer payload. Only valid when type() == kInt64.
  int64_t int64() const { return std::get<1>(storage_); }
  /// Double payload. Only valid when type() == kDouble.
  double dbl() const { return std::get<2>(storage_); }
  /// String payload. Only valid when type() == kString.
  const std::string& str() const { return std::get<3>(storage_); }

  /// Numeric coercion: Int64/Double as double. NULL and strings yield 0.0
  /// (callers use is_numeric()/is_null() to distinguish).
  double AsDouble() const;

  /// Truthiness for predicates: non-zero numeric is true; NULL and
  /// non-numeric are false (SQL's "unknown" filters out).
  bool IsTruthy() const;

  /// Total ordering: NULL < numerics (by value) < strings (lexicographic).
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool Equals(const Value& other) const { return Compare(other) == 0; }

  uint64_t Hash() const;

  /// Approximate in-memory footprint, used by the shipped-bytes cost model.
  size_t ByteSize() const;

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) { return a.Equals(b); }
  friend bool operator!=(const Value& a, const Value& b) { return !a.Equals(b); }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

 private:
  using Storage = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Storage storage) : storage_(std::move(storage)) {}

  Storage storage_;
};

/// An unboxed numeric value (NULL / int64 / double): the register type of
/// the compiled expression path (exec/expr_program), its typed function
/// kernels and its typed aggregate probes. Invariant: when tag == kInt64,
/// `f64 == double(i64)` — kernels and the compiler keep the double mirror
/// in sync so AsDouble() is a plain load. A typed *lookup* of a value that
/// is not numeric yields tag == kString with no payload (Of below); every
/// reader treats that tag as a runtime type clash.
struct NumericValue {
  double f64 = 0.0;
  int64_t i64 = 0;
  ValueType tag = ValueType::kNull;

  static NumericValue Null() { return {}; }
  static NumericValue Int(int64_t v) {
    return {static_cast<double>(v), v, ValueType::kInt64};
  }
  static NumericValue Dbl(double v) { return {v, 0, ValueType::kDouble}; }
  /// Unboxes `v`; a string becomes the kString clash marker.
  static NumericValue Of(const Value& v) {
    switch (v.type()) {
      case ValueType::kInt64:
        return Int(v.int64());
      case ValueType::kDouble:
        return Dbl(v.dbl());
      case ValueType::kString:
        return {0.0, 0, ValueType::kString};
      default:
        return Null();
    }
  }

  bool is_null() const { return tag == ValueType::kNull; }
  /// Mirrors Value::AsDouble(): NULL coerces to 0.0.
  double AsDouble() const { return tag == ValueType::kNull ? 0.0 : f64; }
  /// Mirrors Value::IsTruthy(): non-zero numeric.
  bool IsTruthy() const {
    return tag == ValueType::kInt64 ? i64 != 0
                                    : tag == ValueType::kDouble && f64 != 0.0;
  }
  /// Boxes back into a Value (the inverse of Of on numerics; the clash
  /// marker boxes as NULL).
  Value ToValue() const {
    switch (tag) {
      case ValueType::kInt64:
        return Value::Int64(i64);
      case ValueType::kDouble:
        return Value::Double(f64);
      default:
        return Value::Null();
    }
  }
};

/// A tuple of values. Rows are schema-less at runtime; the plan carries the
/// schema.
using Row = std::vector<Value>;

/// Hash of a full row (order-sensitive), for group-by and join keys.
uint64_t HashRow(const Row& row);

/// Approximate serialized size of a row, for the shuffle cost model.
size_t RowByteSize(const Row& row);

std::string RowToString(const Row& row);

/// A row key paired with its precomputed hash, for heterogeneous probes of
/// Row-keyed hash maps: callers that already know HashRow(*row) (the apply
/// phase hashes each group key once per batch) probe with this instead of
/// paying a re-hash per map.
struct HashedRowRef {
  const Row* row;
  uint64_t hash;
};

/// Functors for using Row as a hash-map key. Transparent (C++20 P0919) so
/// lookups accept HashedRowRef without re-hashing or materializing a Row.
struct RowHash {
  using is_transparent = void;
  size_t operator()(const Row& row) const { return HashRow(row); }
  size_t operator()(const HashedRowRef& ref) const { return ref.hash; }
};
struct RowEq {
  using is_transparent = void;
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].Equals(b[i])) return false;
    }
    return true;
  }
  bool operator()(const HashedRowRef& a, const Row& b) const {
    return operator()(*a.row, b);
  }
  bool operator()(const Row& a, const HashedRowRef& b) const {
    return operator()(a, *b.row);
  }
  bool operator()(const HashedRowRef& a, const HashedRowRef& b) const {
    return operator()(*a.row, *b.row);
  }
};

}  // namespace iolap

#endif  // IOLAP_CORE_VALUE_H_
