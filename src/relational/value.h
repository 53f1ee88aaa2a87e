// Typed scalar values used in tuples and expressions.

#ifndef SQUIRREL_RELATIONAL_VALUE_H_
#define SQUIRREL_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace squirrel {

/// Scalar types supported by the engine.
enum class ValueType { kNull = 0, kInt = 1, kDouble = 2, kString = 3 };

/// Name of a value type, e.g. "int".
const char* ValueTypeName(ValueType type);

/// \brief A dynamically typed scalar: null, 64-bit int, double, or string.
///
/// Values order null < int/double (numerically, cross-type) < string, which
/// gives relations a deterministic sort order for printing and testing.
class Value {
 public:
  /// Null value.
  Value() : var_(std::monostate{}) {}
  /// Integer value.
  Value(int64_t v) : var_(v) {}  // NOLINT(google-explicit-constructor)
  /// Integer value (convenience for literals).
  Value(int v) : var_(static_cast<int64_t>(v)) {}  // NOLINT
  /// Double value.
  Value(double v) : var_(v) {}  // NOLINT
  /// String value.
  Value(std::string v) : var_(std::move(v)) {}  // NOLINT
  /// String value from a C literal.
  Value(const char* v) : var_(std::string(v)) {}  // NOLINT

  /// The dynamic type of this value.
  ValueType type() const;

  /// True iff this value is null.
  bool is_null() const { return type() == ValueType::kNull; }

  /// The held integer; must hold kInt.
  int64_t AsInt() const { return std::get<int64_t>(var_); }
  /// The held double; must hold kDouble.
  double AsDouble() const { return std::get<double>(var_); }
  /// The held string; must hold kString.
  const std::string& AsString() const { return std::get<std::string>(var_); }

  /// Numeric view: ints and doubles as double. Must be numeric.
  double AsNumeric() const;
  /// True iff the value is kInt or kDouble.
  bool is_numeric() const {
    return type() == ValueType::kInt || type() == ValueType::kDouble;
  }

  /// Renders the value for display ("NULL", "42", "3.5", "'abc'").
  std::string ToString() const;

  /// Total order over all values: null < numerics < strings. Numerics
  /// compare cross-type by numeric value (2 == 2.0, -0.0 == 0), and every
  /// NaN equals every other NaN and sorts above every other number, as in
  /// PostgreSQL.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// 64-bit hash consistent with operator== (cross-type numeric equality
  /// hashes integral doubles like their int counterparts; every NaN hashes
  /// alike).
  uint64_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> var_;
};

}  // namespace squirrel

#endif  // SQUIRREL_RELATIONAL_VALUE_H_
