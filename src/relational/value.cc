#include "relational/value.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/strings.h"

namespace squirrel {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

ValueType Value::type() const {
  return static_cast<ValueType>(var_.index());
}

double Value::AsNumeric() const {
  if (type() == ValueType::kInt) return static_cast<double>(AsInt());
  return AsDouble();
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  // Rank: null(0) < numeric(1) < string(2).
  auto rank = [](ValueType t) {
    switch (t) {
      case ValueType::kNull:
        return 0;
      case ValueType::kInt:
      case ValueType::kDouble:
        return 1;
      case ValueType::kString:
        return 2;
    }
    return 3;
  };
  int ra = rank(type()), rb = rank(other.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
    case ValueType::kDouble: {
      // Exact comparison for two ints; numeric otherwise.
      if (type() == ValueType::kInt && other.type() == ValueType::kInt) {
        int64_t a = AsInt(), b = other.AsInt();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      double a = AsNumeric(), b = other.AsNumeric();
      if (a < b) return -1;
      if (a > b) return 1;
      if (a == b) return 0;
      // Unordered: at least one is NaN, which is above every number.
      const bool nan_a = std::isnan(a), nan_b = std::isnan(b);
      return nan_a == nan_b ? 0 : (nan_a ? 1 : -1);
    }
    case ValueType::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x6E756C6CULL;
    case ValueType::kInt: {
      int64_t v = AsInt();
      return HashBytes(&v, sizeof(v));
    }
    case ValueType::kDouble: {
      double d = AsDouble();
      // Hash integral doubles like ints so that 2.0 == 2 implies equal hash.
      double r = std::floor(d);
      if (r == d && d >= -9.2e18 && d <= 9.2e18) {
        int64_t v = static_cast<int64_t>(d);
        return HashBytes(&v, sizeof(v));
      }
      // One hash for every NaN payload and sign, as Compare makes them equal.
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      return HashBytes(&d, sizeof(d));
    }
    case ValueType::kString: {
      const std::string& s = AsString();
      return HashBytes(s.data(), s.size(), 0x737472ULL);
    }
  }
  return 0;
}

}  // namespace squirrel
