#include "relational/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace squirrel {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(ValueTest, IntRoundTrip) {
  Value v(int64_t{42});
  EXPECT_EQ(v.type(), ValueType::kInt);
  EXPECT_EQ(v.AsInt(), 42);
  EXPECT_TRUE(v.is_numeric());
}

TEST(ValueTest, DoubleRoundTrip) {
  Value v(3.25);
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.25);
}

TEST(ValueTest, StringRoundTrip) {
  Value v("hello");
  EXPECT_EQ(v.type(), ValueType::kString);
  EXPECT_EQ(v.AsString(), "hello");
  EXPECT_FALSE(v.is_numeric());
}

TEST(ValueTest, IntLiteralConvenience) {
  Value v(7);  // int, not int64_t
  EXPECT_EQ(v.type(), ValueType::kInt);
  EXPECT_EQ(v.AsInt(), 7);
}

TEST(ValueTest, CompareIntInt) {
  EXPECT_LT(Value(1).Compare(Value(2)), 0);
  EXPECT_GT(Value(5).Compare(Value(2)), 0);
  EXPECT_EQ(Value(3).Compare(Value(3)), 0);
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_EQ(Value(2), Value(2.0));
  EXPECT_LT(Value(1).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(2)), 0);
}

TEST(ValueTest, CrossTypeNumericHashConsistency) {
  // 2 == 2.0 must imply equal hashes.
  EXPECT_EQ(Value(2), Value(2.0));
  EXPECT_EQ(Value(2).Hash(), Value(2.0).Hash());
}

TEST(ValueTest, TypeRankOrdering) {
  // null < numeric < string.
  EXPECT_LT(Value().Compare(Value(0)), 0);
  EXPECT_LT(Value(99999).Compare(Value("a")), 0);
  EXPECT_LT(Value().Compare(Value("")), 0);
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("x").Compare(Value("x")), 0);
}

TEST(ValueTest, NullsCompareEqual) {
  EXPECT_EQ(Value().Compare(Value()), 0);
  EXPECT_EQ(Value(), Value());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
}

TEST(ValueTest, NegativeZeroHashesLikeZero) {
  EXPECT_EQ(Value(0.0), Value(-0.0));
  EXPECT_EQ(Value(0.0).Hash(), Value(-0.0).Hash());
}

TEST(ValueTest, NanIsOneValueAboveEveryNumber) {
  // Every NaN payload and sign is one value, and hashes alike.
  const Value nan(std::nan("")), other_nan(-std::nan("7"));
  EXPECT_EQ(nan, other_nan);
  EXPECT_EQ(nan.Hash(), other_nan.Hash());
  // It sorts above every number, so equality stays transitive: a NaN equal
  // to both 5 and 6.0 would make them equal.
  const double inf = std::numeric_limits<double>::infinity();
  for (const Value& v : {Value(5), Value(6.0), Value(-inf), Value(inf)}) {
    EXPECT_NE(nan, v) << v.ToString();
    EXPECT_LT(v, nan) << v.ToString();
    EXPECT_GT(nan.Compare(v), 0) << v.ToString();
  }
  EXPECT_LT(Value(), nan);
  EXPECT_LT(nan, Value("a"));
  std::vector<Value> sorted = {Value(6.0), nan, Value(5), other_nan,
                               Value(-inf)};
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted[0], Value(-inf));
  EXPECT_EQ(sorted[1], Value(5));
  EXPECT_EQ(sorted[2], Value(6.0));
  EXPECT_EQ(sorted[3], nan);
  EXPECT_EQ(sorted[4], nan);
}

TEST(ValueTest, HashDiffersForDifferentValues) {
  // Not guaranteed in general, but these common values must not collide.
  EXPECT_NE(Value(1).Hash(), Value(2).Hash());
  EXPECT_NE(Value("a").Hash(), Value("b").Hash());
  EXPECT_NE(Value(1).Hash(), Value("1").Hash());
}

TEST(ValueTest, AsNumericWidensInt) {
  EXPECT_DOUBLE_EQ(Value(7).AsNumeric(), 7.0);
  EXPECT_DOUBLE_EQ(Value(7.5).AsNumeric(), 7.5);
}

}  // namespace
}  // namespace squirrel
