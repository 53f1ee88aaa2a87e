#include "relational/expr.h"

#include <gtest/gtest.h>

#include "testing/util.h"

namespace squirrel {
namespace {

using testing::MakeSchema;
using testing::Pred;

Result<Value> EvalOn(const std::string& pred, const std::string& schema,
                     const Tuple& t) {
  auto e = ParsePredicate(pred);
  if (!e.ok()) return e.status();
  auto bound = BoundExpr::Bind(*e, MakeSchema(schema));
  if (!bound.ok()) return bound.status();
  return bound->Eval(t);
}

bool BoolOn(const std::string& pred, const std::string& schema,
            const Tuple& t) {
  auto e = ParsePredicate(pred);
  EXPECT_TRUE(e.ok());
  auto bound = BoundExpr::Bind(*e, MakeSchema(schema));
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  auto r = bound->EvalBool(t);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() && *r;
}

TEST(ExprTest, Comparisons) {
  EXPECT_TRUE(BoolOn("a = 5", "R(a)", Tuple({5})));
  EXPECT_FALSE(BoolOn("a = 5", "R(a)", Tuple({6})));
  EXPECT_TRUE(BoolOn("a != 5", "R(a)", Tuple({6})));
  EXPECT_TRUE(BoolOn("a < 5", "R(a)", Tuple({4})));
  EXPECT_TRUE(BoolOn("a <= 5", "R(a)", Tuple({5})));
  EXPECT_TRUE(BoolOn("a > 5", "R(a)", Tuple({6})));
  EXPECT_TRUE(BoolOn("a >= 5", "R(a)", Tuple({5})));
}

TEST(ExprTest, Arithmetic) {
  SQ_ASSERT_OK_AND_ASSIGN(Value v,
                          EvalOn("a * a + b", "R(a, b)", Tuple({3, 4})));
  EXPECT_EQ(v, Value(13));
  SQ_ASSERT_OK_AND_ASSIGN(Value d, EvalOn("a / 2", "R(a)", Tuple({7})));
  EXPECT_EQ(d, Value(3));  // integer division
  SQ_ASSERT_OK_AND_ASSIGN(Value f,
                          EvalOn("a / 2.0", "R(a)", Tuple({7})));
  EXPECT_EQ(f, Value(3.5));
}

TEST(ExprTest, Example51JoinCondition) {
  // a1*a1 + a2 < b2*b2 from Figure 4.
  std::string schema = "R(a1, a2, b1, b2)";
  EXPECT_TRUE(BoolOn("a1*a1 + a2 < b2*b2", schema, Tuple({2, 3, 0, 3})));
  EXPECT_FALSE(BoolOn("a1*a1 + a2 < b2*b2", schema, Tuple({3, 1, 0, 3})));
}

TEST(ExprTest, BooleanConnectives) {
  EXPECT_TRUE(BoolOn("a = 1 AND b = 2", "R(a, b)", Tuple({1, 2})));
  EXPECT_FALSE(BoolOn("a = 1 AND b = 2", "R(a, b)", Tuple({1, 3})));
  EXPECT_TRUE(BoolOn("a = 1 OR b = 2", "R(a, b)", Tuple({0, 2})));
  EXPECT_TRUE(BoolOn("NOT a = 1", "R(a)", Tuple({2})));
  EXPECT_TRUE(BoolOn("not (a = 1 and b = 2)", "R(a, b)", Tuple({1, 3})));
  // A 20-conjunct chain compiles to 98 instructions, more than Eval's
  // inline stack holds: the heap fallback gives the same answers and errors.
  std::string chain = "a = 1";
  for (int i = 1; i < 20; ++i) chain += " AND b > " + std::to_string(-i);
  EXPECT_TRUE(BoolOn(chain, "R(a, b)", Tuple({1, 0})));
  EXPECT_FALSE(BoolOn(chain, "R(a, b)", Tuple({1, -5})));
  EXPECT_FALSE(
      EvalOn(chain + " AND s + 1 > 0", "R(a, b, s string)", Tuple({1, 0, "x"}))
          .ok());
}

TEST(ExprTest, OperatorPrecedence) {
  // AND binds tighter than OR.
  EXPECT_TRUE(BoolOn("a = 9 OR a = 1 AND b = 1", "R(a, b)", Tuple({9, 0})));
  EXPECT_FALSE(BoolOn("(a = 9 OR a = 1) AND b = 1", "R(a, b)",
                      Tuple({9, 0})));
  // * binds tighter than +.
  SQ_ASSERT_OK_AND_ASSIGN(Value v, EvalOn("1 + 2 * 3", "R(a)", Tuple({0})));
  EXPECT_EQ(v, Value(7));
}

TEST(ExprTest, NullPropagation) {
  SQ_ASSERT_OK_AND_ASSIGN(Value v, EvalOn("a + 1", "R(a)", Tuple({Value()})));
  EXPECT_TRUE(v.is_null());
  // NULL comparison is not an error; it is false as a predicate.
  EXPECT_FALSE(BoolOn("a < 5", "R(a)", Tuple({Value()})));
}

TEST(ExprTest, DivisionByZeroYieldsNull) {
  SQ_ASSERT_OK_AND_ASSIGN(Value v, EvalOn("a / 0", "R(a)", Tuple({3})));
  EXPECT_TRUE(v.is_null());
  SQ_ASSERT_OK_AND_ASSIGN(Value d, EvalOn("a / 0.0", "R(a)", Tuple({3})));
  EXPECT_TRUE(d.is_null());
}

TEST(ExprTest, StringComparison) {
  EXPECT_TRUE(BoolOn("s = 'abc'", "R(s string)", Tuple({"abc"})));
  EXPECT_TRUE(BoolOn("s < 'b'", "R(s string)", Tuple({"abc"})));
}

TEST(ExprTest, TypeMismatchIsError) {
  auto r = EvalOn("s + 1", "R(s string)", Tuple({"abc"}));
  EXPECT_FALSE(r.ok());
  auto c = EvalOn("s < 1", "R(s string)", Tuple({"abc"}));
  EXPECT_FALSE(c.ok());
}

TEST(ExprTest, BindRejectsUnknownAttr) {
  auto e = ParsePredicate("zzz = 1");
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(BoundExpr::Bind(*e, MakeSchema("R(a)")).ok());
}

TEST(ExprTest, ReferencedAttrs) {
  Expr::Ptr e = Pred("a = 1 AND b * c < d");
  EXPECT_EQ(e->ReferencedAttrs(),
            (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(ExprTest, ConjunctiveClausesFlattensNestedAnds) {
  Expr::Ptr e = Pred("a = 1 AND (b = 2 AND c = 3) AND d = 4");
  auto clauses = ConjunctiveClauses(e);
  EXPECT_EQ(clauses.size(), 4u);
}

TEST(ExprTest, ConjunctiveClausesKeepsOrWhole) {
  Expr::Ptr e = Pred("a = 1 OR b = 2");
  auto clauses = ConjunctiveClauses(e);
  EXPECT_EQ(clauses.size(), 1u);
}

TEST(ExprTest, AndAllOfNothingIsTrue) {
  EXPECT_TRUE(AndAll({})->IsTrueLiteral());
}

TEST(ExprTest, AndOrHelpersAbsorbTrue) {
  Expr::Ptr t = Expr::True();
  Expr::Ptr p = Pred("a = 1");
  EXPECT_TRUE(Expr::And(t, p)->Equals(*p));
  EXPECT_TRUE(Expr::And(nullptr, p)->Equals(*p));
  EXPECT_TRUE(Expr::Or(t, p)->IsTrueLiteral());
}

TEST(ExprTest, StructuralEquality) {
  EXPECT_TRUE(Pred("a = 1 AND b < 2")->Equals(*Pred("a = 1 AND b < 2")));
  EXPECT_FALSE(Pred("a = 1")->Equals(*Pred("a = 2")));
  EXPECT_FALSE(Pred("a = 1")->Equals(*Pred("b = 1")));
}

TEST(ExprTest, SplitJoinConditionExtractsEquiPairs) {
  Schema l = MakeSchema("L(a, b)");
  Schema r = MakeSchema("R(c, d)");
  auto parts = SplitJoinCondition(Pred("a = c AND b < d"), l, r);
  ASSERT_EQ(parts.equi.size(), 1u);
  EXPECT_EQ(parts.equi[0].left_attr, "a");
  EXPECT_EQ(parts.equi[0].right_attr, "c");
  EXPECT_FALSE(parts.residual->IsTrueLiteral());
}

TEST(ExprTest, SplitJoinConditionReversedSides) {
  Schema l = MakeSchema("L(a)");
  Schema r = MakeSchema("R(c)");
  auto parts = SplitJoinCondition(Pred("c = a"), l, r);
  ASSERT_EQ(parts.equi.size(), 1u);
  EXPECT_EQ(parts.equi[0].left_attr, "a");
  EXPECT_EQ(parts.equi[0].right_attr, "c");
  EXPECT_TRUE(parts.residual->IsTrueLiteral());
}

TEST(ExprTest, SplitJoinConditionNonEquiAllResidual) {
  Schema l = MakeSchema("L(a)");
  Schema r = MakeSchema("R(c)");
  auto parts = SplitJoinCondition(Pred("a < c"), l, r);
  EXPECT_TRUE(parts.equi.empty());
  EXPECT_FALSE(parts.residual->IsTrueLiteral());
}

TEST(ExprTest, UnaryMinus) {
  SQ_ASSERT_OK_AND_ASSIGN(Value v, EvalOn("-a + 1", "R(a)", Tuple({3})));
  EXPECT_EQ(v, Value(-2));
}

TEST(ExprTest, ToStringRoundTripsThroughParser) {
  Expr::Ptr e = Pred("a1*a1 + a2 < b2*b2 AND c = 'x'");
  auto reparsed = ParsePredicate(e->ToString());
  ASSERT_TRUE(reparsed.ok()) << e->ToString();
  EXPECT_TRUE(e->Equals(**reparsed));
}

}  // namespace
}  // namespace squirrel
