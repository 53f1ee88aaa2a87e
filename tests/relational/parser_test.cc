#include "relational/parser.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "testing/util.h"

namespace squirrel {
namespace {

using testing::Pred;

TEST(ParserTest, PredicateBasics) {
  auto e = ParsePredicate("r4 = 100 AND s3 < 50");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind(), Expr::Kind::kBinary);
  EXPECT_EQ((*e)->bin_op(), BinOp::kAnd);
}

TEST(ParserTest, PredicateDoublesAndStrings) {
  auto e = ParsePredicate("x < 2.5 OR name = 'bob'");
  ASSERT_TRUE(e.ok());
}

TEST(ParserTest, PredicateNotEqualVariants) {
  ASSERT_TRUE(ParsePredicate("a != 1").ok());
  ASSERT_TRUE(ParsePredicate("a <> 1").ok());
  auto a = ParsePredicate("a != 1");
  auto b = ParsePredicate("a <> 1");
  EXPECT_TRUE((*a)->Equals(**b));
}

TEST(ParserTest, PredicateNullLiteral) {
  auto e = ParsePredicate("a = null");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE((*e)->right()->value().is_null());
}

TEST(ParserTest, PredicateErrors) {
  EXPECT_FALSE(ParsePredicate("").ok());
  EXPECT_FALSE(ParsePredicate("a = ").ok());
  EXPECT_FALSE(ParsePredicate("a = 1 extra junk +").ok());
  EXPECT_FALSE(ParsePredicate("(a = 1").ok());
  EXPECT_FALSE(ParsePredicate("a @ 1").ok());
  EXPECT_FALSE(ParsePredicate("s = 'unterminated").ok());
}

TEST(ParserTest, AlgebraFigure1) {
  auto e = ParseAlgebra(
      "project[r1, r3, s1, s2](select[r4 = 100](R) join[r2 = s1] "
      "select[s3 < 50](S))");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ((*e)->kind(), AlgebraExpr::Kind::kProject);
  EXPECT_EQ((*e)->attrs().size(), 4u);
  EXPECT_EQ((*e)->left()->kind(), AlgebraExpr::Kind::kJoin);
}

TEST(ParserTest, AlgebraScan) {
  auto e = ParseAlgebra("MyRel");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind(), AlgebraExpr::Kind::kScan);
  EXPECT_EQ((*e)->relation(), "MyRel");
}

TEST(ParserTest, AlgebraUnionDiff) {
  auto e = ParseAlgebra("project[a](E) diff project[a](F)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind(), AlgebraExpr::Kind::kDiff);
  auto u = ParseAlgebra("A union B union C");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ((*u)->kind(), AlgebraExpr::Kind::kUnion);
  // Left-associative: (A union B) union C.
  EXPECT_EQ((*u)->left()->kind(), AlgebraExpr::Kind::kUnion);
  auto m = ParseAlgebra("A minus B");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((*m)->kind(), AlgebraExpr::Kind::kDiff);
}

TEST(ParserTest, AlgebraJoinWithoutCondition) {
  auto e = ParseAlgebra("A join B");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE((*e)->condition()->IsTrueLiteral());
}

TEST(ParserTest, AlgebraJoinChainLeftDeep) {
  auto e = ParseAlgebra("A join[a = b] B join[c = d] C");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind(), AlgebraExpr::Kind::kJoin);
  EXPECT_EQ((*e)->left()->kind(), AlgebraExpr::Kind::kJoin);
  EXPECT_EQ((*e)->right()->relation(), "C");
}

TEST(ParserTest, AlgebraParenthesizedGrouping) {
  auto e = ParseAlgebra("A join (B union C)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->right()->kind(), AlgebraExpr::Kind::kUnion);
}

TEST(ParserTest, AlgebraCaseInsensitiveKeywords) {
  ASSERT_TRUE(ParseAlgebra("PROJECT[a](SELECT[a = 1](R))").ok());
  ASSERT_TRUE(ParseAlgebra("r JOIN[x = y] s").ok());
}

TEST(ParserTest, AlgebraErrors) {
  EXPECT_FALSE(ParseAlgebra("project[](R)").ok());
  EXPECT_FALSE(ParseAlgebra("project[a](R").ok());
  EXPECT_FALSE(ParseAlgebra("select[]{R}").ok());
  EXPECT_FALSE(ParseAlgebra("A join[x =] B").ok());
  EXPECT_FALSE(ParseAlgebra("A B").ok());  // trailing input
}

TEST(ParserTest, AlgebraToStringRoundTrips) {
  const char* text =
      "project[r1, r3, s1, s2](select[r4 = 100](R) join[r2 = s1] "
      "select[s3 < 50](S))";
  auto e = ParseAlgebra(text);
  ASSERT_TRUE(e.ok());
  auto again = ParseAlgebra((*e)->ToString());
  ASSERT_TRUE(again.ok()) << (*e)->ToString();
  EXPECT_EQ((*again)->ToString(), (*e)->ToString());
}

TEST(InPredicateTextTest, CanonicalRendering) {
  // Sorted by Value order, deduplicated (the int form of 5/5.0 survives),
  // NULL dropped, doubles kept recognisably double.
  EXPECT_EQ(Expr::In("s1", {3, 1, Value(), 2, 1})->ToString(),
            "(s1 IN (1, 2, 3))");
  EXPECT_EQ(Expr::In("a", {Value(5.0), Value(5)})->ToString(), "(a IN (5))");
  EXPECT_EQ(Expr::In("a", {Value(5.0)})->ToString(), "(a IN (5.0))");
  EXPECT_EQ(Expr::In("a", {Value(0.0), Value(-0.0)})->ToString(),
            "(a IN (-0.0))");
  EXPECT_EQ(Expr::In("a", {Value("it's"), Value(-2)})->ToString(),
            "(a IN (-2, 'it''s'))");
  EXPECT_EQ(Expr::In("a", {})->ToString(), "(a IN ())");
}

TEST(InPredicateTextTest, ToStringParseRoundTripsAndEquals) {
  std::vector<Expr::Ptr> exprs = {
      Expr::In("s1", {7}),
      Expr::In("s1", {}),
      Expr::In("k", {Value(std::numeric_limits<int64_t>::min()),
                     Value(std::numeric_limits<int64_t>::max()), Value(0)}),
      Expr::In("k", {Value(0.1), Value(5.0), Value(-0.0), Value(1e300),
                     Value(-2.5e-7), Value(1e-320), Value(123456789.125)}),
      Expr::In("k", {Value("a b"), Value("'"), Value(""), Value("x''y")}),
      Expr::In("k", {Value(1), Value(1.5), Value("1")}),
      Expr::And(Pred("s3 < 50"), Expr::In("s1", {4, 2})),
      Expr::Or(Expr::In("a", {1}), Expr::In("b", {Value(2.0)})),
      Expr::Not(Expr::In("a", {Value("z")})),
      Expr::Eq(Expr::In("a", {1}), Expr::Const(Value(0))),
  };
  for (const auto& e : exprs) {
    const std::string text = e->ToString();
    auto back = ParsePredicate(text);
    ASSERT_TRUE(back.ok()) << text << ": " << back.status().ToString();
    EXPECT_TRUE((*back)->Equals(*e)) << text << " vs " << (*back)->ToString();
    EXPECT_EQ((*back)->ToString(), text);
  }
  // A double keeps its type through the text form (5.0 is not 5).
  auto five = ParsePredicate(Expr::In("a", {Value(5.0)})->ToString());
  ASSERT_TRUE(five.ok());
  EXPECT_EQ((*five)->in_list()->values()[0].type(), ValueType::kDouble);
  EXPECT_FALSE((*five)->Equals(*Expr::In("a", {5})));
}

TEST(InPredicateTextTest, ParsesHandWrittenForms) {
  auto e = ParsePredicate("s3 < 50 and s1 in (3, -1, 3, 'x', null)");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  std::vector<Expr::Ptr> clauses = ConjunctiveClauses(*e);
  ASSERT_EQ(clauses.size(), 2u);
  EXPECT_EQ(clauses[1]->ToString(), "(s1 IN (-1, 3, 'x'))");
  auto exp = ParsePredicate("a IN (1e3, 2.5E-2)");
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  EXPECT_TRUE((*exp)->Equals(*Expr::In("a", {Value(1000.0), Value(0.025)})));
  EXPECT_FALSE(ParsePredicate("a IN 5").ok());
  EXPECT_FALSE(ParsePredicate("a IN (1,)").ok());
  EXPECT_FALSE(ParsePredicate("a IN (b)").ok());
  EXPECT_FALSE(ParsePredicate("a IN (-'x')").ok());
  EXPECT_FALSE(ParsePredicate("a + 1 IN (1)").ok());
  EXPECT_FALSE(ParsePredicate("a IN (1").ok());
}

TEST(ParserTest, SchemaDeclBasics) {
  auto d = ParseSchemaDecl("R(r1, r2, r3, r4) key(r1)");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->name, "R");
  EXPECT_EQ(d->schema.size(), 4u);
  EXPECT_EQ(d->schema.key(), std::vector<std::string>{"r1"});
}

TEST(ParserTest, SchemaDeclTypes) {
  auto d = ParseSchemaDecl("Emp(id, name string, salary double) key(id)");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->schema.attr(1).type, ValueType::kString);
  EXPECT_EQ(d->schema.attr(2).type, ValueType::kDouble);
}

TEST(ParserTest, SchemaDeclCompositeKey) {
  auto d = ParseSchemaDecl("R(a, b, c) key(a, b)");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->schema.key().size(), 2u);
}

TEST(ParserTest, SchemaDeclErrors) {
  EXPECT_FALSE(ParseSchemaDecl("(a)").ok());
  EXPECT_FALSE(ParseSchemaDecl("R()").ok());
  EXPECT_FALSE(ParseSchemaDecl("R(a) key(zzz)").ok());
  EXPECT_FALSE(ParseSchemaDecl("R(a, a)").ok());
  EXPECT_FALSE(ParseSchemaDecl("R(a frobnicate)").ok());
  EXPECT_FALSE(ParseSchemaDecl("R(a) trailing").ok());
}

}  // namespace
}  // namespace squirrel
