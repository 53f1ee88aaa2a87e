#include "relational/operators.h"

#include <gtest/gtest.h>

#include "testing/util.h"

namespace squirrel {
namespace {

using testing::MakeRelation;
using testing::Pred;
using testing::Rows;

TEST(OperatorsTest, SelectFilters) {
  Relation r = MakeRelation("R(a, b)", {Tuple({1, 10}), Tuple({2, 20})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpSelect(r, Pred("b > 15")));
  EXPECT_EQ(Rows(out), "(2, 20) ");
  // A predicate that raises a type error returns that error.
  Relation s = MakeRelation("R(a, s string)", {Tuple({1, "x"})});
  auto bad = OpSelect(s, Pred("a + s > 0"));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(OperatorsTest, SelectPreservesBagCounts) {
  Relation r(testing::MakeSchema("R(a)"), Semantics::kBag);
  SQ_ASSERT_OK(r.Insert(Tuple({1}), 3));
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpSelect(r, Pred("a = 1")));
  EXPECT_EQ(out.CountOf(Tuple({1})), 3);
}

TEST(OperatorsTest, SelectNullCondIsIdentity) {
  Relation r = MakeRelation("R(a)", {Tuple({1}), Tuple({2})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpSelect(r, nullptr));
  EXPECT_EQ(out.DistinctSize(), 2u);
}

TEST(OperatorsTest, ProjectMergesDuplicatesIntoBagCounts) {
  Relation r = MakeRelation("R(a, b)",
                            {Tuple({1, 10}), Tuple({1, 20}), Tuple({2, 30})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpProject(r, {"a"}, Semantics::kBag));
  EXPECT_EQ(out.CountOf(Tuple({1})), 2);
  EXPECT_EQ(out.CountOf(Tuple({2})), 1);
}

TEST(OperatorsTest, ProjectSetDeduplicates) {
  Relation r = MakeRelation("R(a, b)", {Tuple({1, 10}), Tuple({1, 20})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpProject(r, {"a"}, Semantics::kSet));
  EXPECT_EQ(out.CountOf(Tuple({1})), 1);
}

TEST(OperatorsTest, ProjectReorders) {
  Relation r = MakeRelation("R(a, b)", {Tuple({1, 10})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out,
                          OpProject(r, {"b", "a"}, Semantics::kBag));
  EXPECT_EQ(Rows(out), "(10, 1) ");
}

TEST(OperatorsTest, EquiJoin) {
  Relation r = MakeRelation("R(a, b)", {Tuple({1, 7}), Tuple({2, 8})});
  Relation s = MakeRelation("S(c, d)", {Tuple({7, "x"}), Tuple({9, "y"})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpJoin(r, s, Pred("b = c")));
  EXPECT_EQ(Rows(out), "(1, 7, 7, 'x') ");
  // Keys join under Value equality: NULL matches NULL (the hash path checks
  // only the residual), 5 matches 5.0, -0.0 matches 0; 2.5 matches nothing.
  Relation l = MakeRelation("L(k double, a)",
                            {Tuple({Value(), 1}), Tuple({5.0, 2}),
                             Tuple({-0.0, 3}), Tuple({2.5, 4})});
  Relation m = MakeRelation("M(k2, b)", {Tuple({Value(), 10}), Tuple({5, 20}),
                                         Tuple({0, 30}), Tuple({2, 40})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation keys, OpJoin(l, m, Pred("k = k2")));
  EXPECT_EQ(keys.DistinctSize(), 3u);
  EXPECT_EQ(keys.CountOf(Tuple({Value(), 1, Value(), 10})), 1);
  EXPECT_EQ(keys.CountOf(Tuple({5.0, 2, 5, 20})), 1);
  EXPECT_EQ(keys.CountOf(Tuple({-0.0, 3, 0, 30})), 1);
  // A probe string absent from the build side misses.
  Relation strs = MakeRelation("L(s string, a)",
                               {Tuple({"x", 1}), Tuple({"y", 2}),
                                Tuple({"z", 3})});
  Relation probe = MakeRelation("R(t string, b)",
                                {Tuple({"y", 10}), Tuple({"nope", 20})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation by_str, OpJoin(strs, probe, Pred("s = t")));
  EXPECT_EQ(Rows(by_str), "('y', 2, 'y', 10) ");
}

TEST(OperatorsTest, ThetaJoinNestedLoop) {
  Relation r = MakeRelation("R(a)", {Tuple({1}), Tuple({5})});
  Relation s = MakeRelation("S(b)", {Tuple({3})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpJoin(r, s, Pred("a < b")));
  EXPECT_EQ(Rows(out), "(1, 3) ");
}

TEST(OperatorsTest, JoinMixedEquiAndResidual) {
  Relation r = MakeRelation("R(a, b)", {Tuple({1, 10}), Tuple({1, 5})});
  Relation s = MakeRelation("S(c, d)", {Tuple({1, 7})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpJoin(r, s, Pred("a = c AND b > d")));
  EXPECT_EQ(Rows(out), "(1, 10, 1, 7) ");
}

TEST(OperatorsTest, JoinWithZeroEquiConjunctsUsesNestedLoop) {
  // A pure inequality condition has no equi-conjunct to hash on; the join
  // must fall back to the nested loop and still honor the full predicate.
  Relation r = MakeRelation("R(a, b)", {Tuple({1, 2}), Tuple({5, 1})});
  Relation s = MakeRelation("S(c)", {Tuple({3}), Tuple({4})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out,
                          OpJoin(r, s, Pred("a < c AND b < c")));
  EXPECT_EQ(Rows(out), "(1, 2, 3) (1, 2, 4) ");
  // Empty inputs through the same path.
  Relation empty_s = MakeRelation("S(c)", {});
  SQ_ASSERT_OK_AND_ASSIGN(Relation none, OpJoin(r, empty_s, Pred("a < c")));
  EXPECT_TRUE(none.Empty());
}

TEST(OperatorsTest, ProjectSetOnEmptyInputStaysEmptySet) {
  Relation r = MakeRelation("R(a, b)", {});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpProject(r, {"a"}, Semantics::kSet));
  EXPECT_TRUE(out.Empty());
  EXPECT_EQ(out.semantics(), Semantics::kSet);
  EXPECT_EQ(out.schema().AttributeNames(), (std::vector<std::string>{"a"}));
}

TEST(OperatorsTest, CrossProductWhenNoCondition) {
  Relation r = MakeRelation("R(a)", {Tuple({1}), Tuple({2})});
  Relation s = MakeRelation("S(b)", {Tuple({3}), Tuple({4})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpJoin(r, s, nullptr));
  EXPECT_EQ(out.TotalSize(), 4);
}

TEST(OperatorsTest, JoinMultipliesBagCounts) {
  Relation r(testing::MakeSchema("R(a)"), Semantics::kBag);
  Relation s(testing::MakeSchema("S(b)"), Semantics::kBag);
  SQ_ASSERT_OK(r.Insert(Tuple({1}), 2));
  SQ_ASSERT_OK(s.Insert(Tuple({1}), 3));
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpJoin(r, s, Pred("a = b")));
  EXPECT_EQ(out.CountOf(Tuple({1, 1})), 6);
}

TEST(OperatorsTest, JoinBuildSideBySkewedBagTotals) {
  // Regression: the build side used to be chosen by DistinctSize, so a bag
  // with 1 distinct tuple of multiplicity 1000 was picked over a 3-tuple
  // side, hashing 1000 entries' worth of work onto the wrong side. The
  // chooser must compare TotalSize (tie-break on DistinctSize) and the
  // result must be identical either way.
  Relation skew(testing::MakeSchema("R(a)"), Semantics::kBag);
  SQ_ASSERT_OK(skew.Insert(Tuple({1}), 1000));
  Relation flat(testing::MakeSchema("S(b)"), Semantics::kBag);
  SQ_ASSERT_OK(flat.Insert(Tuple({1}), 1));
  SQ_ASSERT_OK(flat.Insert(Tuple({2}), 1));
  SQ_ASSERT_OK(flat.Insert(Tuple({3}), 1));
  EXPECT_GT(skew.TotalSize(), flat.TotalSize());
  EXPECT_LT(skew.DistinctSize(), flat.DistinctSize());
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpJoin(skew, flat, Pred("a = b")));
  EXPECT_EQ(out.CountOf(Tuple({1, 1})), 1000);
  EXPECT_EQ(out.DistinctSize(), 1u);
  // Symmetric argument order: same answer.
  SQ_ASSERT_OK_AND_ASSIGN(Relation rev, OpJoin(flat, skew, Pred("b = a")));
  EXPECT_EQ(rev.CountOf(Tuple({1, 1})), 1000);
  EXPECT_EQ(rev.DistinctSize(), 1u);
}

TEST(OperatorsTest, JoinRejectsDuplicateAttrNames) {
  Relation r = MakeRelation("R(a)", {Tuple({1})});
  Relation s = MakeRelation("S(a)", {Tuple({1})});
  EXPECT_FALSE(OpJoin(r, s, nullptr).ok());
}

TEST(OperatorsTest, UnionAddsCounts) {
  Relation r = MakeRelation("R(a)", {Tuple({1})});
  Relation s = MakeRelation("R(a)", {Tuple({1}), Tuple({2})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpUnion(r, s, Semantics::kBag));
  EXPECT_EQ(out.CountOf(Tuple({1})), 2);
  EXPECT_EQ(out.CountOf(Tuple({2})), 1);
}

TEST(OperatorsTest, UnionRejectsIncompatibleSchemas) {
  Relation r = MakeRelation("R(a)", {});
  Relation s = MakeRelation("S(b)", {});
  EXPECT_FALSE(OpUnion(r, s, Semantics::kBag).ok());
  Relation t = MakeRelation("T(a, b)", {});
  EXPECT_FALSE(OpUnion(r, t, Semantics::kBag).ok());
}

TEST(OperatorsTest, DiffIsSetSemantics) {
  Relation r = MakeRelation("R(a)", {Tuple({1}), Tuple({2}), Tuple({3})});
  Relation s = MakeRelation("R(a)", {Tuple({2})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpDiff(r, s));
  EXPECT_EQ(Rows(out), "(1) (3) ");
  EXPECT_EQ(out.semantics(), Semantics::kSet);
}

TEST(OperatorsTest, RenameChangesSchema) {
  Relation r = MakeRelation("R(a, b) key(a)", {Tuple({1, 2})});
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, OpRename(r, {{"a", "x"}}));
  EXPECT_TRUE(out.schema().Contains("x"));
  EXPECT_FALSE(out.schema().Contains("a"));
  EXPECT_EQ(out.schema().key(), std::vector<std::string>{"x"});
}

TEST(OperatorsTest, EvalAlgebraFigure1View) {
  Relation r = MakeRelation(
      "R(r1, r2, r3, r4) key(r1)",
      {Tuple({1, 100, 11, 100}), Tuple({2, 200, 22, 100}),
       Tuple({3, 100, 33, 999})});
  Relation s = MakeRelation("S(s1, s2, s3) key(s1)",
                            {Tuple({100, 5, 10}), Tuple({200, 6, 99})});
  Catalog catalog;
  catalog.Register("R", &r);
  catalog.Register("S", &s);
  auto view = ParseAlgebra(
      "project[r1, r3, s1, s2](select[r4 = 100](R) join[r2 = s1] "
      "select[s3 < 50](S))");
  ASSERT_TRUE(view.ok());
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, EvalAlgebra(*view, catalog));
  // Row 1: r4=100, joins s1=100, s3=10<50 -> in. Row 2: joins s1=200 but
  // s3=99 -> out. Row 3: r4!=100 -> out.
  EXPECT_EQ(Rows(out), "(1, 11, 100, 5) ");
}

TEST(OperatorsTest, EvalAlgebraDiffDeduplicates) {
  Relation r = MakeRelation("R(a, b)", {Tuple({1, 10}), Tuple({1, 20})});
  Relation s = MakeRelation("T(a)", {Tuple({2})});
  Catalog catalog;
  catalog.Register("R", &r);
  catalog.Register("T", &s);
  auto view = ParseAlgebra("project[a](R) diff T");
  ASSERT_TRUE(view.ok());
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, EvalAlgebra(*view, catalog));
  EXPECT_EQ(Rows(out), "(1) ");
}

TEST(OperatorsTest, EvalAlgebraSharedBorrowsTopLevelScan) {
  Relation r = MakeRelation("R(a, b)", {Tuple({1, 10}), Tuple({2, 20})});
  Catalog catalog;
  catalog.Register("R", &r);
  auto scan = ParseAlgebra("R");
  ASSERT_TRUE(scan.ok());
  SQ_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Relation> shared,
                          EvalAlgebraShared(*scan, catalog));
  // A bare scan must be a borrowed handle onto the catalog relation, not a
  // deep copy of it.
  EXPECT_EQ(shared.get(), &r);
  // EvalAlgebra's value contract is unchanged: callers own the result.
  SQ_ASSERT_OK_AND_ASSIGN(Relation owned, EvalAlgebra(*scan, catalog));
  EXPECT_EQ(Rows(owned), Rows(r));
  // Composite expressions still materialize a fresh result.
  auto sel = ParseAlgebra("select[a = 1](R)");
  ASSERT_TRUE(sel.ok());
  SQ_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Relation> computed,
                          EvalAlgebraShared(*sel, catalog));
  EXPECT_NE(computed.get(), &r);
  EXPECT_EQ(Rows(*computed), "(1, 10) ");
}

TEST(OperatorsTest, EvalAlgebraMissingRelation) {
  Catalog catalog;
  auto view = ParseAlgebra("Nope");
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(EvalAlgebra(*view, catalog).ok());
}

TEST(OperatorsTest, InferSchemaMatchesEvaluation) {
  Relation r = MakeRelation("R(a, b)", {Tuple({1, 2})});
  Relation s = MakeRelation("S(c)", {Tuple({2})});
  Catalog catalog;
  catalog.Register("R", &r);
  catalog.Register("S", &s);
  auto view = ParseAlgebra("project[a, c](R join[b = c] S)");
  ASSERT_TRUE(view.ok());
  SQ_ASSERT_OK_AND_ASSIGN(
      Schema schema,
      InferSchema(*view, [&](const std::string& name) -> Result<Schema> {
        SQ_ASSIGN_OR_RETURN(const Relation* rel, catalog.Lookup(name));
        return rel->schema();
      }));
  SQ_ASSERT_OK_AND_ASSIGN(Relation out, EvalAlgebra(*view, catalog));
  EXPECT_EQ(schema.AttributeNames(), out.schema().AttributeNames());
}

}  // namespace
}  // namespace squirrel
