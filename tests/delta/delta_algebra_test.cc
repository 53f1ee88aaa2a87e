#include "delta/delta_algebra.h"

#include <gtest/gtest.h>

#include "relational/index.h"
#include "relational/operators.h"
#include "testing/util.h"

namespace squirrel {
namespace {

using testing::MakeRelation;
using testing::MakeSchema;
using testing::Pred;

Delta MakeDelta(const std::string& schema,
                const std::vector<std::pair<Tuple, int64_t>>& atoms) {
  Delta d(testing::MakeSchema(schema));
  for (const auto& [t, c] : atoms) {
    auto st = d.Add(t, c);
    EXPECT_TRUE(st.ok());
  }
  return d;
}

TEST(DeltaAlgebraTest, SelectFiltersAtoms) {
  Delta d = MakeDelta("R(a)", {{Tuple({1}), 1}, {Tuple({5}), -2}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta out, DeltaSelect(d, Pred("a > 2")));
  EXPECT_EQ(out.CountOf(Tuple({1})), 0);
  EXPECT_EQ(out.CountOf(Tuple({5})), -2);
}

TEST(DeltaAlgebraTest, SelectTrueIsIdentity) {
  Delta d = MakeDelta("R(a)", {{Tuple({1}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta out, DeltaSelect(d, Expr::True()));
  EXPECT_TRUE(out.EqualContents(d));
}

TEST(DeltaAlgebraTest, ProjectSumsSignedCounts) {
  Delta d = MakeDelta("R(a, b)",
                      {{Tuple({1, 10}), 1}, {Tuple({1, 20}), 1},
                       {Tuple({2, 30}), -1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta out, DeltaProject(d, {"a"}));
  EXPECT_EQ(out.CountOf(Tuple({1})), 2);
  EXPECT_EQ(out.CountOf(Tuple({2})), -1);
}

TEST(DeltaAlgebraTest, ProjectCancellation) {
  // +(1,10) and -(1,20) cancel under π_a.
  Delta d = MakeDelta("R(a, b)", {{Tuple({1, 10}), 1}, {Tuple({1, 20}), -1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta out, DeltaProject(d, {"a"}));
  EXPECT_TRUE(out.Empty());
}

TEST(DeltaAlgebraTest, SelectProjectCommuteWithApply) {
  // π_C σ_f apply(R, Δ) == apply(π_C σ_f R, π_C σ_f Δ) — paper §6.2.
  Relation r(MakeSchema("R(a, b)"), Semantics::kBag);
  SQ_ASSERT_OK(r.Insert(Tuple({1, 10}), 2));
  SQ_ASSERT_OK(r.Insert(Tuple({2, 20}), 1));
  Delta d = MakeDelta("R(a, b)",
                      {{Tuple({1, 10}), -1}, {Tuple({3, 30}), 2}});
  Expr::Ptr f = Pred("b >= 10 AND a != 2");
  std::vector<std::string> attrs = {"a"};

  Relation lhs_base = r;
  SQ_ASSERT_OK(ApplyDelta(&lhs_base, d));
  SQ_ASSERT_OK_AND_ASSIGN(Relation lhs_sel, OpSelect(lhs_base, f));
  SQ_ASSERT_OK_AND_ASSIGN(Relation lhs, OpProject(lhs_sel, attrs));

  SQ_ASSERT_OK_AND_ASSIGN(Relation rhs_sel, OpSelect(r, f));
  SQ_ASSERT_OK_AND_ASSIGN(Relation rhs, OpProject(rhs_sel, attrs));
  SQ_ASSERT_OK_AND_ASSIGN(Delta fd, FilterDeltaToLeafParent(d, f, attrs));
  SQ_ASSERT_OK(ApplyDelta(&rhs, fd));

  EXPECT_TRUE(lhs.EqualContents(rhs));
}

TEST(DeltaAlgebraTest, DeltaJoinRelation) {
  Delta d = MakeDelta("D(a, b)", {{Tuple({1, 7}), 2}, {Tuple({2, 9}), -1}});
  Relation s = MakeRelation("S(c, e)", {Tuple({7, 100}), Tuple({9, 200})});
  SQ_ASSERT_OK_AND_ASSIGN(Delta out, DeltaJoinRelation(d, s, Pred("b = c")));
  EXPECT_EQ(out.CountOf(Tuple({1, 7, 7, 100})), 2);
  EXPECT_EQ(out.CountOf(Tuple({2, 9, 9, 200})), -1);
  // Unlike OpJoin, the delta join re-checks the full condition, so NULL
  // keys drop; 5 joins 5.0, -0.0 joins 0, and an absent string misses.
  Delta dk = MakeDelta("D(k double, s string)",
                       {{Tuple({Value(), "a"}), 1}, {Tuple({5.0, "b"}), -2},
                        {Tuple({-0.0, "c"}), 1}, {Tuple({2.5, "d"}), 1}});
  Relation sk = MakeRelation("S(k2, t string)",
                             {Tuple({Value(), "a"}), Tuple({5, "b"}),
                              Tuple({0, "nope"}), Tuple({2, "d"})});
  SQ_ASSERT_OK_AND_ASSIGN(Delta keys,
                          DeltaJoinRelation(dk, sk, Pred("k = k2")));
  EXPECT_EQ(keys.AtomCount(), 2u);
  EXPECT_EQ(keys.CountOf(Tuple({5.0, "b", 5, "b"})), -2);
  EXPECT_EQ(keys.CountOf(Tuple({-0.0, "c", 0, "nope"})), 1);
  SQ_ASSERT_OK_AND_ASSIGN(Delta strs,
                          DeltaJoinRelation(dk, sk, Pred("s = t")));
  EXPECT_EQ(strs.AtomCount(), 3u);
  EXPECT_EQ(strs.CountOf(Tuple({-0.0, "c", 0, "nope"})), 0);
}

TEST(DeltaAlgebraTest, RelationJoinDeltaSchemaOrder) {
  Relation rl = MakeRelation("L(a)", {Tuple({1})});
  Delta d = MakeDelta("D(b)", {{Tuple({1}), -3}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta out, RelationJoinDelta(rl, d, Pred("a = b")));
  EXPECT_EQ(out.CountOf(Tuple({1, 1})), -3);
  EXPECT_EQ(out.schema().AttributeNames(),
            (std::vector<std::string>{"a", "b"}));
  // NULL keys drop on this side too.
  Relation rn = MakeRelation("L(a)", {Tuple({Value()}), Tuple({3})});
  Delta dn = MakeDelta("D(b)", {{Tuple({Value()}), 1}, {Tuple({3}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta nulls,
                          RelationJoinDelta(rn, dn, Pred("a = b")));
  EXPECT_EQ(nulls.AtomCount(), 1u);
  EXPECT_EQ(nulls.CountOf(Tuple({3, 3})), 1);
}

TEST(DeltaAlgebraTest, DeltaJoinThetaCondition) {
  Delta d = MakeDelta("D(a)", {{Tuple({2}), 1}});
  Relation s = MakeRelation("S(b)", {Tuple({1}), Tuple({3})});
  SQ_ASSERT_OK_AND_ASSIGN(Delta out, DeltaJoinRelation(d, s, Pred("a < b")));
  EXPECT_EQ(out.CountOf(Tuple({2, 3})), 1);
  EXPECT_EQ(out.CountOf(Tuple({2, 1})), 0);
}

TEST(DeltaAlgebraTest, JoinDeltaMatchesRecompute) {
  // apply(T, Δ ⋈ S) == apply(R, Δ) ⋈ S when T = R ⋈ S (the SPJ rule's core).
  Relation r(MakeSchema("R(a, b)"), Semantics::kBag);
  SQ_ASSERT_OK(r.Insert(Tuple({1, 7})));
  SQ_ASSERT_OK(r.Insert(Tuple({2, 9}), 2));
  Relation s = MakeRelation("S(c)", {Tuple({7}), Tuple({9})});
  Delta d = MakeDelta("R(a, b)", {{Tuple({2, 9}), -1}, {Tuple({3, 7}), 1}});

  SQ_ASSERT_OK_AND_ASSIGN(Relation t, OpJoin(r, s, Pred("b = c")));
  SQ_ASSERT_OK_AND_ASSIGN(Delta dt, DeltaJoinRelation(d, s, Pred("b = c")));
  SQ_ASSERT_OK(ApplyDelta(&t, dt));

  Relation r2 = r;
  SQ_ASSERT_OK(ApplyDelta(&r2, d));
  SQ_ASSERT_OK_AND_ASSIGN(Relation expect, OpJoin(r2, s, Pred("b = c")));
  EXPECT_TRUE(t.EqualContents(expect));
}

// JoinDeltaWithIndexedTerm against the join it replaces: DeltaJoinRelation
// (resp. RelationJoinDelta) over the materialized term π_project σ_select R.
class IndexedDeltaJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repo_ = Relation(MakeSchema("R(k, x, y)"), Semantics::kBag);
    const std::vector<std::pair<Tuple, int64_t>> rows = {
        {Tuple({5, 1, 0}), 2},        {Tuple({5, 1, 2}), 1},
        {Tuple({5.0, 2, 1}), 1},      {Tuple({Value(), 1, 0}), 1},
        {Tuple({7, 3, 5}), 3},        {Tuple({0, 4, 0}), 1},
        {Tuple({"s", 1, 0}), 1},      {Tuple({9, 9, 9}), 1}};
    for (const auto& [t, c] : rows) SQ_ASSERT_OK(repo_.Insert(t, c));
    delta_ = MakeDelta("D(d, e)", {{Tuple({5, 1}), 2},
                                   {Tuple({5.0, 9}), -1},
                                   {Tuple({Value(), 1}), 1},
                                   {Tuple({7, 3}), -2},
                                   {Tuple({-0.0, 4}), 1},
                                   {Tuple({"s", 0}), 1},
                                   {Tuple({8, 1}), 1}});
  }

  // Both join orientations through the index equal the unindexed join.
  void ExpectParity(const std::vector<std::string>& key,
                    const std::string& cond, const Expr::Ptr& select) {
    SQ_ASSERT_OK_AND_ASSIGN(KeyIndex index, KeyIndex::Build(repo_, key));
    const std::vector<std::string> project = {"k", "x"};
    SQ_ASSERT_OK_AND_ASSIGN(Relation selected, OpSelect(repo_, select));
    SQ_ASSERT_OK_AND_ASSIGN(Relation term,
                            OpProject(selected, project, Semantics::kBag));
    for (bool delta_left : {true, false}) {
      SQ_ASSERT_OK_AND_ASSIGN(
          Delta got, JoinDeltaWithIndexedTerm(delta_, index, select, project,
                                              Pred(cond), delta_left));
      SQ_ASSERT_OK_AND_ASSIGN(
          Delta want, delta_left
                          ? DeltaJoinRelation(delta_, term, Pred(cond))
                          : RelationJoinDelta(term, delta_, Pred(cond)));
      EXPECT_EQ(got.schema().AttributeNames(),
                want.schema().AttributeNames());
      EXPECT_EQ(got.ToString(), want.ToString())
          << cond << " select " << select->ToString() << " delta_left "
          << delta_left;
      EXPECT_FALSE(want.Empty()) << cond;
    }
  }

  Relation repo_;
  Delta delta_;
};

TEST_F(IndexedDeltaJoinTest, MatchesDeltaJoinOverTheTermRelation) {
  for (const Expr::Ptr& select : {Expr::True(), Pred("y < 3")}) {
    ExpectParity({"k"}, "d = k", select);
    ExpectParity({"k"}, "d = k AND e < x", select);  // residual conjunct
    ExpectParity({"k", "x"}, "d = k AND e = x", select);
    ExpectParity({"x", "k"}, "e = x AND k = d", select);
  }
}

TEST_F(IndexedDeltaJoinTest, RefusesJoinsTheIndexDoesNotCover) {
  SQ_ASSERT_OK_AND_ASSIGN(KeyIndex on_k, KeyIndex::Build(repo_, {"k"}));
  SQ_ASSERT_OK_AND_ASSIGN(KeyIndex on_x, KeyIndex::Build(repo_, {"x"}));
  const std::vector<std::string> project = {"k", "x"};
  auto code = [&](const KeyIndex& index, const std::string& cond) {
    return JoinDeltaWithIndexedTerm(delta_, index, Expr::True(), project,
                                    Pred(cond), /*delta_left=*/true)
        .status()
        .code();
  };
  // No equi conjunct to probe.
  EXPECT_EQ(code(on_k, "d < k"), StatusCode::kFailedPrecondition);
  // The indexed attribute is not among the equi conjuncts.
  EXPECT_EQ(code(on_x, "d = k"), StatusCode::kFailedPrecondition);
  // An equi conjunct the probe would not enforce.
  EXPECT_EQ(code(on_k, "d = k AND e = x"), StatusCode::kFailedPrecondition);
  EXPECT_EQ(code(on_k, "d = k"), StatusCode::kOk);
}

TEST(DeltaAlgebraTest, PresenceDeltaDetectsCrossings) {
  // after: a=2 copies (was 1: +1), b=0 copies (was 1: -1), c=3 (was 2).
  Relation after(MakeSchema("R(x)"), Semantics::kBag);
  SQ_ASSERT_OK(after.Insert(Tuple({"a"}), 2));
  SQ_ASSERT_OK(after.Insert(Tuple({"c"}), 3));
  Delta bag = MakeDelta("R(x)", {{Tuple({"a"}), 1},
                                 {Tuple({"b"}), -1},
                                 {Tuple({"c"}), 1}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta pres, PresenceDelta(after, bag));
  EXPECT_EQ(pres.CountOf(Tuple({"a"})), 0);   // stayed present
  EXPECT_EQ(pres.CountOf(Tuple({"b"})), -1);  // left
  EXPECT_EQ(pres.CountOf(Tuple({"c"})), 0);   // stayed present
}

TEST(DeltaAlgebraTest, PresenceDeltaNewTuple) {
  Relation after(MakeSchema("R(x)"), Semantics::kBag);
  SQ_ASSERT_OK(after.Insert(Tuple({1}), 2));
  Delta bag = MakeDelta("R(x)", {{Tuple({1}), 2}});
  SQ_ASSERT_OK_AND_ASSIGN(Delta pres, PresenceDelta(after, bag));
  EXPECT_EQ(pres.CountOf(Tuple({1})), 1);
}

TEST(DeltaAlgebraTest, PresenceDeltaRejectsNegativePreState) {
  Relation after(MakeSchema("R(x)"), Semantics::kBag);
  Delta bag = MakeDelta("R(x)", {{Tuple({1}), 2}});  // after has 0 < 2
  EXPECT_FALSE(PresenceDelta(after, bag).ok());
}

TEST(DeltaAlgebraTest, IntersectAndMinusRelation) {
  Delta d = MakeDelta("R(x)", {{Tuple({1}), 1}, {Tuple({2}), -1}});
  Relation r = MakeRelation("R(x)", {Tuple({2})});
  Delta inter = DeltaIntersectRelation(d, r);
  EXPECT_EQ(inter.CountOf(Tuple({1})), 0);
  EXPECT_EQ(inter.CountOf(Tuple({2})), -1);
  Delta minus = DeltaMinusRelation(d, r);
  EXPECT_EQ(minus.CountOf(Tuple({1})), 1);
  EXPECT_EQ(minus.CountOf(Tuple({2})), 0);
}

}  // namespace
}  // namespace squirrel
