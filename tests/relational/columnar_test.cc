// Unit tests for the columnar batch execution engine: batch round-trips,
// arena interning, vectorized predicate evaluation vs the scalar oracle,
// and kernel parity (select/project/join/delta ops) against the row-mode
// operators, including the bag-count and type-edge cases that bit the
// design reviews (skewed bags, int-vs-integral-double keys, NULL keys).

#include "relational/columnar.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "delta/delta_algebra.h"
#include "relational/column_batch.h"
#include "relational/operators.h"
#include "testing/util.h"

namespace squirrel {
namespace {

using testing::MakeRelation;
using testing::MakeSchema;
using testing::Pred;
using testing::Rows;

// ---------------------------------------------------------------------------
// StringArena / ColumnBatch storage
// ---------------------------------------------------------------------------

TEST(StringArenaTest, InternsEachDistinctStringOnce) {
  StringArena arena;
  uint32_t a = arena.Intern("alpha");
  uint32_t b = arena.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.Intern("alpha"), a);
  EXPECT_EQ(arena.size(), 2u);
  EXPECT_EQ(arena.Get(a), "alpha");
  EXPECT_EQ(arena.Get(b), "beta");
}

TEST(StringArenaTest, FindDoesNotIntern) {
  StringArena arena;
  arena.Intern("present");
  EXPECT_TRUE(arena.Find("present").has_value());
  EXPECT_FALSE(arena.Find("absent").has_value());
  EXPECT_EQ(arena.size(), 1u);
}

TEST(StringArenaTest, AddressesStableAcrossGrowth) {
  StringArena arena;
  uint32_t first = arena.Intern("first");
  const std::string* p = &arena.Get(first);
  for (int i = 0; i < 1000; ++i) arena.Intern("s" + std::to_string(i));
  EXPECT_EQ(p, &arena.Get(first));  // deque storage never relocates
  EXPECT_EQ(*p, "first");
}

TEST(ColumnBatchTest, RelationRoundTripAllTypes) {
  Relation r(MakeSchema("R(a, b double, c string)"), Semantics::kBag);
  SQ_ASSERT_OK(r.Insert(Tuple({1, 1.5, "x"}), 2));
  SQ_ASSERT_OK(r.Insert(Tuple({Value(), -0.0, ""}), 1));
  SQ_ASSERT_OK(r.Insert(Tuple({-7, 2.0, "x"}), 3));
  ColumnBatch batch = ColumnBatch::FromRelation(r);
  EXPECT_EQ(batch.rows(), 3u);
  EXPECT_EQ(batch.cols(), 3u);
  SQ_ASSERT_OK_AND_ASSIGN(Relation back, batch.ToRelation(Semantics::kBag));
  EXPECT_TRUE(back.EqualContents(r));
}

TEST(ColumnBatchTest, DeltaRoundTripKeepsSignedCounts) {
  Delta d(MakeSchema("R(a, s string)"));
  SQ_ASSERT_OK(d.Add(Tuple({1, "ins"}), 4));
  SQ_ASSERT_OK(d.Add(Tuple({2, "del"}), -3));
  ColumnBatch batch = ColumnBatch::FromDelta(d);
  SQ_ASSERT_OK_AND_ASSIGN(Delta back, batch.ToDelta());
  EXPECT_TRUE(back.EqualContents(d));
}

TEST(ColumnBatchTest, GatherRowsSelectsAndSharesArena) {
  Relation r = MakeRelation("R(a, s string)",
                            {Tuple({1, "one"}), Tuple({2, "two"}),
                             Tuple({3, "three"})});
  ColumnBatch batch = ColumnBatch::FromRelation(r);
  // Find the row with a = 2.
  uint32_t row2 = 0;
  for (size_t i = 0; i < batch.rows(); ++i) {
    if (batch.ValueAt(0, i).AsInt() == 2) row2 = static_cast<uint32_t>(i);
  }
  ColumnBatch g = batch.GatherRows({row2, row2});
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_EQ(g.arena(), batch.arena());  // ids remain decodable
  EXPECT_EQ(g.ValueAt(1, 0).AsString(), "two");
  EXPECT_EQ(g.ValueAt(1, 1).AsString(), "two");
}

TEST(ColumnBatchTest, ProjectColumnsReordersUnderNewSchema) {
  Relation r = MakeRelation("R(a, b)", {Tuple({1, 10}), Tuple({2, 20})});
  ColumnBatch batch = ColumnBatch::FromRelation(r);
  SQ_ASSERT_OK_AND_ASSIGN(Schema out_schema,
                          r.schema().Project({"b", "a"}));
  ColumnBatch proj = batch.ProjectColumns({1, 0}, out_schema);
  SQ_ASSERT_OK_AND_ASSIGN(Relation back, proj.ToRelation(Semantics::kBag));
  EXPECT_EQ(Rows(back), "(10, 1) (20, 2) ");
}

TEST(ColumnBatchTest, PartialBuildLeavesOtherColumnsEmpty) {
  Relation r = MakeRelation("R(a, b, c)", {Tuple({1, 2, 3})});
  std::vector<size_t> only = {1};
  ColumnBatch batch = ColumnBatch::FromRelation(r, &only);
  EXPECT_EQ(batch.rows(), 1u);
  EXPECT_TRUE(batch.column(0).tags.empty());
  EXPECT_EQ(batch.column(1).tags.size(), 1u);
  EXPECT_TRUE(batch.column(2).tags.empty());
}

// ---------------------------------------------------------------------------
// EvalPredicate vs the scalar oracle
// ---------------------------------------------------------------------------

// Evaluates pred over rel both ways and asserts identical keep-sets.
void ExpectPredicateParity(const Relation& rel, const std::string& pred) {
  Expr::Ptr cond = Pred(pred);
  SQ_ASSERT_OK_AND_ASSIGN(BoundExpr bound,
                          BoundExpr::Bind(cond, rel.schema()));
  ColumnBatch batch = ColumnBatch::FromRelation(rel);
  auto vec = columnar::EvalPredicate(bound, batch);
  // Scalar oracle over the same row order.
  std::vector<uint32_t> expected;
  Status scalar_error = Status::OK();
  for (size_t r = 0; r < batch.rows(); ++r) {
    auto keep = bound.EvalBool(batch.RowAt(r));
    if (!keep.ok()) {
      scalar_error = keep.status();
      break;
    }
    if (*keep) expected.push_back(static_cast<uint32_t>(r));
  }
  if (!scalar_error.ok()) {
    EXPECT_FALSE(vec.ok()) << pred << ": scalar errored ("
                           << scalar_error.ToString()
                           << ") but vectorized succeeded";
    return;
  }
  ASSERT_TRUE(vec.ok()) << pred << ": " << vec.status().ToString();
  EXPECT_EQ(*vec, expected) << pred;
}

TEST(EvalPredicateTest, MatchesScalarOnIntColumns) {
  Relation r(MakeSchema("R(a, b)"), Semantics::kBag);
  for (int i = -5; i <= 5; ++i) {
    SQ_ASSERT_OK(r.Insert(Tuple({i, i * i}), 1 + (i & 3)));
  }
  for (const char* pred :
       {"a > 0", "a >= b", "a + b = 6", "a * a - b = 0", "b / a > 1",
        "a < 0 OR b > 10", "a > -3 AND a < 3", "NOT (a = 0)", "a - b <= -2",
        "-a = 3"}) {
    ExpectPredicateParity(r, pred);
  }
}

TEST(EvalPredicateTest, MatchesScalarOnMixedAndNullColumns) {
  Relation r(MakeSchema("R(a, x double, s string)"), Semantics::kBag);
  SQ_ASSERT_OK(r.Insert(Tuple({1, 1.5, "p"}), 1));
  SQ_ASSERT_OK(r.Insert(Tuple({2, 2.0, "q"}), 2));
  SQ_ASSERT_OK(r.Insert(Tuple({Value(), -0.0, ""}), 1));
  SQ_ASSERT_OK(r.Insert(Tuple({4, Value(), "p"}), 1));
  for (const char* pred :
       {"a < x", "x = 2", "x >= 0", "s = 'p'", "s != 'q'", "a + x > 3",
        "a = a", "x / 0 = 1", "NOT (x < 1)"}) {
    ExpectPredicateParity(r, pred);
  }
}

TEST(EvalPredicateTest, DivisionByZeroYieldsNullNotError) {
  Relation r = MakeRelation("R(a)", {Tuple({0}), Tuple({2})});
  // 4 / 0 -> NULL -> not truthy; 4 / 2 = 2 -> truthy.
  ExpectPredicateParity(r, "4 / a = 2");
}

TEST(EvalPredicateTest, TypeErrorsMatchScalar) {
  Relation r = MakeRelation("R(a, s string)", {Tuple({1, "x"})});
  // Arithmetic on a string errors in both engines.
  ExpectPredicateParity(r, "a + s > 0");
  // Comparison across numeric/string boundary errors in both engines.
  ExpectPredicateParity(r, "a < s");
}

TEST(EvalPredicateTest, ConstantFoldsSelectAllOrNone) {
  Relation r = MakeRelation("R(a)", {Tuple({1}), Tuple({2}), Tuple({3})});
  ExpectPredicateParity(r, "1 = 1");
  ExpectPredicateParity(r, "1 = 2");
}

// ---------------------------------------------------------------------------
// Kernel parity against the row operators
// ---------------------------------------------------------------------------

// Runs fn twice — row mode and columnar mode (threshold 0) — and asserts
// bag-identical relations.
template <typename Fn>
void ExpectRelationParity(Fn fn) {
  Relation row_result, col_result;
  {
    columnar::ScopedColumnarMode row_mode(false);
    auto res = fn();
    SQ_ASSERT_OK(res.status());
    row_result = std::move(res).value();
  }
  {
    columnar::ScopedColumnarMode col_mode(true, /*min_rows=*/0);
    auto res = fn();
    SQ_ASSERT_OK(res.status());
    col_result = std::move(res).value();
  }
  EXPECT_TRUE(col_result.EqualContents(row_result))
      << "columnar:\n" << col_result.ToString()
      << "row:\n" << row_result.ToString();
  EXPECT_EQ(col_result.semantics(), row_result.semantics());
  EXPECT_EQ(Rows(col_result), Rows(row_result));
}

template <typename Fn>
void ExpectDeltaParity(Fn fn) {
  Delta row_result, col_result;
  {
    columnar::ScopedColumnarMode row_mode(false);
    auto res = fn();
    SQ_ASSERT_OK(res.status());
    row_result = std::move(res).value();
  }
  {
    columnar::ScopedColumnarMode col_mode(true, /*min_rows=*/0);
    auto res = fn();
    SQ_ASSERT_OK(res.status());
    col_result = std::move(res).value();
  }
  EXPECT_TRUE(col_result.EqualContents(row_result))
      << "columnar: " << col_result.ToString()
      << "\nrow: " << row_result.ToString();
}

TEST(ColumnarKernelTest, SelectParity) {
  Relation r(MakeSchema("R(a, b, s string)"), Semantics::kBag);
  for (int i = 0; i < 40; ++i) {
    SQ_ASSERT_OK(
        r.Insert(Tuple({i, i % 7, i % 2 ? "odd" : "even"}), 1 + i % 3));
  }
  SQ_ASSERT_OK(r.Insert(Tuple({100, Value(), "odd"}), 2));
  for (const char* pred :
       {"a > 20", "b = 3 AND s = 'odd'", "a * b < 50", "b != 0 OR a = 100"}) {
    ExpectRelationParity([&] { return OpSelect(r, Pred(pred)); });
  }
}

TEST(ColumnarKernelTest, ProjectParityBagAndSet) {
  Relation r(MakeSchema("R(a, b, s string)"), Semantics::kBag);
  for (int i = 0; i < 30; ++i) {
    SQ_ASSERT_OK(r.Insert(Tuple({i % 5, i, "s" + std::to_string(i % 3)}), 2));
  }
  ExpectRelationParity(
      [&] { return OpProject(r, {"a"}, Semantics::kBag); });
  ExpectRelationParity(
      [&] { return OpProject(r, {"a", "s"}, Semantics::kSet); });
  ExpectRelationParity(
      [&] { return OpProject(r, {"s", "a"}, Semantics::kBag); });
}

TEST(ColumnarKernelTest, JoinParityEquiAndResidual) {
  Relation l(MakeSchema("L(k, a)"), Semantics::kBag);
  Relation r(MakeSchema("R(k2, b)"), Semantics::kBag);
  for (int i = 0; i < 25; ++i) {
    SQ_ASSERT_OK(l.Insert(Tuple({i % 8, i}), 1 + i % 2));
    SQ_ASSERT_OK(r.Insert(Tuple({i % 6, 100 - i}), 1 + i % 3));
  }
  ExpectRelationParity([&] { return OpJoin(l, r, Pred("k = k2")); });
  ExpectRelationParity(
      [&] { return OpJoin(l, r, Pred("k = k2 AND a + b < 105")); });
}

TEST(ColumnarKernelTest, JoinParityStringKeysAndProbeMiss) {
  Relation l = MakeRelation("L(s string, a)",
                            {Tuple({"x", 1}), Tuple({"y", 2}),
                             Tuple({"z", 3})});
  Relation r = MakeRelation("R(t string, b)",
                            {Tuple({"y", 10}), Tuple({"nope", 20})});
  ExpectRelationParity([&] { return OpJoin(l, r, Pred("s = t")); });
}

TEST(ColumnarKernelTest, JoinParityIntVsIntegralDoubleKeys) {
  // Value equality makes 2 and 2.0 the same join key; 2.5 matches nothing.
  Relation l = MakeRelation("L(k double, a)",
                            {Tuple({2.0, 1}), Tuple({2.5, 2}),
                             Tuple({-0.0, 3})});
  Relation r = MakeRelation("R(k2, b)", {Tuple({2, 10}), Tuple({0, 20})});
  ExpectRelationParity([&] { return OpJoin(l, r, Pred("k = k2")); });
}

TEST(ColumnarKernelTest, JoinParityNullKeys) {
  // OpJoin's hash path matches NULL keys to each other (Value equality);
  // both engines must agree.
  Relation l = MakeRelation("L(k, a)", {Tuple({Value(), 1}), Tuple({5, 2})});
  Relation r = MakeRelation("R(k2, b)",
                            {Tuple({Value(), 10}), Tuple({5, 20})});
  ExpectRelationParity([&] { return OpJoin(l, r, Pred("k = k2")); });
}

TEST(ColumnarKernelTest, JoinParitySkewedBags) {
  // Regression for the build-side tie-break: one side has few distinct rows
  // with huge multiplicities, the other many distinct rows. Counts must
  // multiply identically whichever side builds.
  Relation skew(MakeSchema("L(k, a)"), Semantics::kBag);
  SQ_ASSERT_OK(skew.Insert(Tuple({1, 1}), 1000));
  SQ_ASSERT_OK(skew.Insert(Tuple({2, 2}), 500));
  Relation wide(MakeSchema("R(k2, b)"), Semantics::kBag);
  for (int i = 0; i < 50; ++i) {
    SQ_ASSERT_OK(wide.Insert(Tuple({i % 3, i}), 1));
  }
  ExpectRelationParity([&] { return OpJoin(skew, wide, Pred("k = k2")); });
  ExpectRelationParity([&] { return OpJoin(wide, skew, Pred("k2 = k")); });
}

TEST(ColumnarKernelTest, DeltaSelectProjectJoinParity) {
  Delta d(MakeSchema("D(k, a)"));
  for (int i = 0; i < 30; ++i) {
    SQ_ASSERT_OK(d.Add(Tuple({i % 9, i}), (i % 2) ? 2 : -1));
  }
  Relation rel(MakeSchema("R(k2, b)"), Semantics::kBag);
  for (int i = 0; i < 20; ++i) {
    SQ_ASSERT_OK(rel.Insert(Tuple({i % 5, i}), 1 + i % 2));
  }
  ExpectDeltaParity([&] { return DeltaSelect(d, Pred("a > 10")); });
  ExpectDeltaParity([&] { return DeltaProject(d, {"k"}); });
  ExpectDeltaParity([&] { return DeltaJoinRelation(d, rel, Pred("k = k2")); });
  ExpectDeltaParity([&] { return RelationJoinDelta(rel, d, Pred("k2 = k")); });
  ExpectDeltaParity([&] {
    return DeltaJoinRelation(d, rel, Pred("k = k2 AND a + b > 12"));
  });
}

TEST(ColumnarKernelTest, DeltaJoinDropsNullKeysLikeRowKernel) {
  // JoinDeltaWithRelation re-evaluates the full condition on joined rows,
  // so NULL = NULL matches in the table but is then filtered out. The
  // columnar kernel must reproduce that (it differs from OpJoin!).
  Delta d(MakeSchema("D(k, a)"));
  SQ_ASSERT_OK(d.Add(Tuple({Value(), 1}), 1));
  SQ_ASSERT_OK(d.Add(Tuple({3, 2}), 1));
  Relation rel = MakeRelation("R(k2, b)",
                              {Tuple({Value(), 10}), Tuple({3, 20})});
  ExpectDeltaParity([&] { return DeltaJoinRelation(d, rel, Pred("k = k2")); });
  {
    columnar::ScopedColumnarMode col_mode(true, 0);
    SQ_ASSERT_OK_AND_ASSIGN(Delta out,
                            DeltaJoinRelation(d, rel, Pred("k = k2")));
    EXPECT_EQ(out.AtomCount(), 1u);  // only the (3,...) pair survives
  }
}

TEST(ColumnarKernelTest, BetweenParity) {
  Relation from(MakeSchema("R(a, s string)"), Semantics::kBag);
  Relation to(MakeSchema("R(a, s string)"), Semantics::kBag);
  for (int i = 0; i < 30; ++i) {
    SQ_ASSERT_OK(from.Insert(Tuple({i, "v" + std::to_string(i % 4)}), 1 + i % 3));
  }
  for (int i = 10; i < 40; ++i) {
    SQ_ASSERT_OK(to.Insert(Tuple({i, "v" + std::to_string(i % 4)}), 1 + i % 2));
  }
  ExpectDeltaParity([&] { return Delta::Between(from, to); });
  ExpectDeltaParity([&] { return Delta::Between(to, from); });
  // Applying the columnar-computed delta really transforms from into to.
  {
    columnar::ScopedColumnarMode col_mode(true, 0);
    SQ_ASSERT_OK_AND_ASSIGN(Delta d, Delta::Between(from, to));
    Relation applied = from;
    SQ_ASSERT_OK(ApplyDelta(&applied, d));
    EXPECT_TRUE(applied.EqualContents(to));
  }
}

TEST(ColumnarKernelTest, SelectErrorParity) {
  Relation r = MakeRelation("R(a, s string)", {Tuple({1, "x"})});
  columnar::ScopedColumnarMode col_mode(true, 0);
  auto res = OpSelect(r, Pred("a + s > 0"));
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// IN predicate: row evaluator vs columnar kernel
// ---------------------------------------------------------------------------

// A column mixing NULL, ints, integral and fractional doubles, -0.0 and
// strings: every membership edge the restriction's key sets can meet.
Relation MixedKeyRelation() {
  Relation r(MakeSchema("R(k, n)"), Semantics::kBag);
  std::vector<Value> keys = {Value(),  Value(5),    Value(5.0),  Value(6),
                             Value(-0.0), Value(0), Value(2.5), Value("5"),
                             Value("x"), Value(-7), Value(1e300)};
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(r.Insert(Tuple({keys[i], static_cast<int64_t>(i)}),
                         1 + static_cast<int64_t>(i % 3))
                    .ok());
  }
  return r;
}

// Rows of \p batch that the row evaluator keeps under \p bound.
std::vector<uint32_t> RowKeepSet(const BoundExpr& bound,
                                 const ColumnBatch& batch) {
  std::vector<uint32_t> keep;
  for (size_t r = 0; r < batch.rows(); ++r) {
    auto v = bound.EvalBool(batch.RowAt(r));
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    if (v.ok() && *v) keep.push_back(static_cast<uint32_t>(r));
  }
  return keep;
}

TEST(InPredicateTest, MembershipSemantics) {
  Expr::Ptr in = Expr::In("k", {Value(5), Value(-0.0), Value("x")});
  SQ_ASSERT_OK_AND_ASSIGN(BoundExpr bound,
                          BoundExpr::Bind(in, MakeSchema("R(k)")));
  auto member = [&](Value v) {
    auto r = bound.Eval(Tuple({std::move(v)}));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->AsInt() : -1;
  };
  EXPECT_EQ(member(Value(5)), 1);
  EXPECT_EQ(member(Value(5.0)), 1);    // cross-type numeric equality
  EXPECT_EQ(member(Value(0)), 1);      // -0.0 == 0
  EXPECT_EQ(member(Value(0.0)), 1);
  EXPECT_EQ(member(Value("x")), 1);
  EXPECT_EQ(member(Value("5")), 0);    // another type: not a member
  EXPECT_EQ(member(Value(6)), 0);
  EXPECT_EQ(member(Value()), 0);       // NULL is never a member
  EXPECT_EQ(member(Value(std::nan(""))), 0);
  // The empty list rejects everything without evaluating to NULL.
  SQ_ASSERT_OK_AND_ASSIGN(
      BoundExpr none, BoundExpr::Bind(Expr::In("k", {}), MakeSchema("R(k)")));
  SQ_ASSERT_OK_AND_ASSIGN(Value v, none.Eval(Tuple({Value(5)})));
  EXPECT_EQ(v, Value(0));
}

TEST(InPredicateTest, RowColumnarParity) {
  Relation r = MixedKeyRelation();
  ColumnBatch batch = ColumnBatch::FromRelation(r);
  std::vector<int64_t> many;  // larger than the columnar MinRows default
  for (int64_t i = -40; i < 40; ++i) many.push_back(i);
  std::vector<Value> many_values(many.begin(), many.end());
  std::vector<Expr::Ptr> conds = {
      Expr::In("k", {Value(5)}),
      Expr::In("k", {Value(5.0), Value(0.0)}),
      Expr::In("k", {Value(-0.0)}),
      Expr::In("k", {Value("5"), Value("x")}),
      Expr::In("k", {Value(), Value(2.5)}),
      Expr::In("k", {}),
      Expr::In("k", many_values),
      Expr::In("n", many_values),
      Expr::Not(Expr::In("k", {Value(6), Value(-7)})),
      Expr::Or(Expr::In("k", {Value(1e300)}), Pred("n = 0")),
      Expr::And(Expr::In("n", {Value(1), Value(2), Value(3)}),
                Expr::In("k", {Value(5), Value(6)})),
  };
  for (const auto& cond : conds) {
    SQ_ASSERT_OK_AND_ASSIGN(BoundExpr bound,
                            BoundExpr::Bind(cond, r.schema()));
    SQ_ASSERT_OK_AND_ASSIGN(std::vector<uint32_t> vec,
                            columnar::EvalPredicate(bound, batch));
    EXPECT_EQ(vec, RowKeepSet(bound, batch)) << cond->ToString();
    ExpectRelationParity([&] { return OpSelect(r, cond); });
  }
  ExpectDeltaParity([&]() -> Result<Delta> {
    Delta d(r.schema());
    SQ_RETURN_IF_ERROR(d.Add(Tuple({Value(5.0), 1}), -1));
    SQ_RETURN_IF_ERROR(d.Add(Tuple({Value("x"), 2}), 2));
    SQ_RETURN_IF_ERROR(d.Add(Tuple({Value(), 3}), 1));
    return DeltaSelect(d, Expr::In("k", {Value(5), Value("x")}));
  });
}

// ---------------------------------------------------------------------------
// PackedJoinTable
// ---------------------------------------------------------------------------

TEST(PackedJoinTableTest, ChainsDuplicateKeysAndMissesAbsentStrings) {
  columnar::PackedJoinTable table(1);
  std::vector<size_t> pos = {0};
  Tuple a1({Value("k1")});
  Tuple a2({Value("k1")});
  Tuple b({Value("k2")});
  EXPECT_EQ(table.AddBuildRow(a1, pos), 0);
  EXPECT_EQ(table.AddBuildRow(a2, pos), 1);
  EXPECT_EQ(table.AddBuildRow(b, pos), 2);
  table.Finalize();
  // Both k1 rows reachable through the chain.
  int32_t hit = table.ProbeRow(Tuple({Value("k1")}), pos);
  ASSERT_GE(hit, 0);
  int32_t second = table.NextInChain(hit);
  ASSERT_GE(second, 0);
  EXPECT_EQ(table.NextInChain(second), -1);
  EXPECT_NE(hit, second);
  // Probe-side string never interned -> guaranteed miss, arena untouched.
  EXPECT_EQ(table.ProbeRow(Tuple({Value("absent")}), pos), -1);
}

TEST(PackedJoinTableTest, NormalizesIntegralDoubleAndNegZeroKeys) {
  columnar::PackedJoinTable table(1);
  std::vector<size_t> pos = {0};
  table.AddBuildRow(Tuple({2}), pos);
  table.AddBuildRow(Tuple({0}), pos);
  table.Finalize();
  EXPECT_GE(table.ProbeRow(Tuple({2.0}), pos), 0);   // 2.0 == 2
  EXPECT_GE(table.ProbeRow(Tuple({-0.0}), pos), 0);  // -0.0 == 0
  EXPECT_EQ(table.ProbeRow(Tuple({2.5}), pos), -1);
}

TEST(PackedJoinTableTest, NullKeysMatchEachOther) {
  columnar::PackedJoinTable table(2);
  std::vector<size_t> pos = {0, 1};
  table.AddBuildRow(Tuple({Value(), 7}), pos);
  table.Finalize();
  EXPECT_GE(table.ProbeRow(Tuple({Value(), 7}), pos), 0);
  EXPECT_EQ(table.ProbeRow(Tuple({Value(), 8}), pos), -1);
}

TEST(PackedJoinTableTest, EmptyTableProbesMiss) {
  columnar::PackedJoinTable table(1);
  table.Finalize();
  EXPECT_EQ(table.ProbeRow(Tuple({1}), {0}), -1);
}

// ---------------------------------------------------------------------------
// Memoized tuple hash (satellite: cached TupleHash)
// ---------------------------------------------------------------------------

TEST(TupleHashMemoTest, HashStableAndCarriedByCopyAndMove) {
  Tuple t({1, "abc", 2.5});
  uint64_t h = t.Hash();
  EXPECT_EQ(t.Hash(), h);  // memoized second call
  Tuple copy = t;
  EXPECT_EQ(copy.Hash(), h);
  Tuple moved = std::move(copy);
  EXPECT_EQ(moved.Hash(), h);
}

TEST(TupleHashMemoTest, MutationInvalidatesCache) {
  Tuple t({1, 2});
  uint64_t h = t.Hash();
  t.at(0) = Value(99);
  EXPECT_NE(t.Hash(), h);
  EXPECT_EQ(t.Hash(), Tuple({99, 2}).Hash());
  Tuple u({1, 2});
  (void)u.Hash();
  u.Append(Value(3));
  EXPECT_EQ(u.Hash(), Tuple({1, 2, 3}).Hash());
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(ColumnarModeTest, ScopedModeRestoresPreviousState) {
  bool prev_enabled = columnar::Enabled();
  size_t prev_min = columnar::MinRows();
  {
    columnar::ScopedColumnarMode mode(!prev_enabled, 0);
    EXPECT_EQ(columnar::Enabled(), !prev_enabled);
    EXPECT_EQ(columnar::MinRows(), 0u);
  }
  EXPECT_EQ(columnar::Enabled(), prev_enabled);
  EXPECT_EQ(columnar::MinRows(), prev_min);
}

TEST(ColumnarModeTest, ThresholdRoutesSmallInputsToRowPath) {
  columnar::ScopedColumnarMode mode(true, 10);
  EXPECT_FALSE(columnar::ShouldUse(9));
  EXPECT_TRUE(columnar::ShouldUse(10));
  columnar::SetEnabled(false);
  EXPECT_FALSE(columnar::ShouldUse(10));
}

}  // namespace
}  // namespace squirrel
