// Unit tests for the relational engine's column-wise pieces: arena
// interning, partial batch builds, the vectorized predicate against the
// scalar BoundExpr oracle (IN membership included), the packed join-key
// table, and the memoized tuple hash.

#include "relational/columnar.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
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

// Decomposes every row of \p rel into a batch; \p rows receives the
// tuples in batch row order.
ColumnBatch BatchOf(const Relation& rel, std::vector<Tuple>* rows) {
  std::vector<size_t> all(rel.schema().size());
  std::iota(all.begin(), all.end(), 0);
  ColumnBatch batch(all.size(), all, rel.DistinctSize());
  rel.ForEach([&](const Tuple& t, int64_t) {
    batch.AppendRow(t);
    rows->push_back(t);
  });
  return batch;
}

TEST(ColumnBatchTest, PartialBuildLeavesOtherColumnsEmpty) {
  ColumnBatch batch(3, {1}, 1);
  batch.AppendRow(Tuple({1, 2, 3}));
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
  std::vector<Tuple> rows;
  ColumnBatch batch = BatchOf(rel, &rows);
  auto vec = columnar::EvalPredicate(bound, batch);
  // Scalar oracle over the same row order.
  std::vector<uint32_t> expected;
  Status scalar_error = Status::OK();
  for (size_t r = 0; r < rows.size(); ++r) {
    auto keep = bound.EvalBool(rows[r]);
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
  // Arithmetic on a string errors in both evaluators.
  ExpectPredicateParity(r, "a + s > 0");
  // Comparison across numeric/string boundary errors in both evaluators.
  ExpectPredicateParity(r, "a < s");
}

TEST(EvalPredicateTest, ConstantFoldsSelectAllOrNone) {
  Relation r = MakeRelation("R(a)", {Tuple({1}), Tuple({2}), Tuple({3})});
  ExpectPredicateParity(r, "1 = 1");
  ExpectPredicateParity(r, "1 = 2");
}

// ---------------------------------------------------------------------------
// IN predicate: row evaluator vs the vectorized predicate
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

// Positions in \p rows that the row evaluator keeps under \p bound.
std::vector<uint32_t> RowKeepSet(const BoundExpr& bound,
                                 const std::vector<Tuple>& rows) {
  std::vector<uint32_t> keep;
  for (size_t r = 0; r < rows.size(); ++r) {
    auto v = bound.EvalBool(rows[r]);
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
  std::vector<Tuple> rows;
  ColumnBatch batch = BatchOf(r, &rows);
  std::vector<int64_t> many;  // a long member list
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
    std::vector<uint32_t> keep = RowKeepSet(bound, rows);
    EXPECT_EQ(vec, keep) << cond->ToString();
    // OpSelect (vectorized) keeps exactly the oracle's rows, with counts.
    Relation expected(r.schema(), r.semantics());
    for (uint32_t k : keep) {
      SQ_ASSERT_OK(expected.Insert(rows[k], r.CountOf(rows[k])));
    }
    SQ_ASSERT_OK_AND_ASSIGN(Relation selected, OpSelect(r, cond));
    EXPECT_TRUE(selected.EqualContents(expected)) << cond->ToString();
  }
  // DeltaSelect's row loop applies the same membership to signed atoms.
  Delta d(r.schema());
  SQ_ASSERT_OK(d.Add(Tuple({Value(5.0), 1}), -1));
  SQ_ASSERT_OK(d.Add(Tuple({Value("x"), 2}), 2));
  SQ_ASSERT_OK(d.Add(Tuple({Value(), 3}), 1));
  SQ_ASSERT_OK_AND_ASSIGN(
      Delta kept, DeltaSelect(d, Expr::In("k", {Value(5), Value("x")})));
  EXPECT_EQ(kept.AtomCount(), 2u);
  EXPECT_EQ(kept.CountOf(Tuple({Value(5.0), 1})), -1);
  EXPECT_EQ(kept.CountOf(Tuple({Value("x"), 2})), 2);
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

}  // namespace
}  // namespace squirrel
