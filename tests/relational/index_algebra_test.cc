#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "delta/delta.h"
#include "relational/algebra.h"
#include "relational/index.h"
#include "testing/util.h"

namespace squirrel {
namespace {

using testing::MakeRelation;
using testing::ProbeRows;
using testing::Rows;

// The HashIndexTest and HashIndexApplyDeltaTest suites are named after the
// tuple-copying index KeyIndex replaced; their cases carried over unchanged
// in intent, so they keep their IDs.

TEST(HashIndexTest, ProbeFindsMatchingTuples) {
  Relation r = MakeRelation("R(a, b)",
                            {Tuple({1, 10}), Tuple({1, 20}), Tuple({2, 30})});
  SQ_ASSERT_OK_AND_ASSIGN(KeyIndex index, KeyIndex::Build(r, {"a"}));
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(ProbeRows(index, Tuple({1})), "(1, 10) (1, 20) ");
  EXPECT_EQ(ProbeRows(index, Tuple({Value(1.0)})), "(1, 10) (1, 20) ");
  // A missing key matches nothing and adds no entry.
  EXPECT_EQ(ProbeRows(index, Tuple({9})), "");
  EXPECT_EQ(ProbeRows(index, Tuple({Value()})), "");
  EXPECT_EQ(index.size(), 3u);
}

TEST(HashIndexTest, CompositeKeys) {
  Relation r = MakeRelation("R(a, b, c)",
                            {Tuple({1, 10, 100}), Tuple({1, 20, 200})});
  SQ_ASSERT_OK_AND_ASSIGN(KeyIndex index, KeyIndex::Build(r, {"a", "b"}));
  EXPECT_EQ(ProbeRows(index, Tuple({1, 10})), "(1, 10, 100) ");
  EXPECT_EQ(ProbeRows(index, Tuple({10, 1})), "");
  // Probe values may sit anywhere in a wider tuple, named by position in
  // key order.
  std::vector<Tuple> hits;
  SQ_ASSERT_OK(index.ForEachMatch(
      Tuple({20, "x", 1}), {2, 0}, [&](const Tuple& row, int64_t count) {
        EXPECT_EQ(count, 1);
        hits.push_back(row);
        return Status::OK();
      }));
  EXPECT_EQ(hits, (std::vector<Tuple>{Tuple({1, 20, 200})}));
}

TEST(HashIndexTest, CarriesMultiplicities) {
  Relation r(testing::MakeSchema("R(a)"), Semantics::kBag);
  SQ_ASSERT_OK(r.Insert(Tuple({1}), 3));
  std::vector<KeyIndex> indexes;
  indexes.push_back(KeyIndex::Build(r, {"a"}).value());
  EXPECT_EQ(ProbeRows(indexes[0], Tuple({1})), "(1)x3 ");
  // Counts are read from the relation, so a count change needs no entry.
  Delta d(r.schema());
  SQ_ASSERT_OK(d.Add(Tuple({1}), 2));
  SQ_ASSERT_OK(ApplyIndexed(&r, d, indexes));
  EXPECT_EQ(ProbeRows(indexes[0], Tuple({1})), "(1)x5 ");
  EXPECT_EQ(indexes[0].size(), 1u);
}

TEST(HashIndexTest, UnknownAttributeFails) {
  Relation r = MakeRelation("R(a)", {Tuple({1})});
  auto index = KeyIndex::Build(r, {"zzz"});
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kNotFound);
}

TEST(HashIndexApplyDeltaTest, InsertUpdatesCountsAndNewKeys) {
  Relation r(testing::MakeSchema("R(a, b)"), Semantics::kBag);
  SQ_ASSERT_OK(r.Insert(Tuple({1, 10})));
  std::vector<KeyIndex> indexes;
  indexes.push_back(KeyIndex::Build(r, {"a"}).value());
  Delta d(r.schema());
  SQ_ASSERT_OK(d.Add(Tuple({1, 10}), 2));  // existing tuple: count bump
  SQ_ASSERT_OK(d.Add(Tuple({2, 20}), 1));  // brand-new key
  SQ_ASSERT_OK(ApplyIndexed(&r, d, indexes));
  EXPECT_EQ(indexes[0].size(), 2u);
  EXPECT_EQ(ProbeRows(indexes[0], Tuple({1})), "(1, 10)x3 ");
  EXPECT_EQ(ProbeRows(indexes[0], Tuple({2})), "(2, 20) ");
}

TEST(HashIndexApplyDeltaTest, DeleteToZeroRemovesEntryAndBucket) {
  Relation r =
      MakeRelation("R(a, b)", {Tuple({1, 10}), Tuple({1, 20}), Tuple({2, 30})});
  std::vector<KeyIndex> indexes;
  indexes.push_back(KeyIndex::Build(r, {"a"}).value());
  Delta d1(r.schema());
  SQ_ASSERT_OK(d1.Add(Tuple({1, 10}), -1));
  SQ_ASSERT_OK(ApplyIndexed(&r, d1, indexes));
  EXPECT_EQ(ProbeRows(indexes[0], Tuple({1})), "(1, 20) ");

  Delta d2(r.schema());
  SQ_ASSERT_OK(d2.Add(Tuple({2, 30}), -1));
  SQ_ASSERT_OK(ApplyIndexed(&r, d2, indexes));
  EXPECT_EQ(indexes[0].size(), 1u);
  EXPECT_EQ(ProbeRows(indexes[0], Tuple({2})), "");
}

TEST(HashIndexApplyDeltaTest, ReinsertAfterDeleteToZero) {
  Relation r(testing::MakeSchema("R(a, b)"), Semantics::kBag);
  SQ_ASSERT_OK(r.Insert(Tuple({1, 10})));
  std::vector<KeyIndex> indexes;
  indexes.push_back(KeyIndex::Build(r, {"a"}).value());
  Delta del(r.schema());
  SQ_ASSERT_OK(del.Add(Tuple({1, 10}), -1));
  SQ_ASSERT_OK(ApplyIndexed(&r, del, indexes));
  EXPECT_EQ(indexes[0].size(), 0u);
  Delta ins(r.schema());
  SQ_ASSERT_OK(ins.Add(Tuple({1, 10}), 4));
  SQ_ASSERT_OK(ApplyIndexed(&r, ins, indexes));
  EXPECT_EQ(ProbeRows(indexes[0], Tuple({1})), "(1, 10)x4 ");
}

TEST(HashIndexApplyDeltaTest, StrictErrors) {
  Relation r = MakeRelation("R(a, b)", {Tuple({1, 10}), Tuple({2, 20})});
  std::vector<KeyIndex> indexes;
  indexes.push_back(KeyIndex::Build(r, {"a"}).value());
  const std::string before = Rows(r);
  // Each rejected delta first unindexes (2, 20), which it would erase.
  Delta absent(r.schema());
  SQ_ASSERT_OK(absent.Add(Tuple({2, 20}), -1));
  SQ_ASSERT_OK(absent.Add(Tuple({9, 90}), -1));
  EXPECT_FALSE(ApplyIndexed(&r, absent, indexes).ok());  // absent tuple
  Delta under(r.schema());
  SQ_ASSERT_OK(under.Add(Tuple({2, 20}), -1));
  SQ_ASSERT_OK(under.Add(Tuple({1, 10}), -2));
  EXPECT_FALSE(ApplyIndexed(&r, under, indexes).ok());  // count underflow
  Delta wrong(testing::MakeSchema("X(z)"));
  SQ_ASSERT_OK(wrong.Add(Tuple({1}), 1));
  EXPECT_FALSE(ApplyIndexed(&r, wrong, indexes).ok());  // schema mismatch
  EXPECT_EQ(Rows(r), before);
  EXPECT_EQ(indexes[0].size(), 2u);
  EXPECT_EQ(ProbeRows(indexes[0], Tuple({2})), "(2, 20) ");
  // An index built on another relation is refused before anything changes.
  Relation other = r;
  Delta ok(r.schema());
  SQ_ASSERT_OK(ok.Add(Tuple({3, 30}), 1));
  auto st = ApplyIndexed(&other, ok, indexes);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(other.Contains(Tuple({3, 30})));
}

TEST(HashIndexApplyDeltaTest, MirrorsApplyDeltaOnRelation) {
  Relation r(testing::MakeSchema("R(a, b)"), Semantics::kBag);
  SQ_ASSERT_OK(r.Insert(Tuple({1, 10}), 2));
  SQ_ASSERT_OK(r.Insert(Tuple({2, 20}), 1));
  std::vector<KeyIndex> indexes;
  indexes.push_back(KeyIndex::Build(r, {"a"}).value());
  Relation plain = r;
  Delta d(r.schema());
  SQ_ASSERT_OK(d.Add(Tuple({1, 10}), -2));
  SQ_ASSERT_OK(d.Add(Tuple({2, 20}), 3));
  SQ_ASSERT_OK(d.Add(Tuple({3, 30}), 1));
  SQ_ASSERT_OK(ApplyDelta(&plain, d));
  SQ_ASSERT_OK(ApplyIndexed(&r, d, indexes));
  EXPECT_TRUE(r.EqualContents(plain));
  SQ_ASSERT_OK_AND_ASSIGN(KeyIndex rebuilt, KeyIndex::Build(r, {"a"}));
  EXPECT_EQ(indexes[0].size(), rebuilt.size());
  for (int a = 1; a <= 3; ++a) {
    EXPECT_EQ(ProbeRows(indexes[0], Tuple({a})),
              ProbeRows(rebuilt, Tuple({a})));
  }
}

// The rows of \p rel whose \p attrs equal \p key, rendered like Rows().
std::string ScanRows(const Relation& rel,
                     const std::vector<std::string>& attrs, const Tuple& key) {
  Relation hits(rel.schema(), Semantics::kBag);
  rel.ForEach([&](const Tuple& t, int64_t count) {
    for (size_t k = 0; k < attrs.size(); ++k) {
      if (t.at(*rel.schema().IndexOf(attrs[k])) != key.at(k)) return;
    }
    SQ_EXPECT_OK(hits.Insert(t, count));
  });
  return Rows(hits);
}

// Key values that stress equality: NULL, 5 and the equal 5.0, 0 and the
// equal -0.0, plus two plain values.
const std::vector<Value>& KeyPool() {
  static const std::vector<Value> pool = {Value(), Value(5),    Value(5.0),
                                          Value(0), Value(-0.0), Value(7),
                                          Value("x")};
  return pool;
}

// Every probe of every index equals a filtered scan and a fresh build.
void ExpectExact(const std::vector<KeyIndex>& indexes, const Relation& rel,
                 const std::string& label) {
  for (const KeyIndex& index : indexes) {
    ASSERT_EQ(index.size(), rel.DistinctSize()) << label;
    SQ_ASSERT_OK_AND_ASSIGN(KeyIndex fresh,
                            KeyIndex::Build(rel, index.attrs()));
    std::vector<Tuple> keys;
    for (const Value& v : KeyPool()) {
      if (index.attrs().size() == 1) {
        keys.push_back(Tuple({v}));
        continue;
      }
      for (const Value& w : KeyPool()) keys.push_back(Tuple({v, w}));
    }
    for (const Tuple& key : keys) {
      const std::string probed = ProbeRows(index, key);
      EXPECT_EQ(probed, ScanRows(rel, index.attrs(), key))
          << label << " key " << key.ToString();
      EXPECT_EQ(probed, ProbeRows(fresh, key))
          << label << " key " << key.ToString();
    }
  }
}

TEST(KeyIndexTest, RandomizedApplyIndexedMatchesScanAndRebuild) {
  for (Semantics sem : {Semantics::kSet, Semantics::kBag}) {
    const std::string label = sem == Semantics::kSet ? "set" : "bag";
    Relation rel(testing::MakeSchema("R(a, b, c)"), sem);
    std::vector<KeyIndex> indexes;
    indexes.push_back(KeyIndex::Build(rel, {"a"}).value());
    indexes.push_back(KeyIndex::Build(rel, {"b", "a"}).value());
    Rng rng(sem == Semantics::kSet ? 11 : 12);
    auto pick = [&]() { return KeyPool()[rng.Uniform(KeyPool().size())]; };
    std::set<Tuple> erased;
    int multi = 0, reinserted = 0, rejected = 0;
    for (int step = 0; step < 300; ++step) {
      Delta d(rel.schema());
      const auto rows = rel.SortedRows();
      const int atoms = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < atoms; ++i) {
        if (!rows.empty() && rng.Uniform(2) == 0) {
          const auto& [t, count] = rows[rng.Uniform(rows.size())];
          if (d.CountOf(t) != 0) continue;
          SQ_ASSERT_OK(d.Add(t, -rng.UniformInt(1, count)));
        } else {
          Tuple t({pick(), pick(), static_cast<int>(rng.Uniform(2))});
          if (d.CountOf(t) != 0) continue;
          if (sem == Semantics::kSet && rel.Contains(t)) continue;
          SQ_ASSERT_OK(
              d.Add(t, sem == Semantics::kSet ? 1 : rng.UniformInt(1, 3)));
        }
      }
      if (rng.Uniform(8) == 0) {
        // A redundant delete: the apply rejects it after the rows it would
        // erase have left the indexes.
        Tuple t({pick(), pick(), static_cast<int>(rng.Uniform(2))});
        SQ_ASSERT_OK(d.Add(t, -(rel.CountOf(t) + d.CountOf(t) + 1)));
      }
      Relation expected = rel;
      Status want = ApplyDelta(&expected, d);
      Status got = ApplyIndexed(&rel, d, indexes);
      ASSERT_EQ(got.ok(), want.ok()) << label << " step " << step << " "
                                     << got.ToString() << d.ToString();
      ASSERT_TRUE(rel.EqualContents(expected)) << label << " step " << step;
      if (!got.ok()) ++rejected;
      d.ForEach([&](const Tuple& t, int64_t count) {
        if (!got.ok()) return;
        if (count > 0 && erased.count(t)) ++reinserted;
        if (rel.CountOf(t) == 0) erased.insert(t);
      });
      rel.ForEach([&](const Tuple&, int64_t count) { multi += count > 1; });
      ExpectExact(indexes, rel, label + " step " + std::to_string(step));
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The run reached every case it exists for.
    EXPECT_GT(rejected, 0) << label;
    EXPECT_GT(reinserted, 0) << label;
    if (sem == Semantics::kBag) {
      EXPECT_GT(multi, 0) << label;
    }
  }
}

TEST(KeyIndexTest, SameAttrSetIgnoresOrder) {
  EXPECT_TRUE(SameAttrSet({"a", "b"}, {"b", "a"}));
  EXPECT_FALSE(SameAttrSet({"a", "b"}, {"a"}));
  EXPECT_FALSE(SameAttrSet({"a", "b"}, {"a", "c"}));
}

TEST(AlgebraExprTest, CollectScans) {
  auto e = ParseAlgebra("project[a]((R join S) union select[x = 1](R))");
  ASSERT_TRUE(e.ok());
  std::set<std::string> scans;
  (*e)->CollectScans(&scans);
  EXPECT_EQ(scans, (std::set<std::string>{"R", "S"}));
}

TEST(AlgebraExprTest, AccessorsPerKind) {
  auto e = ParseAlgebra("select[a = 1](R)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind(), AlgebraExpr::Kind::kSelect);
  EXPECT_FALSE((*e)->condition()->IsTrueLiteral());
  EXPECT_EQ((*e)->left()->relation(), "R");

  auto j = AlgebraExpr::Join(nullptr, AlgebraExpr::Scan("A"),
                             AlgebraExpr::Scan("B"));
  EXPECT_TRUE(j->condition()->IsTrueLiteral());  // null => cross product
}

TEST(AlgebraExprTest, ToStringStable) {
  auto e = ParseAlgebra("project[a](A) diff project[a](B)");
  ASSERT_TRUE(e.ok());
  auto round = ParseAlgebra((*e)->ToString());
  ASSERT_TRUE(round.ok()) << (*e)->ToString();
  EXPECT_EQ((*round)->ToString(), (*e)->ToString());
}

}  // namespace
}  // namespace squirrel
