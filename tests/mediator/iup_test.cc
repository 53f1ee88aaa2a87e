// Tests for the IUP over the paper's Figure 1 VDP, exercising Examples
// 2.1 (fully materialized support), 2.2 (virtual auxiliary R'), and the
// preparation phase's poll avoidance claims.

#include "mediator/iup.h"

#include <gtest/gtest.h>

#include "source/source_db.h"
#include "testing/harness.h"
#include "testing/util.h"
#include "vdp/builder.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace {

using testing::DirectHarness;
using testing::MakeSchema;

class Figure1Fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db1_ = std::make_unique<SourceDb>("DB1");
    db2_ = std::make_unique<SourceDb>("DB2");
    SQ_ASSERT_OK(db1_->AddRelation("R", MakeSchema("R(r1, r2, r3, r4) key(r1)")));
    SQ_ASSERT_OK(db2_->AddRelation("S", MakeSchema("S(s1, s2, s3) key(s1)")));
    // Seed data: r1=1 matches, r1=2 fails s3 filter, r1=3 fails r4 filter.
    SQ_ASSERT_OK(db1_->InsertTuple(0, "R", Tuple({1, 100, 11, 100})));
    SQ_ASSERT_OK(db1_->InsertTuple(0, "R", Tuple({2, 200, 22, 100})));
    SQ_ASSERT_OK(db1_->InsertTuple(0, "R", Tuple({3, 100, 33, 999})));
    SQ_ASSERT_OK(db2_->InsertTuple(0, "S", Tuple({100, 5, 10})));
    SQ_ASSERT_OK(db2_->InsertTuple(0, "S", Tuple({200, 6, 99})));
  }

  std::unique_ptr<DirectHarness> MakeHarness(const Annotation& ann) {
    auto vdp = BuildFigure1Vdp();
    EXPECT_TRUE(vdp.ok());
    auto h = std::make_unique<DirectHarness>(
        std::move(vdp).value(), ann,
        std::map<std::string, SourceDb*>{{"DB1", db1_.get()},
                                         {"DB2", db2_.get()}});
    auto st = h->Load();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return h;
  }

  MultiDelta InsertR(const Tuple& t) {
    MultiDelta md;
    EXPECT_TRUE(md.Mutable("R", MakeSchema("R(r1, r2, r3, r4)"))
                    ->AddInsert(t)
                    .ok());
    return md;
  }
  MultiDelta DeleteR(const Tuple& t) {
    MultiDelta md;
    EXPECT_TRUE(md.Mutable("R", MakeSchema("R(r1, r2, r3, r4)"))
                    ->AddDelete(t)
                    .ok());
    return md;
  }
  MultiDelta InsertS(const Tuple& t) {
    MultiDelta md;
    EXPECT_TRUE(
        md.Mutable("S", MakeSchema("S(s1, s2, s3)"))->AddInsert(t).ok());
    return md;
  }
  MultiDelta DeleteS(const Tuple& t) {
    MultiDelta md;
    EXPECT_TRUE(
        md.Mutable("S", MakeSchema("S(s1, s2, s3)"))->AddDelete(t).ok());
    return md;
  }

  std::unique_ptr<SourceDb> db1_, db2_;
};

TEST_F(Figure1Fixture, InitialLoadMatchesView) {
  auto h = MakeHarness(AnnotationExample21());
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* t, h->store().Repo("T"));
  EXPECT_EQ(testing::Rows(*t), "(1, 11, 100, 5) ");
}

TEST_F(Figure1Fixture, Example21InsertPropagatesWithoutPolling) {
  auto h = MakeHarness(AnnotationExample21());
  SQ_ASSERT_OK_AND_ASSIGN(
      IupStats stats,
      h->CommitAndPropagate("DB1", 1, InsertR(Tuple({4, 100, 44, 100}))));
  // Fully materialized support: "T can be maintained ... without polling
  // of the source databases" (Example 2.1).
  EXPECT_EQ(stats.polls, 0u);
  EXPECT_EQ(h->polls(), 0u);
  SQ_ASSERT_OK(h->VerifyRepos());
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* t, h->store().Repo("T"));
  EXPECT_TRUE(t->Contains(Tuple({4, 44, 100, 5})));
}

TEST_F(Figure1Fixture, Example21DeletePropagates) {
  auto h = MakeHarness(AnnotationExample21());
  SQ_ASSERT_OK_AND_ASSIGN(
      IupStats stats,
      h->CommitAndPropagate("DB1", 1, DeleteR(Tuple({1, 100, 11, 100}))));
  EXPECT_EQ(stats.polls, 0u);
  SQ_ASSERT_OK(h->VerifyRepos());
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* t, h->store().Repo("T"));
  EXPECT_TRUE(t->Empty());
}

TEST_F(Figure1Fixture, Example21SUpdates) {
  auto h = MakeHarness(AnnotationExample21());
  SQ_ASSERT_OK_AND_ASSIGN(
      IupStats s1,
      h->CommitAndPropagate("DB2", 1, InsertS(Tuple({200, 7, 20}))));
  EXPECT_EQ(s1.polls, 0u);
  SQ_ASSERT_OK(h->VerifyRepos());
  // Now r1=2 joins s1=200 (s3=20 < 50).
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* t, h->store().Repo("T"));
  EXPECT_TRUE(t->Contains(Tuple({2, 22, 200, 7})));
  // Delete it again.
  SQ_ASSERT_OK_AND_ASSIGN(
      IupStats s2,
      h->CommitAndPropagate("DB2", 2, DeleteS(Tuple({200, 7, 20}))));
  EXPECT_EQ(s2.polls, 0u);
  SQ_ASSERT_OK(h->VerifyRepos());
}

TEST_F(Figure1Fixture, FilteredOutUpdateIsNoop) {
  auto h = MakeHarness(AnnotationExample21());
  // r4 != 100: filtered at the leaf-parent; nothing propagates.
  SQ_ASSERT_OK_AND_ASSIGN(
      IupStats stats,
      h->CommitAndPropagate("DB1", 1, InsertR(Tuple({9, 100, 99, 777}))));
  EXPECT_EQ(stats.nodes_processed, 0u);
  SQ_ASSERT_OK(h->VerifyRepos());
}

TEST_F(Figure1Fixture, Example22FrequentRUpdatesNeedNoPolling) {
  // R' virtual: ΔR propagation computes ΔT = ΔR' ⋈ S' from S' alone.
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample22(*vdp));
  EXPECT_FALSE(h->store().HasRepo("R'"));  // nothing materialized for R'
  for (int i = 0; i < 5; ++i) {
    SQ_ASSERT_OK_AND_ASSIGN(
        IupStats stats,
        h->CommitAndPropagate(
            "DB1", i + 1, InsertR(Tuple({10 + i, 100, 50 + i, 100}))));
    EXPECT_EQ(stats.polls, 0u) << "ΔR must not poll (Example 2.2)";
  }
  SQ_ASSERT_OK(h->VerifyRepos());
}

TEST_F(Figure1Fixture, Example22RareSUpdatePollsR) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample22(*vdp));
  // ΔS needs R' (virtual) to compute R' ⋈ ΔS': must poll DB1.
  SQ_ASSERT_OK_AND_ASSIGN(
      IupStats stats,
      h->CommitAndPropagate("DB2", 1, InsertS(Tuple({200, 7, 20}))));
  EXPECT_GE(stats.polls, 1u) << "ΔS must poll R (Example 2.2)";
  SQ_ASSERT_OK(h->VerifyRepos());
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* t, h->store().Repo("T"));
  EXPECT_TRUE(t->Contains(Tuple({2, 22, 200, 7})));
}

TEST_F(Figure1Fixture, Example22MixedCommitSequence) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample22(*vdp));
  SQ_ASSERT_OK(h->CommitAndPropagate("DB1", 1,
                                     InsertR(Tuple({4, 200, 44, 100})))
                   .status());
  SQ_ASSERT_OK(
      h->CommitAndPropagate("DB2", 2, InsertS(Tuple({300, 8, 5}))).status());
  SQ_ASSERT_OK(h->CommitAndPropagate("DB1", 3,
                                     InsertR(Tuple({5, 300, 55, 100})))
                   .status());
  SQ_ASSERT_OK(
      h->CommitAndPropagate("DB2", 4, DeleteS(Tuple({100, 5, 10}))).status());
  SQ_ASSERT_OK(h->VerifyRepos());
}

TEST_F(Figure1Fixture, Example23HybridMaintenance) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp));
  // T stores only (r1, s1).
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* t, h->store().Repo("T"));
  EXPECT_EQ(t->schema().AttributeNames(),
            (std::vector<std::string>{"r1", "s1"}));
  EXPECT_TRUE(t->Contains(Tuple({1, 100})));
  // Updates keep the hybrid projection correct.
  SQ_ASSERT_OK(h->CommitAndPropagate("DB1", 1,
                                     InsertR(Tuple({4, 100, 44, 100})))
                   .status());
  SQ_ASSERT_OK(
      h->CommitAndPropagate("DB2", 2, InsertS(Tuple({200, 7, 20}))).status());
  SQ_ASSERT_OK(h->VerifyRepos());
}

TEST_F(Figure1Fixture, PreparationRequestsNothingWhenMaterialized) {
  auto h = MakeHarness(AnnotationExample21());
  std::map<std::string, Delta> leaf_deltas;
  Delta d(MakeSchema("R(r1, r2, r3, r4)"));
  SQ_ASSERT_OK(d.AddInsert(Tuple({7, 100, 77, 100})));
  leaf_deltas.emplace("R", std::move(d));
  SQ_ASSERT_OK_AND_ASSIGN(auto requests,
                          h->iup().PrepareTempRequests(leaf_deltas));
  EXPECT_TRUE(requests.empty());
}

TEST_F(Figure1Fixture, PreparationSkipsFilteredDeltas) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample22(*vdp));
  // An S update failing s3<50 must not request the (virtual) R' temp.
  std::map<std::string, Delta> leaf_deltas;
  Delta d(MakeSchema("S(s1, s2, s3)"));
  SQ_ASSERT_OK(d.AddInsert(Tuple({500, 9, 99})));
  leaf_deltas.emplace("S", std::move(d));
  SQ_ASSERT_OK_AND_ASSIGN(auto requests,
                          h->iup().PrepareTempRequests(leaf_deltas));
  EXPECT_TRUE(requests.empty());
}

TEST_F(Figure1Fixture, PreparationRequestsVirtualSibling) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample22(*vdp));
  std::map<std::string, Delta> leaf_deltas;
  Delta d(MakeSchema("S(s1, s2, s3)"));
  SQ_ASSERT_OK(d.AddInsert(Tuple({500, 9, 9})));
  leaf_deltas.emplace("S", std::move(d));
  SQ_ASSERT_OK_AND_ASSIGN(auto requests,
                          h->iup().PrepareTempRequests(leaf_deltas));
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].node, "R'");
  EXPECT_EQ(requests[0].attrs,
            (std::vector<std::string>{"r1", "r2", "r3"}));
}

// ---------------------------------------------------------------------------
// Delta-restricted temporaries: the semi-join key sets of preparation
// ---------------------------------------------------------------------------

std::map<std::string, Delta> LeafDeltas(
    const std::string& leaf, const std::string& decl,
    const std::vector<std::pair<Tuple, int64_t>>& atoms) {
  Delta d(MakeSchema(decl));
  for (const auto& [t, c] : atoms) EXPECT_TRUE(d.Add(t, c).ok());
  std::map<std::string, Delta> out;
  out.emplace(leaf, std::move(d));
  return out;
}

std::vector<std::string> RequestStrings(
    const std::vector<TempRequest>& requests) {
  std::vector<std::string> out;
  for (const auto& r : requests) out.push_back(r.ToString());
  return out;
}

TEST_F(Figure1Fixture, RestrictionRequestsExactKeySets) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp));
  // ΔR requests S' restricted to the r2 keys of ΔR' (the r4 = 100 rows).
  SQ_ASSERT_OK_AND_ASSIGN(
      auto from_r,
      h->iup().PrepareTempRequests(LeafDeltas(
          "R", "R(r1, r2, r3, r4)",
          {{Tuple({4, 300, 44, 100}), 1},
           {Tuple({1, 100, 11, 100}), -1},
           {Tuple({5, 700, 55, 999}), 1}})));  // filtered out by R'
  EXPECT_EQ(RequestStrings(from_r),
            (std::vector<std::string>{"(S', [s1,s2], (s1 IN (100, 300)))"}));
  // ΔS requests R' restricted to the s1 keys of ΔS' (the s3 < 50 rows).
  SQ_ASSERT_OK_AND_ASSIGN(
      auto from_s,
      h->iup().PrepareTempRequests(LeafDeltas(
          "S", "S(s1, s2, s3)",
          {{Tuple({200, 7, 20}), 1}, {Tuple({900, 9, 99}), 1}})));
  EXPECT_EQ(RequestStrings(from_s),
            (std::vector<std::string>{"(R', [r1,r2,r3], (r2 IN (200)))"}));
}

TEST_F(Figure1Fixture, RestrictionDropsNullKeys) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp));
  // NULL join keys never join: a mixed delta keeps only the real key, an
  // all-NULL delta restricts the sibling to nothing.
  SQ_ASSERT_OK_AND_ASSIGN(
      auto mixed,
      h->iup().PrepareTempRequests(LeafDeltas(
          "R", "R(r1, r2, r3, r4)",
          {{Tuple({4, Value(), 44, 100}), 1},
           {Tuple({5, 100, 55, 100}), 1}})));
  EXPECT_EQ(RequestStrings(mixed),
            (std::vector<std::string>{"(S', [s1,s2], (s1 IN (100)))"}));
  SQ_ASSERT_OK_AND_ASSIGN(
      auto all_null,
      h->iup().PrepareTempRequests(LeafDeltas(
          "R", "R(r1, r2, r3, r4)", {{Tuple({4, Value(), 44, 100}), 1}})));
  EXPECT_EQ(RequestStrings(all_null),
            (std::vector<std::string>{"(S', [s1,s2], (s1 IN ()))"}));
  // End to end: NULL-keyed rows propagate exactly (they join nothing).
  SQ_ASSERT_OK(h->CommitAndPropagate("DB1", 1,
                                     InsertR(Tuple({4, Value(), 44, 100})))
                   .status());
  SQ_ASSERT_OK(h->VerifyRepos());
  SQ_ASSERT_OK(
      h->CommitAndPropagate("DB2", 2, InsertS(Tuple({500, 8, 5}))).status());
  SQ_ASSERT_OK(h->CommitAndPropagate("DB1", 3,
                                     DeleteR(Tuple({4, Value(), 44, 100})))
                   .status());
  SQ_ASSERT_OK(h->VerifyRepos());
}

TEST_F(Figure1Fixture, RestrictedPropagationMatchesRecompute) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp));
  // Inserts and deletes on both sides, joining and non-joining keys; each
  // poll now reads only the sibling rows under the delta's keys.
  SQ_ASSERT_OK_AND_ASSIGN(
      IupStats ins, h->CommitAndPropagate("DB1", 1,
                                          InsertR(Tuple({4, 100, 44, 100}))));
  EXPECT_EQ(ins.polled_tuples, 1u);  // S(100, 5, 10) only
  SQ_ASSERT_OK(
      h->CommitAndPropagate("DB2", 2, InsertS(Tuple({200, 7, 20}))).status());
  SQ_ASSERT_OK(
      h->CommitAndPropagate("DB1", 3, InsertR(Tuple({6, 555, 66, 100})))
          .status());
  SQ_ASSERT_OK(
      h->CommitAndPropagate("DB2", 4, DeleteS(Tuple({100, 5, 10}))).status());
  SQ_ASSERT_OK(
      h->CommitAndPropagate("DB1", 5, DeleteR(Tuple({2, 200, 22, 100})))
          .status());
  SQ_ASSERT_OK(h->VerifyRepos());
}

TEST_F(Figure1Fixture, Example61BatchRestrictsBothSiblings) {
  // One batch carrying ΔR and ΔS (Example 6.1): each sibling is restricted
  // by the other side's keys, and the new S row joins the new R row once.
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp));
  MultiDelta dr = InsertR(Tuple({4, 300, 44, 100}));
  SQ_ASSERT_OK(dr.Mutable("R", MakeSchema("R(r1, r2, r3, r4)"))
                   ->AddDelete(Tuple({1, 100, 11, 100})));
  MultiDelta ds = InsertS(Tuple({300, 8, 5}));
  SQ_ASSERT_OK(ds.Mutable("S", MakeSchema("S(s1, s2, s3)"))
                   ->AddInsert(Tuple({400, 9, 6})));
  SQ_ASSERT_OK(db1_->Commit(1, dr));
  SQ_ASSERT_OK(db2_->Commit(1, ds));
  std::map<std::string, Delta> leaf_deltas;
  leaf_deltas.emplace("R", *dr.Find("R"));
  leaf_deltas.emplace("S", *ds.Find("S"));
  SQ_ASSERT_OK_AND_ASSIGN(auto requests,
                          h->iup().PrepareTempRequests(leaf_deltas));
  EXPECT_EQ(RequestStrings(requests),
            (std::vector<std::string>{"(S', [s1,s2], (s1 IN (100, 300)))",
                                      "(R', [r1,r2,r3], (r2 IN (300, 400)))"}));
  // Both sources' batches are in flight: polls see them, ECA rolls back.
  Vap::CompensationFn comp =
      [&](const std::string& source, const std::string& relation,
          const Schema& schema) -> Result<Delta> {
    Delta out(schema);
    const MultiDelta& md = source == "DB1" ? dr : ds;
    if (const Delta* d = md.Find(relation); d != nullptr) {
      SQ_RETURN_IF_ERROR(out.SmashInPlace(*d));
    }
    return out;
  };
  SQ_ASSERT_OK_AND_ASSIGN(VapPlan plan, h->vap().Plan(requests));
  SQ_ASSERT_OK(h->iup()
                   .ProcessBatch(leaf_deltas, plan, h->DirectPoll(), comp)
                   .status());
  SQ_ASSERT_OK(h->VerifyRepos());
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* t, h->store().Repo("T"));
  EXPECT_EQ(t->CountOf(Tuple({4, 300})), 1);
  EXPECT_FALSE(t->Contains(Tuple({1, 100})));
}

TEST(RestrictionScopeTest, SelfJoinAndDifferenceRequestsStayUnrestricted) {
  // R' occurs twice in P (a self-join), so its firing restricts nothing;
  // G is a difference, whose presence reads are never restricted either.
  VdpBuilder b;
  b.Leaf("R", "DB1", "R", "R(a, b) key(a)");
  b.Leaf("S", "DB2", "S", "S(c, d) key(c)");
  b.Leaf("M", "DB3", "M", "M(a, z) key(a)");
  b.LeafParent("R'", "R", {"a", "b"}, "");
  b.LeafParent("S'", "S", {"c", "d"}, "");
  b.LeafParent("M'", "M", {"a", "z"}, "");
  b.Spj("P", {{"R'", {"a"}, ""}, {"R'", {"b"}, ""}, {"S'", {"c", "d"}, ""}},
        {"", "b = c"}, {"a", "b", "d"}, "", /*exported=*/true);
  b.Diff("G", {"R'", {"a"}, ""}, {"M'", {"a"}, ""}, /*exported=*/true);
  auto vdp = b.Build();
  ASSERT_TRUE(vdp.ok()) << vdp.status().ToString();
  Annotation ann;
  SQ_ASSERT_OK(ann.SetAll(*vdp, "R'", AttrMode::kVirtual));
  SQ_ASSERT_OK(ann.SetAll(*vdp, "S'", AttrMode::kVirtual));
  SQ_ASSERT_OK(ann.SetAll(*vdp, "M'", AttrMode::kVirtual));

  SourceDb db1("DB1"), db2("DB2"), db3("DB3");
  SQ_ASSERT_OK(db1.AddRelation("R", MakeSchema("R(a, b) key(a)")));
  SQ_ASSERT_OK(db2.AddRelation("S", MakeSchema("S(c, d) key(c)")));
  SQ_ASSERT_OK(db3.AddRelation("M", MakeSchema("M(a, z) key(a)")));
  SQ_ASSERT_OK(db1.InsertTuple(0, "R", Tuple({1, 10})));
  SQ_ASSERT_OK(db2.InsertTuple(0, "S", Tuple({10, 5})));
  SQ_ASSERT_OK(db3.InsertTuple(0, "M", Tuple({1, 7})));
  DirectHarness h(std::move(vdp).value(), ann,
                  {{"DB1", &db1}, {"DB2", &db2}, {"DB3", &db3}});
  SQ_ASSERT_OK(h.Load());

  SQ_ASSERT_OK_AND_ASSIGN(
      auto requests,
      h.iup().PrepareTempRequests(
          LeafDeltas("R", "R(a, b)", {{Tuple({2, 10}), 1}})));
  // Exactly the term-select-only requests of unrestricted preparation.
  EXPECT_EQ(RequestStrings(requests),
            (std::vector<std::string>{"(R', [a])", "(M', [a])", "(R', [b])",
                                      "(S', [c,d])"}));

  MultiDelta md;
  SQ_ASSERT_OK(
      md.Mutable("R", MakeSchema("R(a, b)"))->AddInsert(Tuple({2, 10})));
  SQ_ASSERT_OK(h.CommitAndPropagate("DB1", 1, md).status());
  SQ_ASSERT_OK(h.VerifyRepos());
}

TEST(PreparationDedupTest, DuplicateRequestsDroppedAcrossParents) {
  // Two exported parents read the same virtual sibling S' with identical
  // terms: preparation used to hand Vap::Materialize one request per parent.
  VdpBuilder b;
  b.Leaf("R", "DB1", "R", "R(r1, r2) key(r1)");
  b.Leaf("S", "DB2", "S", "S(s1, s2) key(s1)");
  b.LeafParent("R'", "R", {"r1", "r2"}, "");
  b.LeafParent("S'", "S", {"s1", "s2"}, "");
  b.Spj("T1", {{"R'", {"r1", "r2"}, ""}, {"S'", {"s1", "s2"}, ""}},
        {"r2 = s1"}, {"r1", "s1", "s2"}, "", /*exported=*/true);
  b.Spj("T2", {{"R'", {"r1", "r2"}, ""}, {"S'", {"s1", "s2"}, ""}},
        {"r2 = s1"}, {"r2", "s2"}, "", /*exported=*/true);
  auto vdp = b.Build();
  ASSERT_TRUE(vdp.ok()) << vdp.status().ToString();
  Annotation ann;
  SQ_ASSERT_OK(ann.SetAll(*vdp, "S'", AttrMode::kVirtual));

  auto db1 = std::make_unique<SourceDb>("DB1");
  auto db2 = std::make_unique<SourceDb>("DB2");
  SQ_ASSERT_OK(db1->AddRelation("R", MakeSchema("R(r1, r2) key(r1)")));
  SQ_ASSERT_OK(db2->AddRelation("S", MakeSchema("S(s1, s2) key(s1)")));
  SQ_ASSERT_OK(db1->InsertTuple(0, "R", Tuple({1, 100})));
  SQ_ASSERT_OK(db2->InsertTuple(0, "S", Tuple({100, 5})));
  DirectHarness h(std::move(vdp).value(), ann,
                  {{"DB1", db1.get()}, {"DB2", db2.get()}});
  SQ_ASSERT_OK(h.Load());

  std::map<std::string, Delta> leaf_deltas;
  Delta d(MakeSchema("R(r1, r2)"));
  SQ_ASSERT_OK(d.AddInsert(Tuple({2, 100})));
  leaf_deltas.emplace("R", std::move(d));
  SQ_ASSERT_OK_AND_ASSIGN(auto requests,
                          h.iup().PrepareTempRequests(leaf_deltas));
  ASSERT_EQ(requests.size(), 1u);  // one S' request, not one per parent
  EXPECT_EQ(requests[0].node, "S'");

  // End-to-end: the single S' request yields one poll temp (S) plus the
  // assembled S' temp — not one pair per requesting parent — and the
  // propagation is exact.
  MultiDelta md;
  SQ_ASSERT_OK(
      md.Mutable("R", MakeSchema("R(r1, r2)"))->AddInsert(Tuple({2, 100})));
  SQ_ASSERT_OK_AND_ASSIGN(IupStats stats,
                          h.CommitAndPropagate("DB1", 1.0, md));
  EXPECT_EQ(stats.temps_built, 2u);
  EXPECT_EQ(stats.polls, 1u);
  SQ_ASSERT_OK(h.VerifyRepos());
}

TEST_F(Figure1Fixture, KernelRejectsDeltaForNonLeaf) {
  auto h = MakeHarness(AnnotationExample21());
  std::map<std::string, Delta> bad;
  Delta d(MakeSchema("X(r1, r2, r3)"));
  SQ_ASSERT_OK(d.AddInsert(Tuple({1, 2, 3})));
  bad.emplace("R'", std::move(d));
  TempStore temps;
  EXPECT_FALSE(h->iup().RunKernel(bad, &temps).ok());
}

}  // namespace
}  // namespace squirrel
