// VAP tests: planning/merging (paper §6.3 phase 1), execution, key-based
// construction (Example 2.3), and Eager Compensation.

#include "mediator/vap.h"

#include <gtest/gtest.h>

#include "mediator/query_processor.h"
#include "relational/operators.h"
#include "source/source_db.h"
#include "testing/harness.h"
#include "testing/util.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace {

using testing::DirectHarness;
using testing::MakeSchema;
using testing::Pred;
using testing::Rows;

class VapFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db1_ = std::make_unique<SourceDb>("DB1");
    db2_ = std::make_unique<SourceDb>("DB2");
    SQ_ASSERT_OK(
        db1_->AddRelation("R", MakeSchema("R(r1, r2, r3, r4) key(r1)")));
    SQ_ASSERT_OK(db2_->AddRelation("S", MakeSchema("S(s1, s2, s3) key(s1)")));
    SQ_ASSERT_OK(db1_->InsertTuple(0, "R", Tuple({1, 100, 11, 100})));
    SQ_ASSERT_OK(db1_->InsertTuple(0, "R", Tuple({2, 200, 150, 100})));
    SQ_ASSERT_OK(db2_->InsertTuple(0, "S", Tuple({100, 5, 10})));
    SQ_ASSERT_OK(db2_->InsertTuple(0, "S", Tuple({200, 6, 20})));
  }

  std::unique_ptr<DirectHarness> MakeHarness(const Annotation& ann,
                                             VapStrategy strategy) {
    auto vdp = BuildFigure1Vdp();
    EXPECT_TRUE(vdp.ok());
    auto h = std::make_unique<DirectHarness>(
        std::move(vdp).value(), ann,
        std::map<std::string, SourceDb*>{{"DB1", db1_.get()},
                                         {"DB2", db2_.get()}},
        strategy);
    auto st = h->Load();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return h;
  }

  std::unique_ptr<SourceDb> db1_, db2_;
};

TEST_F(VapFixture, PlanEmptyForMaterializedRequest) {
  auto h = MakeHarness(AnnotationExample21(), VapStrategy::kChildBased);
  TempRequest req{"T", {"r1", "s1"}, nullptr};
  SQ_ASSERT_OK_AND_ASSIGN(VapPlan plan, h->vap().Plan({req}));
  EXPECT_TRUE(plan.Empty());
}

TEST_F(VapFixture, PlanExpandsToLeafPolls) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp), VapStrategy::kChildBased);
  // Query π_{r3,s1}σ_{r3<100}T — Example 2.3's q.
  TempRequest req{"T", {"r3", "s1"}, Pred("r3 < 100")};
  SQ_ASSERT_OK_AND_ASSIGN(VapPlan plan, h->vap().Plan({req}));
  ASSERT_FALSE(plan.Empty());
  // Child-based: both R' and S' are virtual, both sources polled.
  EXPECT_EQ(plan.polls.size(), 2u);
  auto polled = plan.PolledSources();
  EXPECT_EQ(polled.size(), 2u);
  // Leaf poll for R pushes the leaf-parent's selection r4 = 100.
  bool r_pushed = false;
  for (const auto& p : plan.polls) {
    if (p.source == "DB1") {
      ASSERT_TRUE(p.spec.cond != nullptr);
      EXPECT_NE(p.spec.cond->ToString().find("r4"), std::string::npos);
      r_pushed = true;
    }
  }
  EXPECT_TRUE(r_pushed);
}

TEST_F(VapFixture, ChildBasedExecutionAnswersQuery) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp), VapStrategy::kChildBased);
  QueryProcessor& qp = h->qp();
  SQ_ASSERT_OK_AND_ASSIGN(
      PreparedQuery q,
      qp.Prepare(ViewQuery{"T", {"r3", "s1"}, Pred("r3 < 100")}));
  SQ_ASSERT_OK_AND_ASSIGN(auto ans, qp.Answer(q, h->DirectPoll(), nullptr));
  EXPECT_TRUE(ans.used_virtual);
  EXPECT_EQ(Rows(ans.data), "(11, 100) ");  // r3=150 filtered by r3<100
}

TEST_F(VapFixture, PreparedQueryRunsNormalizationOnce) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp), VapStrategy::kChildBased);
  QueryProcessor& qp = h->qp();

  ViewQuery raw{"T", {}, Pred("r3 < 100")};  // empty attrs = full schema
  SQ_ASSERT_OK_AND_ASSIGN(PreparedQuery pq, qp.Prepare(raw));
  EXPECT_EQ(pq.query.attrs,
            (std::vector<std::string>{"r1", "r3", "s1", "s2"}));
  ASSERT_TRUE(pq.query.cond != nullptr);
  // needed = query attrs + cond attrs, schema order.
  EXPECT_EQ(pq.needed, (std::vector<std::string>{"r1", "r3", "s1", "s2"}));

  // One Prepare serves PlanFor and Answer; the one-call Answer matches the
  // Mediator's composition: Execute the PlanFor plan, then AnswerWithTemps.
  SQ_ASSERT_OK_AND_ASSIGN(auto plan, qp.PlanFor(pq));
  ASSERT_TRUE(plan.has_value());
  SQ_ASSERT_OK_AND_ASSIGN(auto prepared_ans,
                          qp.Answer(pq, h->DirectPoll(), nullptr));
  SQ_ASSERT_OK_AND_ASSIGN(TempStore temps,
                          h->vap().Execute(*plan, h->DirectPoll(), nullptr));
  SQ_ASSERT_OK_AND_ASSIGN(auto composed_ans, qp.AnswerWithTemps(pq, temps));
  EXPECT_EQ(Rows(prepared_ans.data), Rows(composed_ans.data));
  EXPECT_TRUE(prepared_ans.used_virtual);

  // Prepare surfaces validation errors exactly like Normalize.
  EXPECT_FALSE(qp.Prepare(ViewQuery{"T", {"nope"}, nullptr}).ok());
  EXPECT_FALSE(qp.Prepare(ViewQuery{"R'", {}, nullptr}).ok());  // not exported
}

TEST_F(VapFixture, PreparedQueryNeededIncludesCondOnlyAttrs) {
  auto h = MakeHarness(AnnotationExample21(), VapStrategy::kChildBased);
  // r3 appears only in the condition: it must be in needed, not in attrs.
  ViewQuery raw{"T", {"r1"}, Pred("r3 < 100")};
  SQ_ASSERT_OK_AND_ASSIGN(PreparedQuery pq, h->qp().Prepare(raw));
  EXPECT_EQ(pq.query.attrs, std::vector<std::string>{"r1"});
  EXPECT_EQ(pq.needed, (std::vector<std::string>{"r1", "r3"}));
  SQ_ASSERT_OK_AND_ASSIGN(auto plan, h->qp().PlanFor(pq));
  EXPECT_FALSE(plan.has_value());  // fully materialized: repo covers
  SQ_ASSERT_OK_AND_ASSIGN(auto ans, h->qp().Answer(pq, nullptr, nullptr));
  EXPECT_EQ(Rows(ans.data), "(1) ");
}

TEST_F(VapFixture, KeyBasedPlanPollsOnlySupplierChild) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp), VapStrategy::kKeyBased);
  // Virtual attr r3 comes from R' only; key-based uses π_{r1,s1}T ⋈ R'.
  TempRequest req{"T", {"r3", "s1"}, Pred("r3 < 100")};
  SQ_ASSERT_OK_AND_ASSIGN(VapPlan plan, h->vap().Plan({req}));
  EXPECT_EQ(plan.PolledSources(), std::vector<std::string>{"DB1"});
  EXPECT_EQ(plan.key_based.size(), 1u);
}

TEST_F(VapFixture, KeyBasedAndChildBasedAgree) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h_child =
      MakeHarness(AnnotationExample23(*vdp), VapStrategy::kChildBased);
  auto h_key = MakeHarness(AnnotationExample23(*vdp), VapStrategy::kKeyBased);
  SQ_ASSERT_OK_AND_ASSIGN(
      PreparedQuery q,
      h_child->qp().Prepare(ViewQuery{"T", {"r3", "s1"}, Pred("r3 < 100")}));
  SQ_ASSERT_OK_AND_ASSIGN(auto a1,
                          h_child->qp().Answer(q, h_child->DirectPoll(),
                                               nullptr));
  SQ_ASSERT_OK_AND_ASSIGN(
      auto a2, h_key->qp().Answer(q, h_key->DirectPoll(), nullptr));
  EXPECT_TRUE(a1.data.EqualContents(a2.data))
      << Rows(a1.data) << " vs " << Rows(a2.data);
}

TEST_F(VapFixture, AutoPrefersKeyBasedWhenSiblingVirtual) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp), VapStrategy::kAuto);
  TempRequest req{"T", {"r3", "s1"}, Pred("r3 < 100")};
  SQ_ASSERT_OK_AND_ASSIGN(VapPlan plan, h->vap().Plan({req}));
  // Auto should avoid polling DB2 (S' virtual) by going key-based.
  EXPECT_EQ(plan.PolledSources(), std::vector<std::string>{"DB1"});
}

TEST_F(VapFixture, MergingUnionsAttrsAndOrsConds) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp), VapStrategy::kChildBased);
  TempRequest q1{"T", {"r3"}, Pred("r3 < 100")};
  TempRequest q2{"T", {"s2"}, Pred("s2 > 0")};
  SQ_ASSERT_OK_AND_ASSIGN(VapPlan plan, h->vap().Plan({q1, q2}));
  // One merged T request at the end of the build order.
  ASSERT_FALSE(plan.build_order.empty());
  const TempRequest& t_req = plan.build_order.back();
  EXPECT_EQ(t_req.node, "T");
  // Merged attrs contain both r3 and s2.
  EXPECT_NE(std::find(t_req.attrs.begin(), t_req.attrs.end(), "r3"),
            t_req.attrs.end());
  EXPECT_NE(std::find(t_req.attrs.begin(), t_req.attrs.end(), "s2"),
            t_req.attrs.end());
}

TEST_F(VapFixture, EagerCompensationRollsBackPendingUpdates) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample22(*vdp), VapStrategy::kChildBased);
  // Commit an R update that the mediator has NOT yet reflected.
  SQ_ASSERT_OK(db1_->InsertTuple(1, "R", Tuple({7, 100, 77, 100})));
  // Poll R' with compensation for that pending delta.
  Vap::CompensationFn comp = [&](const std::string& source,
                                 const std::string& relation,
                                 const Schema& schema) -> Result<Delta> {
    Delta d(schema);
    if (source == "DB1" && relation == "R") {
      SQ_RETURN_IF_ERROR(d.AddInsert(Tuple({7, 100, 77, 100})));
    }
    return d;
  };
  TempRequest req{"R'", {"r1", "r2", "r3"}, nullptr};
  SQ_ASSERT_OK_AND_ASSIGN(VapPlan plan, h->vap().Plan({req}));
  SQ_ASSERT_OK_AND_ASSIGN(TempStore temps,
                          h->vap().Execute(plan, h->DirectPoll(), comp));
  const TempStore::Entry* e = temps.Find("R'");
  ASSERT_NE(e, nullptr);
  // The compensated answer must NOT contain the pending tuple.
  EXPECT_FALSE(e->data.Contains(Tuple({1 + 6, 100, 77})));
  EXPECT_TRUE(e->data.Contains(Tuple({1, 100, 11})));
}

TEST_F(VapFixture, EagerCompensationRespectsKeySetRestriction) {
  // A key-restricted temp must come out as σ_cond of the REFLECTED state:
  // pending atoms inside the key set are rolled back, atoms outside it are
  // not in the answer and must not be touched (rolling back the delete of
  // s1 = 200 would resurrect a row the restriction excludes; rolling back
  // the insert of s1 = 400 would drive the answer negative).
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp), VapStrategy::kChildBased);
  const Schema s_schema = MakeSchema("S(s1, s2, s3)");
  MultiDelta pending;
  Delta* d = pending.Mutable("S", s_schema);
  SQ_ASSERT_OK(d->AddInsert(Tuple({300, 7, 30})));   // inside
  SQ_ASSERT_OK(d->AddInsert(Tuple({400, 8, 40})));   // outside
  SQ_ASSERT_OK(d->AddDelete(Tuple({100, 5, 10})));   // inside
  SQ_ASSERT_OK(d->AddDelete(Tuple({200, 6, 20})));   // outside
  SQ_ASSERT_OK(db2_->Commit(1, pending));
  Vap::CompensationFn comp = [&](const std::string& source,
                                 const std::string& relation,
                                 const Schema& schema) -> Result<Delta> {
    Delta out(schema);
    if (source == "DB2" && relation == "S") {
      SQ_RETURN_IF_ERROR(out.SmashInPlace(*pending.Find("S")));
    }
    return out;
  };
  Expr::Ptr keys = Expr::In("s1", {100, 300, 500});
  TempRequest req{"S'", {"s1", "s2"}, keys};
  SQ_ASSERT_OK_AND_ASSIGN(VapPlan plan, h->vap().Plan({req}));
  SQ_ASSERT_OK_AND_ASSIGN(TempStore temps,
                          h->vap().Execute(plan, h->DirectPoll(), comp));
  const TempStore::Entry* e = temps.Find("S'");
  ASSERT_NE(e, nullptr);
  // Oracle: the reflected (time-0) S through S' and the key set.
  SQ_ASSERT_OK_AND_ASSIGN(Relation reflected, db2_->StateAt("S", 0));
  SQ_ASSERT_OK_AND_ASSIGN(
      Relation selected,
      OpSelect(reflected, Expr::And(Pred("s3 < 50"), keys)));
  SQ_ASSERT_OK_AND_ASSIGN(
      Relation want, OpProject(selected, {"s1", "s2"}, Semantics::kBag));
  EXPECT_TRUE(e->data.EqualContents(want))
      << e->data.ToString("got") << want.ToString("want");
  EXPECT_EQ(Rows(e->data), "(100, 5) ");
}

TEST_F(VapFixture, WithoutCompensationPendingLeaks) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample22(*vdp), VapStrategy::kChildBased);
  SQ_ASSERT_OK(db1_->InsertTuple(1, "R", Tuple({7, 100, 77, 100})));
  TempRequest req{"R'", {"r1", "r2", "r3"}, nullptr};
  SQ_ASSERT_OK_AND_ASSIGN(VapPlan plan, h->vap().Plan({req}));
  SQ_ASSERT_OK_AND_ASSIGN(TempStore temps,
                          h->vap().Execute(plan, h->DirectPoll(), nullptr));
  EXPECT_TRUE(temps.Find("R'")->data.Contains(Tuple({7, 100, 77})));
}

TEST_F(VapFixture, ExecuteWithoutPollFnFails) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto h = MakeHarness(AnnotationExample23(*vdp), VapStrategy::kChildBased);
  TempRequest req{"T", {"r3"}, nullptr};
  SQ_ASSERT_OK_AND_ASSIGN(VapPlan plan, h->vap().Plan({req}));
  ASSERT_FALSE(plan.polls.empty());
  EXPECT_FALSE(h->vap().Execute(plan, nullptr, nullptr).ok());
}

TEST_F(VapFixture, TempStoreCoverage) {
  TempStore temps;
  TempStore::Entry e;
  e.data = testing::MakeRelation("X(a, b)", {Tuple({1, 2})});
  e.attrs = {"a", "b"};
  e.cond = Expr::True();
  temps.Put("N", std::move(e));
  EXPECT_TRUE(temps.Covers("N", {"a"}));
  EXPECT_TRUE(temps.Covers("N", {"a", "b"}));
  EXPECT_FALSE(temps.Covers("N", {"a", "z"}));
  EXPECT_FALSE(temps.Covers("M", {"a"}));
}

TEST_F(VapFixture, TempStoreApplyNodeDeltaFilters) {
  TempStore temps;
  TempStore::Entry e;
  e.data = Relation(MakeSchema("X(a)"), Semantics::kBag);
  SQ_ASSERT_OK(e.data.Insert(Tuple({1})));
  e.attrs = {"a"};
  e.cond = Pred("a < 10");
  temps.Put("N", std::move(e));
  // Full delta on (a, b): +(2, 5) passes the cond; +(50, 5) filtered.
  Delta d(MakeSchema("X(a, b)"));
  SQ_ASSERT_OK(d.AddInsert(Tuple({2, 5})));
  SQ_ASSERT_OK(d.AddInsert(Tuple({50, 5})));
  SQ_ASSERT_OK(temps.ApplyNodeDelta("N", d));
  EXPECT_TRUE(temps.Find("N")->data.Contains(Tuple({2})));
  EXPECT_FALSE(temps.Find("N")->data.Contains(Tuple({50})));
}

}  // namespace
}  // namespace squirrel
