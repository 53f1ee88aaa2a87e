// Coverage for flows the paper describes but Figures 1/4 don't hit:
//  - union nodes under incremental maintenance (bag semantics, §5.1/§5.2);
//  - virtual-contributor sources (§4): passive sources that never announce,
//    are polled per query inside a single transaction, and appear in the
//    reflect vector with their poll-answer time. Under the fully virtual
//    annotation this is §1's virtual approach, run by the same mediator;
//  - the [ZGHW95] warehouse annotation, the spectrum's other point that
//    keeps no auxiliary data.

#include <gtest/gtest.h>

#include "mediator/consistency.h"
#include "mediator/mediator.h"
#include "testing/harness.h"
#include "testing/util.h"
#include "vdp/builder.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace {

using testing::MakeSchema;
using testing::Pred;
using testing::Rows;

/// U = π_k,v(σ_{v<100} L') ∪ π_k,v(M') over two sources.
Result<Vdp> BuildUnionVdp() {
  VdpBuilder b;
  b.Leaf("L", "DB1", "L", "L(k, v) key(k)");
  b.Leaf("M", "DB2", "M", "M(k, v) key(k)");
  b.LeafParent("L'", "L", {"k", "v"});
  b.LeafParent("M'", "M", {"k", "v"});
  b.Union("U", {"L'", {"k", "v"}, "v < 100"}, {"M'", {"k", "v"}, ""},
          /*exported=*/true);
  return b.Build();
}

class UnionSim : public ::testing::Test {
 protected:
  void SetUp() override {
    db1_ = std::make_unique<SourceDb>("DB1");
    db2_ = std::make_unique<SourceDb>("DB2");
    SQ_ASSERT_OK(db1_->AddRelation("L", MakeSchema("L(k, v) key(k)")));
    SQ_ASSERT_OK(db2_->AddRelation("M", MakeSchema("M(k, v) key(k)")));
  }

  void MakeMediator(const Annotation& ann) {
    auto vdp = BuildUnionVdp();
    ASSERT_TRUE(vdp.ok()) << vdp.status().ToString();
    std::vector<SourceSetup> setups = {{db1_.get(), 0.5, 0.1, 0.0},
                                       {db2_.get(), 0.5, 0.1, 0.0}};
    auto med = Mediator::Create(*vdp, ann, setups, &scheduler_,
                                MediatorOptions{});
    ASSERT_TRUE(med.ok()) << med.status().ToString();
    mediator_ = std::move(med).value();
    SQ_ASSERT_OK(mediator_->Start());
  }

  Scheduler scheduler_;
  std::unique_ptr<SourceDb> db1_, db2_;
  std::unique_ptr<Mediator> mediator_;
};

TEST_F(UnionSim, MaintainsBagUnion) {
  SQ_ASSERT_OK(db1_->InsertTuple(0, "L", Tuple({1, 10})));
  SQ_ASSERT_OK(db2_->InsertTuple(0, "M", Tuple({1, 10})));  // overlap
  MakeMediator(Annotation::AllMaterialized());
  scheduler_.At(1.0, [&]() {
    SQ_EXPECT_OK(db1_->InsertTuple(scheduler_.Now(), "L", Tuple({2, 20})));
  });
  scheduler_.At(2.0, [&]() {
    SQ_EXPECT_OK(db1_->InsertTuple(scheduler_.Now(), "L", Tuple({3, 500})));
  });  // filtered by v < 100
  scheduler_.At(3.0, [&]() {
    SQ_EXPECT_OK(db2_->DeleteTuple(scheduler_.Now(), "M", Tuple({1, 10})));
  });
  std::vector<ViewAnswer> answers;
  scheduler_.At(10.0, [&]() {
    mediator_->SubmitQuery(ViewQuery{"U", {}, nullptr},
                           [&](Result<ViewAnswer> ans) {
                             ASSERT_TRUE(ans.ok());
                             answers.push_back(std::move(ans).value());
                           });
  });
  scheduler_.RunUntil(100.0);
  ASSERT_EQ(answers.size(), 1u);
  // Set-semantics export answer: (1,10) survives (still in L), (2,20) in,
  // (3,500) filtered out.
  EXPECT_EQ(Rows(answers[0].data), "(1, 10) (2, 20) ");
  // The repository is a bag underneath: (1,10) had multiplicity 2, the M
  // delete dropped it to 1 without removing it.
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* u, mediator_->store().Repo("U"));
  EXPECT_EQ(u->CountOf(Tuple({1, 10})), 1);

  // Trace is consistent.
  auto checker_vdp = BuildUnionVdp();
  ASSERT_TRUE(checker_vdp.ok());
  ConsistencyChecker checker(&*checker_vdp, &mediator_->annotation(),
                             {db1_.get(), db2_.get()});
  SQ_ASSERT_OK_AND_ASSIGN(ConsistencyReport report,
                          checker.Check(mediator_->trace()));
  EXPECT_TRUE(report.consistent())
      << (report.violations.empty() ? "" : report.violations[0]);
}

TEST_F(UnionSim, UnionOverlapMultiplicity) {
  MakeMediator(Annotation::AllMaterialized());
  // Insert the same (k,v) into both sources, then remove from one: the
  // union must still contain it.
  scheduler_.At(1.0, [&]() {
    SQ_EXPECT_OK(db1_->InsertTuple(scheduler_.Now(), "L", Tuple({7, 70})));
  });
  scheduler_.At(2.0, [&]() {
    SQ_EXPECT_OK(db2_->InsertTuple(scheduler_.Now(), "M", Tuple({7, 70})));
  });
  scheduler_.At(3.0, [&]() {
    SQ_EXPECT_OK(db1_->DeleteTuple(scheduler_.Now(), "L", Tuple({7, 70})));
  });
  bool checked = false;
  scheduler_.At(10.0, [&]() {
    mediator_->SubmitQuery(ViewQuery{"U", {}, nullptr},
                           [&](Result<ViewAnswer> ans) {
                             ASSERT_TRUE(ans.ok());
                             EXPECT_EQ(Rows(ans->data), "(7, 70) ");
                             checked = true;
                           });
  });
  scheduler_.RunUntil(100.0);
  EXPECT_TRUE(checked);
}

class VirtualContributorSim : public ::testing::Test {
 protected:
  void SetUp() override {
    db1_ = std::make_unique<SourceDb>("DB1");
    db2_ = std::make_unique<SourceDb>("DB2");
    SQ_ASSERT_OK(
        db1_->AddRelation("R", MakeSchema("R(r1, r2, r3, r4) key(r1)")));
    SQ_ASSERT_OK(db2_->AddRelation("S", MakeSchema("S(s1, s2, s3) key(s1)")));
    SQ_ASSERT_OK(db1_->InsertTuple(0, "R", Tuple({1, 100, 11, 100})));
    SQ_ASSERT_OK(db2_->InsertTuple(0, "S", Tuple({100, 5, 10})));

    auto vdp = BuildFigure1Vdp();
    ASSERT_TRUE(vdp.ok());
    // Everything virtual: both sources become virtual-contributors.
    std::vector<SourceSetup> setups = {{db1_.get(), 0.5, 0.2, 0.0},
                                       {db2_.get(), 1.0, 0.2, 0.0}};
    auto med = Mediator::Create(*vdp, FullyVirtualAnnotation(*vdp), setups,
                                &scheduler_, MediatorOptions{});
    ASSERT_TRUE(med.ok()) << med.status().ToString();
    mediator_ = std::move(med).value();
    SQ_ASSERT_OK(mediator_->Start());
  }

  Scheduler scheduler_;
  std::unique_ptr<SourceDb> db1_, db2_;
  std::unique_ptr<Mediator> mediator_;
};

TEST_F(VirtualContributorSim, ClassifiedVirtualAndPassive) {
  auto kinds = mediator_->ContributorKinds();
  EXPECT_EQ(kinds[0], ContributorKind::kVirtual);
  EXPECT_EQ(kinds[1], ContributorKind::kVirtual);
  // Passive sources never announce: commits produce no queue traffic.
  scheduler_.At(1.0, [&]() {
    SQ_EXPECT_OK(db1_->InsertTuple(scheduler_.Now(), "R",
                                   Tuple({2, 100, 22, 100})));
  });
  scheduler_.RunUntil(50.0);
  EXPECT_EQ(mediator_->stats().messages_received, 0u);
  EXPECT_EQ(mediator_->stats().update_txns, 0u);
}

TEST_F(VirtualContributorSim, QueriesDecomposeAndSeeCurrentState) {
  scheduler_.At(1.0, [&]() {
    SQ_EXPECT_OK(db1_->InsertTuple(scheduler_.Now(), "R",
                                   Tuple({2, 100, 22, 100})));
  });
  std::vector<ViewAnswer> answers;
  auto collect = [&](Result<ViewAnswer> ans) {
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    answers.push_back(std::move(ans).value());
  };
  scheduler_.At(5.0, [&]() {
    mediator_->SubmitQuery(ViewQuery{"T", {}, nullptr}, collect);
  });
  uint64_t shipped_before = 0;
  scheduler_.At(20.0, [&]() {
    shipped_before = mediator_->stats().polled_tuples;
    mediator_->SubmitQuery(ViewQuery{"T", {"r1"}, Pred("r1 = 1")}, collect);
  });
  scheduler_.RunUntil(100.0);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_TRUE(answers[0].used_virtual);
  EXPECT_EQ(answers[0].polls, 2u);  // one per source, single transaction
  EXPECT_EQ(Rows(answers[0].data), "(1, 11, 100, 5) (2, 22, 100, 5) ");
  // Reflect entries for polled virtual-contributors carry the source-side
  // answer time, which is before the commit and after submission.
  ASSERT_EQ(answers[0].reflect.size(), 2u);
  EXPECT_GT(answers[0].reflect[0], 5.0);
  EXPECT_LT(answers[0].reflect[0], answers[0].commit_time);
  // Chronology: reflect <= commit.
  EXPECT_LE(answers[0].reflect[1], answers[0].commit_time);
  // The query's condition goes to the source: r1 = 1 ships one of the two
  // R rows (and the one S row), where an unrestricted poll would ship both.
  EXPECT_EQ(Rows(answers[1].data), "(1) ");
  EXPECT_LE(mediator_->stats().polled_tuples - shipped_before, 2u);
}

TEST_F(VirtualContributorSim, QueryLatencyIncludesSlowestSource) {
  // DB2's round trip (comm 1.0) dominates: 2*1.0 + 0.2 = 2.2. Three queries
  // submitted at once each poll, so each is a transaction of its own: they
  // commit one after another, in submission order.
  Time submitted = 5.0;
  std::vector<int> order;
  std::vector<Time> committed;
  scheduler_.At(submitted, [&]() {
    for (int i = 0; i < 3; ++i) {
      mediator_->SubmitQuery(ViewQuery{"T", {"r1"}, nullptr},
                             [&, i](Result<ViewAnswer> ans) {
                               ASSERT_TRUE(ans.ok());
                               order.push_back(i);
                               committed.push_back(ans->commit_time);
                             });
    }
  });
  scheduler_.RunUntil(100.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(committed.size(), 3u);
  EXPECT_GE(committed[0] - submitted, 2.2 - 1e-9);
  EXPECT_LT(committed[0], committed[1]);
  EXPECT_LT(committed[1], committed[2]);
}

TEST(WarehouseAnnotationTest, ExportsMaterializedInteriorVirtual) {
  auto vdp = BuildFigure4Vdp();
  ASSERT_TRUE(vdp.ok());
  Annotation ann = WarehouseAnnotation(*vdp);
  EXPECT_TRUE(ann.FullyMaterialized(*vdp, "E"));
  EXPECT_TRUE(ann.FullyMaterialized(*vdp, "G"));
  EXPECT_TRUE(ann.FullyVirtual(*vdp, "A'"));
  EXPECT_TRUE(ann.FullyVirtual(*vdp, "F"));
  SQ_ASSERT_OK(ann.Validate(*vdp));
}

TEST(WarehouseAnnotationTest, FullyVirtualAnnotationCoversEverything) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  Annotation ann = FullyVirtualAnnotation(*vdp);
  for (const auto& name : vdp->DerivedNames()) {
    EXPECT_TRUE(ann.FullyVirtual(*vdp, name)) << name;
  }
}

TEST(WarehouseAnnotationTest, WarehouseMaintainsViewByPolling) {
  // The ZGHW95 configuration: T materialized, R'/S' virtual. Every R update
  // needs S data -> polls; result must still match recomputation.
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  auto db1 = std::make_unique<SourceDb>("DB1");
  auto db2 = std::make_unique<SourceDb>("DB2");
  SQ_ASSERT_OK(
      db1->AddRelation("R", MakeSchema("R(r1, r2, r3, r4) key(r1)")));
  SQ_ASSERT_OK(db2->AddRelation("S", MakeSchema("S(s1, s2, s3) key(s1)")));
  SQ_ASSERT_OK(db2->InsertTuple(0, "S", Tuple({100, 5, 10})));
  Annotation ann = WarehouseAnnotation(*vdp);
  testing::DirectHarness h(std::move(vdp).value(), std::move(ann),
                           {{"DB1", db1.get()}, {"DB2", db2.get()}});
  SQ_ASSERT_OK(h.Load());
  MultiDelta md;
  SQ_ASSERT_OK(md.Mutable("R", MakeSchema("R(r1, r2, r3, r4)"))
                   ->AddInsert(Tuple({1, 100, 11, 100})));
  SQ_ASSERT_OK_AND_ASSIGN(IupStats stats,
                          h.CommitAndPropagate("DB1", 1.0, md));
  EXPECT_GT(stats.polls, 0u);  // no auxiliary data -> must poll
  SQ_ASSERT_OK(h.VerifyRepos());
}

}  // namespace
}  // namespace squirrel
