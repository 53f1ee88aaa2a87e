// End-to-end tests of Squirrel mediators inside the discrete-event
// simulation: sources announce over delayed FIFO channels, the mediator
// runs serialized update/query transactions (polling where annotations
// require it), and the independent consistency/freshness checkers validate
// the recorded traces against the source histories (Theorems 7.1/7.2).

#include <gtest/gtest.h>

#include <optional>

#include "mediator/consistency.h"
#include "mediator/freshness.h"
#include "mediator/mediator.h"
#include "testing/util.h"
#include "vdp/builder.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace {

using testing::MakeSchema;
using testing::Rows;

class SimFigure1 : public ::testing::Test {
 protected:
  void SetUp() override {
    db1_ = std::make_unique<SourceDb>("DB1");
    db2_ = std::make_unique<SourceDb>("DB2");
    SQ_ASSERT_OK(
        db1_->AddRelation("R", MakeSchema("R(r1, r2, r3, r4) key(r1)")));
    SQ_ASSERT_OK(db2_->AddRelation("S", MakeSchema("S(s1, s2, s3) key(s1)")));
    SQ_ASSERT_OK(db1_->InsertTuple(0, "R", Tuple({1, 100, 11, 100})));
    SQ_ASSERT_OK(db2_->InsertTuple(0, "S", Tuple({100, 5, 10})));
    SQ_ASSERT_OK(db2_->InsertTuple(0, "S", Tuple({200, 6, 20})));
  }

  void MakeMediator(const Annotation& ann, MediatorOptions options,
                    Time comm1 = 1.0, Time comm2 = 1.0, Time ann1 = 0.0,
                    Time ann2 = 0.0) {
    auto vdp = BuildFigure1Vdp();
    ASSERT_TRUE(vdp.ok());
    std::vector<SourceSetup> setups = {
        {db1_.get(), comm1, 0.5, ann1},
        {db2_.get(), comm2, 0.5, ann2},
    };
    auto med =
        Mediator::Create(*vdp, ann, setups, &scheduler_, options);
    ASSERT_TRUE(med.ok()) << med.status().ToString();
    mediator_ = std::move(med).value();
    SQ_ASSERT_OK(mediator_->Start());
  }

  void CommitR(Time at, const Tuple& t, bool del = false) {
    scheduler_.At(at, [this, t, del]() {
      MultiDelta md;
      auto* d = md.Mutable("R", MakeSchema("R(r1, r2, r3, r4)"));
      SQ_EXPECT_OK(del ? d->AddDelete(t) : d->AddInsert(t));
      SQ_EXPECT_OK(db1_->Commit(scheduler_.Now(), md));
    });
  }
  void CommitS(Time at, const Tuple& t, bool del = false) {
    scheduler_.At(at, [this, t, del]() {
      MultiDelta md;
      auto* d = md.Mutable("S", MakeSchema("S(s1, s2, s3)"));
      SQ_EXPECT_OK(del ? d->AddDelete(t) : d->AddInsert(t));
      SQ_EXPECT_OK(db2_->Commit(scheduler_.Now(), md));
    });
  }

  /// Schedules a query at \p at; stores the answer.
  void QueryAt(Time at, ViewQuery q) {
    scheduler_.At(at, [this, q]() {
      mediator_->SubmitQuery(q, [this](Result<ViewAnswer> ans) {
        ASSERT_TRUE(ans.ok()) << ans.status().ToString();
        answers_.push_back(std::move(ans).value());
      });
    });
  }

  ConsistencyReport CheckConsistency() {
    auto vdp = BuildFigure1Vdp();
    EXPECT_TRUE(vdp.ok());
    checker_vdp_ = std::move(vdp).value();
    ConsistencyChecker checker(&checker_vdp_, &mediator_->annotation(),
                               {db1_.get(), db2_.get()});
    auto report = checker.Check(mediator_->trace());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : ConsistencyReport{};
  }

  Scheduler scheduler_;
  std::unique_ptr<SourceDb> db1_, db2_;
  std::unique_ptr<Mediator> mediator_;
  std::vector<ViewAnswer> answers_;
  Vdp checker_vdp_;
};

// A poll the source fails to evaluate must fail the waiting transaction,
// never be consumed as data. T here reads only S' rows with s2 < 10 under
// Example 2.3's annotation. The S row (300, 'x', 99) fails S' (s3 < 50), so
// the mediator never evaluates s2 < 10 on it — but a poll of S carries both
// selections, and the source errors on that row whenever it evaluates it.
class PollFailureTest : public SimFigure1 {
 protected:
  void SetUp() override {
    SimFigure1::SetUp();
    SQ_ASSERT_OK(db2_->InsertTuple(0, "S", Tuple({300, "x", 99})));
    VdpBuilder b;
    b.Leaf("R", "DB1", "R", "R(r1, r2, r3, r4) key(r1)");
    b.Leaf("S", "DB2", "S", "S(s1, s2, s3) key(s1)");
    b.LeafParent("R'", "R", {"r1", "r2", "r3"}, "r4 = 100");
    b.LeafParent("S'", "S", {"s1", "s2"}, "s3 < 50");
    b.Spj("T",
          {{"R'", {"r1", "r2", "r3"}, ""}, {"S'", {"s1", "s2"}, "s2 < 10"}},
          {"r2 = s1"}, {"r1", "r3", "s1", "s2"}, "", /*exported=*/true);
    auto vdp = b.Build();
    ASSERT_TRUE(vdp.ok()) << vdp.status().ToString();
    Annotation ann;
    SQ_ASSERT_OK(ann.SetAll(*vdp, "R'", AttrMode::kVirtual));
    SQ_ASSERT_OK(ann.SetAll(*vdp, "S'", AttrMode::kVirtual));
    SQ_ASSERT_OK(ann.SetFromSpec(*vdp, "T", "r1 m, r3 v, s1 m, s2 v"));
    std::vector<SourceSetup> setups = {{db1_.get(), 1.0, 0.5, 0.0},
                                       {db2_.get(), 1.0, 0.5, 0.0}};
    auto med = Mediator::Create(*vdp, ann, setups, &scheduler_,
                                MediatorOptions{});
    ASSERT_TRUE(med.ok()) << med.status().ToString();
    mediator_ = std::move(med).value();
    SQ_ASSERT_OK(mediator_->Start());
  }
};

TEST_F(PollFailureTest, UpdateRequeuesInsteadOfConsumingTheMarker) {
  // One R commit: r2 = 100 joins S' and r2 = 300 makes the bad S row a
  // candidate of the update's poll, which therefore fails at the source.
  scheduler_.At(1.0, [this]() {
    MultiDelta md;
    auto* d = md.Mutable("R", MakeSchema("R(r1, r2, r3, r4)"));
    SQ_EXPECT_OK(d->AddInsert(Tuple({2, 100, 22, 100})));
    SQ_EXPECT_OK(d->AddInsert(Tuple({3, 300, 33, 100})));
    SQ_EXPECT_OK(db1_->Commit(scheduler_.Now(), md));
  });
  // Deleting the r2 = 300 row takes the bad S row out of the key set; the
  // requeued batch then commits.
  CommitR(8.0, Tuple({3, 300, 33, 100}), /*del=*/true);
  QueryAt(30.0, ViewQuery{"T", {"r1", "s1"}, nullptr});
  scheduler_.RunUntil(100.0);
  EXPECT_GE(mediator_->stats().update_txn_aborts, 1u);
  ASSERT_EQ(answers_.size(), 1u);
  EXPECT_EQ(Rows(answers_[0].data), "(1, 100) (2, 100) ");
}

TEST_F(PollFailureTest, QueryFailsOverWithTypedStatus) {
  // A query reading s2 polls S unrestricted, so the source always errors.
  std::optional<Status> status;
  scheduler_.At(1.0, [this, &status]() {
    mediator_->SubmitQuery(ViewQuery{"T", {}, nullptr},
                           [&status](Result<ViewAnswer> ans) {
                             status = ans.status();
                           });
  });
  scheduler_.RunUntil(100.0);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), StatusCode::kUnavailable) << status->ToString();
  EXPECT_EQ(mediator_->stats().failed_queries, 1u);
}

TEST_F(SimFigure1, FullyMaterializedEndToEnd) {
  MakeMediator(AnnotationExample21(), MediatorOptions{});
  CommitR(1.0, Tuple({2, 200, 22, 100}));
  CommitS(2.0, Tuple({300, 7, 30}));
  CommitR(3.0, Tuple({3, 300, 33, 100}));
  QueryAt(5.0, ViewQuery{"T", {}, nullptr});
  scheduler_.RunUntil(10000.0);

  ASSERT_EQ(answers_.size(), 1u);
  // Expected: (1,11,100,5), (2,22,200,6), (3,33,300,7).
  EXPECT_EQ(Rows(answers_[0].data),
            "(1, 11, 100, 5) (2, 22, 200, 6) (3, 33, 300, 7) ");
  EXPECT_FALSE(answers_[0].used_virtual);
  EXPECT_EQ(answers_[0].polls, 0u);
  EXPECT_EQ(mediator_->stats().polls, 0u);  // Example 2.1's no-polling claim
  EXPECT_GE(mediator_->stats().update_txns, 3u);

  ConsistencyReport report = CheckConsistency();
  EXPECT_TRUE(report.consistent())
      << testing::MakeSchema("x(a)").ToString()  // keep symbol referenced
      << (report.violations.empty() ? "" : report.violations[0]);
}

TEST_F(SimFigure1, ConsistencyHoldsUnderBatching) {
  MediatorOptions options;
  options.update_period = 4.0;  // updates wait in the queue (u_hold > 0)
  MakeMediator(AnnotationExample21(), options);
  for (int i = 0; i < 8; ++i) {
    CommitR(0.5 + i, Tuple({10 + i, 100, 50 + i, 100}));
  }
  QueryAt(3.0, ViewQuery{"T", {"r1"}, nullptr});
  QueryAt(9.0, ViewQuery{"T", {"r1"}, nullptr});
  scheduler_.RunUntil(10000.0);
  ASSERT_EQ(answers_.size(), 2u);
  // The first query sees a stale but consistent snapshot.
  EXPECT_LE(answers_[0].data.DistinctSize(), answers_[1].data.DistinctSize());
  ConsistencyReport report = CheckConsistency();
  EXPECT_TRUE(report.consistent())
      << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_GT(report.entries_checked, 2u);
}

TEST_F(SimFigure1, Example22PollsWithEagerCompensation) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MakeMediator(AnnotationExample22(*vdp), MediatorOptions{});
  // An S update forces polling R; while the poll is in flight, R commits
  // again — ECA must keep the propagation consistent.
  CommitS(1.0, Tuple({300, 7, 30}));
  // Poll round trip takes comm(1) + qproc(0.5) + comm(1) from ~2.0;
  // commit R inside that window.
  CommitR(3.2, Tuple({5, 300, 55, 100}));
  QueryAt(20.0, ViewQuery{"T", {}, nullptr});
  scheduler_.RunUntil(10000.0);

  ASSERT_EQ(answers_.size(), 1u);
  EXPECT_GT(mediator_->stats().polls, 0u);
  ConsistencyReport report = CheckConsistency();
  EXPECT_TRUE(report.consistent())
      << (report.violations.empty() ? "" : report.violations[0]);
  // Final answer reflects both commits.
  EXPECT_TRUE(answers_[0].data.Contains(Tuple({5, 55, 300, 7})));
}

TEST_F(SimFigure1, Example23HybridQueries) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MakeMediator(AnnotationExample23(*vdp), MediatorOptions{});
  CommitR(1.0, Tuple({2, 200, 22, 100}));
  // Materialized-only query: no polls.
  QueryAt(5.0, ViewQuery{"T", {"r1", "s1"}, nullptr});
  // Virtual-attribute query: polls needed.
  QueryAt(6.0, ViewQuery{"T", {"r3", "s1"}, testing::Pred("r3 < 100")});
  scheduler_.RunUntil(10000.0);

  ASSERT_EQ(answers_.size(), 2u);
  EXPECT_FALSE(answers_[0].used_virtual);
  EXPECT_EQ(answers_[0].polls, 0u);
  EXPECT_EQ(Rows(answers_[0].data), "(1, 100) (2, 200) ");
  EXPECT_TRUE(answers_[1].used_virtual);
  EXPECT_GT(answers_[1].polls, 0u);
  EXPECT_EQ(Rows(answers_[1].data), "(11, 100) (22, 200) ");
  ConsistencyReport report = CheckConsistency();
  EXPECT_TRUE(report.consistent())
      << (report.violations.empty() ? "" : report.violations[0]);
}

TEST_F(SimFigure1, FreshnessWithinTheoremBound) {
  MediatorOptions options;
  options.update_period = 2.0;
  options.u_proc_delay = 0.1;
  options.q_proc_delay = 0.1;
  MakeMediator(AnnotationExample21(), options, /*comm1=*/1.0, /*comm2=*/0.5,
               /*ann1=*/1.5, /*ann2=*/0.0);
  for (int i = 0; i < 10; ++i) {
    CommitR(1.0 + i, Tuple({10 + i, 100, 50 + i, 100}));
    QueryAt(1.5 + i, ViewQuery{"T", {"r1"}, nullptr});
  }
  scheduler_.RunUntil(10000.0);
  ASSERT_FALSE(answers_.empty());
  FreshnessReport report = CheckFreshness(
      mediator_->trace(), mediator_->DelayProfiles(), mediator_->Delays(),
      mediator_->ContributorKinds(), {db1_.get(), db2_.get()});
  EXPECT_TRUE(report.all_within_bound);
  for (const auto& sf : report.per_source) {
    EXPECT_LE(sf.max_staleness, sf.bound) << sf.source;
    EXPECT_GT(sf.samples, 0u);
  }
}

TEST_F(SimFigure1, ContributorClassification) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  // Example 2.1: everything materialized -> both materialized-contributors.
  MakeMediator(AnnotationExample21(), MediatorOptions{});
  auto kinds = mediator_->ContributorKinds();
  EXPECT_EQ(kinds[0], ContributorKind::kMaterialized);
  EXPECT_EQ(kinds[1], ContributorKind::kMaterialized);
}

TEST_F(SimFigure1, HybridContributorClassification) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MakeMediator(AnnotationExample23(*vdp), MediatorOptions{});
  auto kinds = mediator_->ContributorKinds();
  // Both feed materialized (T's r1/s1) and virtual (T's r3/s2) portions.
  EXPECT_EQ(kinds[0], ContributorKind::kHybrid);
  EXPECT_EQ(kinds[1], ContributorKind::kHybrid);
}

TEST_F(SimFigure1, QueriesSerializeWithUpdates) {
  MakeMediator(AnnotationExample21(), MediatorOptions{});
  for (int i = 0; i < 5; ++i) {
    CommitR(1.0 + 0.1 * i, Tuple({20 + i, 100, 70 + i, 100}));
    QueryAt(1.0 + 0.1 * i + 0.05, ViewQuery{"T", {"r1"}, nullptr});
  }
  scheduler_.RunUntil(10000.0);
  EXPECT_EQ(answers_.size(), 5u);
  // Commit times strictly increase (serial transactions).
  for (size_t i = 1; i < answers_.size(); ++i) {
    EXPECT_GE(answers_[i].commit_time, answers_[i - 1].commit_time);
  }
  ConsistencyReport report = CheckConsistency();
  EXPECT_TRUE(report.consistent())
      << (report.violations.empty() ? "" : report.violations[0]);
}

// A mediator's announcers listen on sources that outlive it. Destroying a
// started mediator must unhook them, so the sources' later commits and
// restarts reach no listener of the dead mediator.
TEST_F(SimFigure1, SourcesOutliveADestroyedMediator) {
  MakeMediator(AnnotationExample21(), MediatorOptions{});
  scheduler_.RunUntil(5.0);
  mediator_.reset();
  SQ_EXPECT_OK(db1_->InsertTuple(10.0, "R", Tuple({2, 100, 22, 100})));
  SQ_EXPECT_OK(db2_->InsertTuple(10.0, "S", Tuple({300, 7, 30})));
  db1_->Restart(11.0);
  db2_->Restart(11.0);
  EXPECT_EQ(db1_->epoch(), 2u);
  EXPECT_EQ(db2_->epoch(), 2u);
  EXPECT_EQ(db1_->CommitCount(), 2u);
  EXPECT_EQ(db2_->CommitCount(), 3u);
}

/// Submits \p q at t = 1 to a fresh Example 2.1 mediator over Figure 1's
/// sources and returns the status the query resolves with.
Status StatusOfQuery(const ViewQuery& q, bool mvcc_reads) {
  SourceDb db1("DB1");
  SourceDb db2("DB2");
  SQ_RETURN_IF_ERROR(
      db1.AddRelation("R", MakeSchema("R(r1, r2, r3, r4) key(r1)")));
  SQ_RETURN_IF_ERROR(
      db2.AddRelation("S", MakeSchema("S(s1, s2, s3) key(s1)")));
  SQ_ASSIGN_OR_RETURN(Vdp vdp, BuildFigure1Vdp());
  Scheduler scheduler;
  MediatorOptions options;
  options.mvcc_reads = mvcc_reads;
  SQ_ASSIGN_OR_RETURN(
      std::unique_ptr<Mediator> med,
      Mediator::Create(vdp, AnnotationExample21(),
                       {{&db1, 1.0, 0.5, 0.0}, {&db2, 1.0, 0.5, 0.0}},
                       &scheduler, options));
  SQ_RETURN_IF_ERROR(med->Start());
  Status out = Status::Internal("the query never resolved");
  scheduler.At(1.0, [&]() {
    med->SubmitQuery(q, [&](Result<ViewAnswer> ans) { out = ans.status(); });
  });
  scheduler.RunUntil(100.0);
  return out;
}

TEST_F(SimFigure1, RejectsQueryOnUnknownRelation) {
  for (bool mvcc_reads : {false, true}) {
    SCOPED_TRACE(mvcc_reads ? "mvcc_reads on" : "mvcc_reads off");
    EXPECT_EQ(StatusOfQuery(ViewQuery{"Nope", {}, nullptr}, mvcc_reads).code(),
              StatusCode::kNotFound);
    // An unknown attribute of an export relation is refused the same way.
    EXPECT_EQ(StatusOfQuery(ViewQuery{"T", {"nope"}, nullptr}, mvcc_reads)
                  .code(),
              StatusCode::kNotFound);
  }
}

TEST_F(SimFigure1, RejectsQueryOnNonExportNode) {
  for (bool mvcc_reads : {false, true}) {
    SCOPED_TRACE(mvcc_reads ? "mvcc_reads on" : "mvcc_reads off");
    EXPECT_EQ(StatusOfQuery(ViewQuery{"R'", {}, nullptr}, mvcc_reads).code(),
              StatusCode::kInvalidArgument);
  }
}

class SimFigure4 : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"DBA", "DBB", "DBC", "DBD"}) {
      dbs_.push_back(std::make_unique<SourceDb>(name));
    }
    SQ_ASSERT_OK(dbs_[0]->AddRelation("A", MakeSchema("A(a1, a2) key(a1)")));
    SQ_ASSERT_OK(dbs_[1]->AddRelation("B", MakeSchema("B(b1, b2) key(b1)")));
    SQ_ASSERT_OK(dbs_[2]->AddRelation("C", MakeSchema("C(c1, a1) key(c1)")));
    SQ_ASSERT_OK(dbs_[3]->AddRelation("D", MakeSchema("D(d1, b1) key(d1)")));
    // Seed: A(1, 2), B(10, 5): 1*1+2 < 25 -> E(1, 2, 10).
    SQ_ASSERT_OK(dbs_[0]->InsertTuple(0, "A", Tuple({1, 2})));
    SQ_ASSERT_OK(dbs_[1]->InsertTuple(0, "B", Tuple({10, 5})));
  }

  void MakeMediator(std::function<Annotation(const Vdp&)> make_ann) {
    auto vdp = BuildFigure4Vdp();
    ASSERT_TRUE(vdp.ok()) << vdp.status().ToString();
    std::vector<SourceSetup> setups;
    for (auto& db : dbs_) setups.push_back({db.get(), 0.5, 0.2, 0.0});
    auto med = Mediator::Create(*vdp, make_ann(*vdp), setups, &scheduler_,
                                MediatorOptions{});
    ASSERT_TRUE(med.ok()) << med.status().ToString();
    mediator_ = std::move(med).value();
    SQ_ASSERT_OK(mediator_->Start());
  }

  void Commit(size_t db, Time at, const std::string& rel, const Tuple& t,
              bool del = false) {
    scheduler_.At(at, [this, db, rel, t, del]() {
      auto schema = dbs_[db]->RelationSchema(rel);
      ASSERT_TRUE(schema.ok());
      MultiDelta md;
      auto* d = md.Mutable(rel, *schema);
      SQ_EXPECT_OK(del ? d->AddDelete(t) : d->AddInsert(t));
      SQ_EXPECT_OK(dbs_[db]->Commit(scheduler_.Now(), md));
    });
  }

  void QueryAt(Time at, ViewQuery q) {
    scheduler_.At(at, [this, q]() {
      mediator_->SubmitQuery(q, [this](Result<ViewAnswer> ans) {
        ASSERT_TRUE(ans.ok()) << ans.status().ToString();
        answers_.push_back(std::move(ans).value());
      });
    });
  }

  ConsistencyReport CheckConsistency() {
    auto vdp = BuildFigure4Vdp();
    EXPECT_TRUE(vdp.ok());
    checker_vdp_ = std::move(vdp).value();
    std::vector<const SourceDb*> srcs;
    for (auto& db : dbs_) srcs.push_back(db.get());
    ConsistencyChecker checker(&checker_vdp_, &mediator_->annotation(), srcs);
    auto report = checker.Check(mediator_->trace());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : ConsistencyReport{};
  }

  Scheduler scheduler_;
  std::vector<std::unique_ptr<SourceDb>> dbs_;
  std::unique_ptr<Mediator> mediator_;
  std::vector<ViewAnswer> answers_;
  Vdp checker_vdp_;
};

TEST_F(SimFigure4, FullyMaterializedTwoExports) {
  MakeMediator([](const Vdp&) { return Annotation::AllMaterialized(); });
  // G = π(E) − π(F); F empty, so G mirrors π(E).
  QueryAt(1.0, ViewQuery{"G", {}, nullptr});
  // Add C(1, 1), D(1, 10): F gains (1, 10) which kills G's (1, 10).
  Commit(2, 2.0, "C", Tuple({1, 1}));
  Commit(3, 3.0, "D", Tuple({1, 10}));
  QueryAt(6.0, ViewQuery{"G", {}, nullptr});
  QueryAt(7.0, ViewQuery{"E", {}, nullptr});
  scheduler_.RunUntil(10000.0);

  ASSERT_EQ(answers_.size(), 3u);
  EXPECT_EQ(Rows(answers_[0].data), "(1, 10) ");
  EXPECT_EQ(Rows(answers_[1].data), "");  // suppressed by F
  EXPECT_EQ(Rows(answers_[2].data), "(1, 2, 10) ");
  ConsistencyReport report = CheckConsistency();
  EXPECT_TRUE(report.consistent())
      << (report.violations.empty() ? "" : report.violations[0]);
}

TEST_F(SimFigure4, Example51SuggestedAnnotation) {
  MakeMediator([](const Vdp& vdp) { return AnnotationExample51(vdp); });
  auto kinds = mediator_->ContributorKinds();
  // DBB feeds B' (virtual) and E's materialized part: hybrid.
  EXPECT_EQ(kinds[1], ContributorKind::kHybrid);

  // Updates to B flow into E (hybrid) and G via polling B as needed.
  Commit(1, 1.0, "B", Tuple({20, 4}));
  // A update: joins against virtual B' -> poll.
  Commit(0, 3.0, "A", Tuple({2, 1}));
  // Query E's materialized attrs: no polls.
  QueryAt(10.0, ViewQuery{"E", {"a1", "b1"}, nullptr});
  // Query E's virtual a2: polls (key-based via A').
  QueryAt(11.0, ViewQuery{"E", {"a1", "a2"}, nullptr});
  QueryAt(12.0, ViewQuery{"G", {}, nullptr});
  scheduler_.RunUntil(10000.0);

  ASSERT_EQ(answers_.size(), 3u);
  EXPECT_EQ(answers_[0].polls, 0u);
  EXPECT_TRUE(answers_[1].used_virtual);
  // E = {(1,2,10),(1,2,20),(2,1,10),(2,1,20)} (all satisfy the inequality).
  EXPECT_EQ(Rows(answers_[0].data), "(1, 10) (1, 20) (2, 10) (2, 20) ");
  EXPECT_EQ(Rows(answers_[1].data), "(1, 2) (2, 1) ");
  EXPECT_EQ(Rows(answers_[2].data), "(1, 10) (1, 20) (2, 10) (2, 20) ");
  ConsistencyReport report = CheckConsistency();
  EXPECT_TRUE(report.consistent())
      << (report.violations.empty() ? "" : report.violations[0]);
}

TEST_F(SimFigure4, DiffMaintenanceUnderChurn) {
  MakeMediator([](const Vdp&) { return Annotation::AllMaterialized(); });
  Commit(2, 1.0, "C", Tuple({1, 1}));
  Commit(3, 2.0, "D", Tuple({1, 10}));
  Commit(3, 3.0, "D", Tuple({1, 10}), /*del=*/true);  // F loses (1,10)
  Commit(0, 4.0, "A", Tuple({3, 1}));                 // E gains (3,1,10)
  QueryAt(8.0, ViewQuery{"G", {}, nullptr});
  scheduler_.RunUntil(10000.0);
  ASSERT_EQ(answers_.size(), 1u);
  EXPECT_EQ(Rows(answers_[0].data), "(1, 10) (3, 10) ");
  ConsistencyReport report = CheckConsistency();
  EXPECT_TRUE(report.consistent())
      << (report.violations.empty() ? "" : report.violations[0]);
}

}  // namespace
}  // namespace squirrel
