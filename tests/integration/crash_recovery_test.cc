// Scripted mediator crash–restart scenarios (the durability subsystem's
// integration tests). The fault-sweep and crash-point suites cover seeded
// breadth; these tests pin down the individual guarantees:
//  - a crash mid-transaction (polls outstanding, commit record not yet
//    durable) rolls the transaction back at recovery and retries it, ending
//    in the same final state as a crash-free run;
//  - a crash after a commit record replays the transaction from the WAL;
//  - with the WAL disabled (checkpoint-only mode) the same crash provably
//    LOSES the committed update — the WAL is load-bearing, not ceremony;
//  - without a log device recovery is impossible and queries fail over.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mediator/consistency.h"
#include "mediator/durability/log_device.h"
#include "mediator/mediator.h"
#include "testing/util.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace {

using testing::MakeSchema;
using testing::Rows;

class CrashRecovery : public ::testing::Test {
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

  /// Example 2.3's hybrid annotation: update transactions must poll, so a
  /// transaction spans simulation time and a crash can land inside it.
  Annotation HybridAnnotation(const Vdp& vdp) {
    Annotation ann;
    SQ_EXPECT_OK(ann.SetAll(vdp, "R'", AttrMode::kVirtual));
    SQ_EXPECT_OK(ann.SetAll(vdp, "S'", AttrMode::kVirtual));
    SQ_EXPECT_OK(ann.SetFromSpec(vdp, "T", "r1 m, r3 v, s1 m, s2 v"));
    return ann;
  }

  void MakeMediator(const Annotation& ann, MediatorOptions options) {
    auto vdp = BuildFigure1Vdp();
    ASSERT_TRUE(vdp.ok());
    vdp_ = std::move(vdp).value();
    std::vector<SourceSetup> setups = {
        {db1_.get(), 1.0, 0.5, 0.0},
        {db2_.get(), 1.0, 0.5, 0.0},
    };
    auto med = Mediator::Create(vdp_, ann, setups, &scheduler_, options);
    ASSERT_TRUE(med.ok()) << med.status().ToString();
    mediator_ = std::move(med).value();
    SQ_ASSERT_OK(mediator_->Start());
  }

  void CommitR(Time at, const Tuple& t) {
    scheduler_.At(at, [this, t]() {
      MultiDelta md;
      auto* d = md.Mutable("R", MakeSchema("R(r1, r2, r3, r4)"));
      SQ_EXPECT_OK(d->AddInsert(t));
      SQ_EXPECT_OK(db1_->Commit(scheduler_.Now(), md));
    });
  }

  /// Schedules an atomic crash+recover at \p at; recovery must succeed.
  void CrashRecoverAt(Time at) {
    scheduler_.At(at, [this]() {
      Status st = mediator_->CrashAndRecover();
      EXPECT_TRUE(st.ok()) << st.ToString();
    });
  }

  /// Queries T's full contents at \p at into answers_.
  void QueryAt(Time at) {
    scheduler_.At(at, [this]() {
      mediator_->SubmitQuery(ViewQuery{"T", {}, nullptr},
                             [this](Result<ViewAnswer> ans) {
                               ASSERT_TRUE(ans.ok())
                                   << ans.status().ToString();
                               answers_.push_back(std::move(ans).value());
                             });
    });
  }

  void ExpectConsistentTrace() {
    ConsistencyChecker checker(&vdp_, &mediator_->annotation(),
                               {db1_.get(), db2_.get()});
    auto report = checker.Check(mediator_->trace());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->consistent())
        << (report->violations.empty() ? "no details" : report->violations[0]);
  }

  Scheduler scheduler_;
  MemLogDevice log_dev_;  // the "disk": declared before (outlives) mediator_
  std::unique_ptr<SourceDb> db1_, db2_;
  Vdp vdp_;
  std::unique_ptr<Mediator> mediator_;
  std::vector<ViewAnswer> answers_;
};

constexpr char kInitialT[] = "(1, 11, 100, 5) ";
constexpr char kUpdatedT[] = "(1, 11, 100, 5) (2, 22, 200, 6) ";

TEST_F(CrashRecovery, CrashMidTransactionRollsBackAndRetries) {
  MediatorOptions options;
  options.poll_timeout = 3.0;
  options.durability.device = &log_dev_;
  options.durability.checkpoint_every = 16;
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MakeMediator(HybridAnnotation(*vdp), options);

  // The announcement reaches the mediator at ~2.0 and starts an update
  // transaction that polls both sources (answers due ~4.5). The crash at
  // 3.2 lands between the begin and commit records: recovery must roll the
  // transaction back, leave its message at the queue front, and retry.
  CommitR(1.0, Tuple({2, 200, 22, 100}));
  CrashRecoverAt(3.2);
  QueryAt(50.0);
  scheduler_.RunUntil(1000.0);

  const MediatorStats& stats = mediator_->stats();
  EXPECT_EQ(stats.mediator_crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.recovery_txns_rolled_back, 1u);
  EXPECT_GE(stats.recovery_msgs_requeued, 1u);
  EXPECT_GE(stats.stale_poll_answers, 1u);  // answers to the dead poll round
  EXPECT_GE(stats.update_txns, 1u);         // the retry committed
  ASSERT_EQ(answers_.size(), 1u);
  EXPECT_EQ(Rows(answers_[0].data), kUpdatedT);
  EXPECT_FALSE(mediator_->busy());
  EXPECT_EQ(mediator_->QueueSize(), 0u);
  ExpectConsistentTrace();
}

TEST_F(CrashRecovery, CrashAfterCommitReplaysFromWal) {
  MediatorOptions options;
  options.durability.device = &log_dev_;
  options.durability.checkpoint_every = 16;  // no checkpoint before the crash
  MakeMediator(AnnotationExample21(), options);

  CommitR(1.0, Tuple({2, 200, 22, 100}));  // applied at ~2.0, commit logged
  CrashRecoverAt(6.0);
  QueryAt(10.0);
  scheduler_.RunUntil(1000.0);

  const MediatorStats& stats = mediator_->stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GE(stats.recovery_txns_replayed, 1u);
  EXPECT_EQ(stats.recovery_txns_rolled_back, 0u);
  ASSERT_EQ(answers_.size(), 1u);
  EXPECT_EQ(Rows(answers_[0].data), kUpdatedT);  // the commit survived
  ExpectConsistentTrace();
}

/// Parses MediatorStats::ToString()'s "name=value" lines. Going through the
/// rendered dump (instead of naming struct fields) means a counter added
/// later is covered automatically — the static_assert in ToString() keeps
/// the dump exhaustive.
std::map<std::string, uint64_t> ParseStats(const std::string& dump) {
  std::map<std::string, uint64_t> out;
  std::istringstream in(dump);
  std::string line;
  while (std::getline(in, line)) {
    size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    out[line.substr(0, eq)] = std::stoull(line.substr(eq + 1));
  }
  return out;
}

TEST_F(CrashRecovery, EveryStatsCounterSurvivesCrashRecovery) {
  // Stats are observability state, not recovery state: they live OUTSIDE
  // the checkpointed HardState, so a sloppy Recover() could zero them (or a
  // replayed transaction could double-count). The contract pinned here:
  // across Crash()+Recover() no counter ever moves backwards, and the
  // lifetime totals visible before the crash are still visible after.
  MediatorOptions options;
  options.durability.device = &log_dev_;
  options.durability.checkpoint_every = 16;
  MakeMediator(AnnotationExample21(), options);

  CommitR(1.0, Tuple({2, 200, 22, 100}));  // real work before the crash
  std::map<std::string, uint64_t> pre;
  scheduler_.At(10.0, [this, &pre]() {
    pre = ParseStats(mediator_->stats().ToString());
  });
  CrashRecoverAt(12.0);
  QueryAt(20.0);
  scheduler_.RunUntil(1000.0);

  ASSERT_FALSE(pre.empty());
  EXPECT_GT(pre.at("update_txns"), 0u);  // the snapshot saw the commit
  std::map<std::string, uint64_t> post =
      ParseStats(mediator_->stats().ToString());
  ASSERT_EQ(post.size(), pre.size());  // same counters render on both sides
  for (const auto& [name, value] : pre) {
    ASSERT_TRUE(post.count(name)) << name;
    EXPECT_GE(post.at(name), value)
        << "counter " << name << " went backwards across Crash()/Recover()";
  }
  EXPECT_EQ(post.at("mediator_crashes"), 1u);
  EXPECT_EQ(post.at("recoveries"), 1u);
  ASSERT_EQ(answers_.size(), 1u);
  EXPECT_EQ(Rows(answers_[0].data), kUpdatedT);
  ExpectConsistentTrace();
}

TEST_F(CrashRecovery, CrashDropsTheSnapshotState) {
  // The latest MVCC snapshot is a copy of every repository held in process
  // memory, so it must die with the crash like the repositories do.
  // Recovery then publishes the recovered state as a later version.
  MediatorOptions options;
  options.mvcc_reads = true;
  options.durability.device = &log_dev_;
  MakeMediator(AnnotationExample21(), options);
  CommitR(1.0, Tuple({2, 200, 22, 100}));
  scheduler_.RunUntil(6.0);

  const LocalStore& store = mediator_->store();
  StoreSnapshotPtr pinned = store.Snapshot();
  ASSERT_NE(pinned, nullptr);
  mediator_->Crash();
  EXPECT_EQ(store.Snapshot(), nullptr);
  for (const auto& node : store.MaterializedNodes()) {
    SQ_ASSERT_OK_AND_ASSIGN(const Relation* repo, store.Repo(node));
    EXPECT_TRUE(repo->Empty()) << node;
  }
  // A reader's pin is not process state the crash could reach into.
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* pinned_t, pinned->Repo("T"));
  EXPECT_EQ(Rows(*pinned_t), kUpdatedT);

  SQ_ASSERT_OK(mediator_->Recover());
  StoreSnapshotPtr recovered = store.Snapshot();
  ASSERT_NE(recovered, nullptr);
  EXPECT_GT(recovered->version(), pinned->version());
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* recovered_t, recovered->Repo("T"));
  EXPECT_EQ(Rows(*recovered_t), kUpdatedT);
  pinned.reset();
  ExpectConsistentTrace();
}

TEST_F(CrashRecovery, WalDisabledProvablyLosesCommittedUpdate) {
  MediatorOptions options;
  options.durability.device = &log_dev_;
  options.durability.wal = false;       // checkpoint-only mode
  options.durability.checkpoint_every = 0;  // just the initial checkpoint
  MakeMediator(AnnotationExample21(), options);

  // Identical scenario to CrashAfterCommitReplaysFromWal — but with no WAL
  // the update that committed at ~2.0 exists only in volatile memory, so
  // the crash at 6.0 erases it and recovery restores the initial checkpoint.
  CommitR(1.0, Tuple({2, 200, 22, 100}));
  CrashRecoverAt(6.0);
  QueryAt(10.0);
  scheduler_.RunUntil(1000.0);

  EXPECT_EQ(mediator_->stats().recoveries, 1u);
  ASSERT_EQ(answers_.size(), 1u);
  EXPECT_EQ(Rows(answers_[0].data), kInitialT);  // the update is GONE
  EXPECT_NE(Rows(answers_[0].data), kUpdatedT);
}

TEST_F(CrashRecovery, PeriodicCheckpointTruncatesTheLog) {
  MediatorOptions options;
  options.durability.device = &log_dev_;
  options.durability.checkpoint_every = 2;  // checkpoint every 2 commits
  MakeMediator(AnnotationExample21(), options);

  for (int i = 0; i < 6; ++i) {
    CommitR(1.0 + i * 5.0, Tuple({10 + i, 100, 50 + i, 100}));
  }
  QueryAt(60.0);
  scheduler_.RunUntil(1000.0);

  // 1 initial + 3 periodic checkpoints; each truncated its prefix, so the
  // device holds only the records after the newest checkpoint.
  EXPECT_GE(mediator_->durability().checkpoints_written(), 4u);
  auto records = log_dev_.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_FALSE(records->empty());
  EXPECT_LT(records->size(), mediator_->durability().records_logged());
  ASSERT_EQ(answers_.size(), 1u);
  ExpectConsistentTrace();
}

TEST_F(CrashRecovery, NoLogDeviceMeansNoRecovery) {
  MakeMediator(AnnotationExample21(), MediatorOptions{});  // no durability
  Status query_status = Status::OK();
  scheduler_.At(5.0, [this]() { mediator_->Crash(); });
  scheduler_.At(6.0, [this, &query_status]() {
    mediator_->SubmitQuery(
        ViewQuery{"T", {}, nullptr},
        [&query_status](Result<ViewAnswer> ans) {
          query_status = ans.status();
        });
  });
  scheduler_.RunUntil(100.0);

  EXPECT_TRUE(mediator_->crashed());
  EXPECT_EQ(query_status.code(), StatusCode::kUnavailable);
  Status recover = mediator_->Recover();
  EXPECT_EQ(recover.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace squirrel
