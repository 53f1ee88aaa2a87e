// Fault-injection behavior of the simulator and the mediator's robustness
// layer: deterministic injectors, duplicate suppression, crash windows with
// poll retries / transaction aborts / quarantine, and stale-answer dropping.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "mediator/consistency.h"
#include "mediator/mediator.h"
#include "sim/fault.h"
#include "testing/sim_harness.h"
#include "testing/util.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace {

using testing::MakeSchema;

TEST(FaultInjectorTest, SameSeedSamePlanSameDecisions) {
  FaultPlan plan;
  plan.delay_jitter_max = 0.5;
  plan.drop_prob = 0.4;
  plan.dup_prob = 0.3;
  plan.crashes["DB1"] = {{10.0, 20.0}};
  FaultInjector a(plan, 42);
  FaultInjector b(plan, 42);
  for (int i = 0; i < 200; ++i) {
    Time now = 0.1 * i;
    auto dir = i % 2 == 0 ? FaultInjector::Dir::kToMediator
                          : FaultInjector::Dir::kToSource;
    EXPECT_EQ(a.OnSend(now, 0.5, dir, "DB1"), b.OnSend(now, 0.5, dir, "DB1"))
        << i;
  }
  EXPECT_EQ(a.counters().transmissions_lost, b.counters().transmissions_lost);
  EXPECT_EQ(a.counters().duplicates, b.counters().duplicates);
  EXPECT_EQ(a.counters().blackholed, b.counters().blackholed);
}

TEST(FaultInjectorTest, CrashWindowsAndActiveUntil) {
  FaultPlan plan;
  plan.drop_prob = 1.0;  // every transmission lost until the cap
  plan.max_transmissions = 3;
  plan.retransmit_timeout = 1.0;
  plan.active_until = 100.0;
  plan.crashes["DB1"] = {{10.0, 20.0}};
  FaultInjector inj(plan, 7);
  EXPECT_FALSE(inj.Crashed("DB1", 9.9));
  EXPECT_TRUE(inj.Crashed("DB1", 10.0));
  EXPECT_TRUE(inj.Crashed("DB1", 19.9));
  EXPECT_FALSE(inj.Crashed("DB1", 20.0));
  EXPECT_FALSE(inj.Crashed("DB2", 15.0));
  // To-source messages during the crash are black-holed.
  EXPECT_TRUE(
      inj.OnSend(15.0, 0.5, FaultInjector::Dir::kToSource, "DB1").empty());
  // To-mediator messages survive: ARQ delivers after at most cap-1 timeouts.
  auto d = inj.OnSend(15.0, 0.5, FaultInjector::Dir::kToMediator, "DB1");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d[0], 2.0);  // two lost transmissions, then delivered
  // After active_until the link is clean.
  auto clean = inj.OnSend(150.0, 0.5, FaultInjector::Dir::kToMediator, "DB1");
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_DOUBLE_EQ(clean[0], 0.0);
}

/// Fixture: Figure 1 with Example 2.2's annotation (R' virtual, so update
/// transactions triggered by S-commits must poll DB1) under caller-chosen
/// fault plans.
class FaultedFigure1 : public ::testing::Test {
 protected:
  void Init(FaultPlan db1_plan, FaultPlan db2_plan) {
    db1_ = std::make_unique<SourceDb>("DB1");
    db2_ = std::make_unique<SourceDb>("DB2");
    SQ_ASSERT_OK(
        db1_->AddRelation("R", MakeSchema("R(r1, r2, r3, r4) key(r1)")));
    SQ_ASSERT_OK(db2_->AddRelation("S", MakeSchema("S(s1, s2, s3) key(s1)")));
    SQ_ASSERT_OK(db1_->InsertTuple(0, "R", Tuple({1, 100, 11, 100})));
    SQ_ASSERT_OK(db2_->InsertTuple(0, "S", Tuple({100, 5, 10})));
    inj1_ = std::make_unique<FaultInjector>(std::move(db1_plan), 1);
    inj2_ = std::make_unique<FaultInjector>(std::move(db2_plan), 2);

    auto vdp = BuildFigure1Vdp();
    ASSERT_TRUE(vdp.ok());
    vdp_ = std::make_unique<Vdp>(*vdp);
    Annotation ann = AnnotationExample22(*vdp_);

    MediatorOptions options;
    options.poll_timeout = 2.0;
    options.txn_retry_delay = 1.0;
    std::vector<SourceSetup> setups = {
        {db1_.get(), 0.5, 0.2, 0.0, inj1_.get()},
        {db2_.get(), 0.5, 0.2, 0.0, inj2_.get()},
    };
    auto med =
        Mediator::Create(*vdp_, ann, setups, &scheduler_, options);
    ASSERT_TRUE(med.ok()) << med.status().ToString();
    med_ = std::move(med).value();
    SQ_ASSERT_OK(med_->Start());
  }

  /// Runs to \p until, then checks the export equals recomputation.
  void FinishAndCheck(Time until) {
    scheduler_.RunUntil(until);
    EXPECT_FALSE(med_->busy());
    EXPECT_EQ(med_->QueueSize(), 0u);
    Result<ViewAnswer> answer = Status::Internal("no answer");
    scheduler_.At(until + 1, [&]() {
      ViewQuery q;
      q.relation = "T";
      med_->SubmitQuery(q, [&](Result<ViewAnswer> a) { answer = std::move(a); });
    });
    scheduler_.RunUntil(until + 50);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ConsistencyChecker checker(vdp_.get(), &med_->annotation(),
                               {db1_.get(), db2_.get()});
    SQ_ASSERT_OK_AND_ASSIGN(Relation expected,
                            checker.EvalNodeAt("T", {until, until}));
    EXPECT_EQ(testing::Rows(answer->data), testing::Rows(expected.ToSet()));
    SQ_ASSERT_OK_AND_ASSIGN(ConsistencyReport report,
                            checker.Check(med_->trace()));
    EXPECT_TRUE(report.consistent())
        << (report.violations.empty() ? "no details" : report.violations[0]);
  }

  bool HasNote(const std::string& needle) const {
    const auto& notes = med_->trace().notes();
    return std::any_of(notes.begin(), notes.end(), [&](const auto& n) {
      return n.second.find(needle) != std::string::npos;
    });
  }

  Scheduler scheduler_;
  std::unique_ptr<SourceDb> db1_, db2_;
  std::unique_ptr<FaultInjector> inj1_, inj2_;
  std::unique_ptr<Vdp> vdp_;
  std::unique_ptr<Mediator> med_;
};

TEST_F(FaultedFigure1, DuplicateAnnouncementsAreSuppressed) {
  FaultPlan dup;
  dup.dup_prob = 1.0;  // every source->mediator message delivered twice
  dup.retransmit_timeout = 0.3;
  dup.active_until = 40.0;
  Init(FaultPlan{}, dup);
  scheduler_.At(10.0, [&]() {
    SQ_EXPECT_OK(db2_->InsertTuple(scheduler_.Now(), "S", Tuple({200, 6, 20})));
  });
  scheduler_.At(15.0, [&]() {
    SQ_EXPECT_OK(db2_->DeleteTuple(scheduler_.Now(), "S", Tuple({100, 5, 10})));
  });
  FinishAndCheck(60.0);
  EXPECT_GT(med_->stats().duplicate_updates_dropped, 0u);
  EXPECT_GT(inj2_->counters().duplicates, 0u);
}

TEST_F(FaultedFigure1, CrashedSourceTimesOutAbortsAndRecovers) {
  FaultPlan crash;
  crash.crashes["DB1"] = {{5.0, 30.0}};
  Init(crash, FaultPlan{});
  // The S-commit's update transaction needs R' data from DB1, which is down:
  // every polling round must time out, the transaction aborts and re-queues,
  // DB1 is quarantined, and after recovery a retry commits the update.
  scheduler_.At(10.0, [&]() {
    SQ_EXPECT_OK(db2_->InsertTuple(scheduler_.Now(), "S", Tuple({200, 6, 20})));
  });
  FinishAndCheck(80.0);
  const MediatorStats& stats = med_->stats();
  EXPECT_GT(stats.poll_timeouts, 0u);
  EXPECT_GT(stats.poll_retries, 0u);
  EXPECT_GT(stats.update_txn_aborts, 0u);
  EXPECT_GT(stats.quarantines, 0u);
  EXPECT_GT(inj1_->counters().blackholed, 0u);
  EXPECT_TRUE(HasNote("quarantine DB1"));
  EXPECT_TRUE(HasNote("update txn aborted"));
  // The quarantine cleared once DB1 answered after recovery.
  EXPECT_TRUE(med_->QuarantinedSources().empty());
  EXPECT_TRUE(HasNote("quarantine cleared DB1"));
}

TEST_F(FaultedFigure1, SlowAnswersToSupersededPollsAreDropped) {
  FaultPlan slow;
  slow.slow_poll_prob = 1.0;
  slow.slow_poll_delay = 6.0;  // beats the 2.0 poll timeout
  slow.active_until = 20.0;
  Init(slow, FaultPlan{});
  scheduler_.At(10.0, [&]() {
    SQ_EXPECT_OK(db2_->InsertTuple(scheduler_.Now(), "S", Tuple({200, 6, 20})));
  });
  FinishAndCheck(60.0);
  const MediatorStats& stats = med_->stats();
  EXPECT_GT(stats.poll_timeouts, 0u);
  EXPECT_GT(stats.stale_poll_answers, 0u);
  EXPECT_GT(inj1_->counters().slow_polls, 0u);
  // Despite the churn, the update committed exactly once.
  EXPECT_EQ(stats.duplicate_updates_dropped, 0u);
}

TEST(FaultSimHarnessTest, SeededRunIsConsistentAndReplaysByteIdentical) {
  for (uint64_t seed : {1ull, 2ull}) {
    auto first = testing::RunFaultSim(seed);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto second = testing::RunFaultSim(seed);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(first->trace_dump, second->trace_dump)
        << "seed " << seed << " did not replay byte-identically";
    EXPECT_GT(first->exports_checked, 0u);
  }
}

TEST(FaultSimHarnessTest, RejectsOptionsItCannotDeploy) {
  using SF = testing::FaultSimOptions::StorageFault;
  using Topology = testing::FaultSimOptions::Topology;
  const std::vector<std::pair<std::string, testing::FaultSimOptions>> cases =
      {{"mediator crashes without durability", {.mediator_crashes = 1}},
       {"crash point without durability", {.crash_at_wal_record = 0}},
       {"storage fault without durability",
        {.storage_fault = SF::kBitFlip}},
       {"final crash+recover without durability",
        {.final_crash_recover = true}},
       {"crash point on a shard tree",
        {.durability = true,
         .crash_at_wal_record = 0,
         .topology = Topology::kTwoShard}}};
  for (const auto& [what, opts] : cases) {
    auto run = testing::RunFaultSim(1, opts);
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << what;
  }
}

}  // namespace
}  // namespace squirrel
