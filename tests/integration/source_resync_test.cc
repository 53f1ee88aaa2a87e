// End-to-end source crash/restart behavior: epoch detection, anti-entropy
// snapshot resync, degraded-mode query answering with staleness annotations,
// quarantine rejoin accounting, and the freshness witness under a down
// source. Companion unit tests live in tests/mediator/resync_test.cc; the
// seeded acceptance sweeps in tests/property/source_resync_sweep_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mediator/consistency.h"
#include "mediator/durability/integrity.h"
#include "mediator/durability/log_device.h"
#include "mediator/freshness.h"
#include "mediator/mediator.h"
#include "sim/fault.h"
#include "testing/sim_harness.h"
#include "testing/util.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace {

using testing::MakeSchema;

/// An in-memory log device that, like a full disk, rejects every append of
/// the WAL record kinds it is armed with, identified by the record's tag
/// byte.
class RejectingLogDevice : public LogDevice {
 public:
  explicit RejectingLogDevice(std::set<uint8_t> tags)
      : tags_(std::move(tags)) {}

  Result<uint64_t> Append(std::string bytes) override {
    FrameInfo frame = UnframeRecord(bytes);
    if (frame.valid && frame.frame_class == FrameClass::kRecord &&
        !frame.payload.empty()) {
      const uint8_t tag = static_cast<uint8_t>(frame.payload[0]);
      if (tags_.count(tag) > 0) {
        ++rejected_[tag];
        return Status::Unavailable("log device full");
      }
    }
    return inner_.Append(std::move(bytes));
  }
  Status TruncatePrefix(uint64_t new_begin) override {
    return inner_.TruncatePrefix(new_begin);
  }
  Result<std::vector<LogRecord>> ReadAll() const override {
    return inner_.ReadAll();
  }
  uint64_t NextLsn() const override { return inner_.NextLsn(); }
  uint64_t SizeBytes() const override { return inner_.SizeBytes(); }

  /// Appends rejected with \p tag.
  uint64_t Rejected(uint8_t tag) const {
    auto it = rejected_.find(tag);
    return it == rejected_.end() ? 0 : it->second;
  }
  /// Appends rejected in total.
  uint64_t Rejected() const {
    uint64_t total = 0;
    for (const auto& [tag, n] : rejected_) total += n;
    return total;
  }

 private:
  std::set<uint8_t> tags_;
  std::map<uint8_t, uint64_t> rejected_;
  MemLogDevice inner_;
};

// WAL record tags (the first payload byte of a record frame).
constexpr uint8_t kTxnAbortTag = 4;
constexpr uint8_t kResyncBeginTag = 7;
constexpr uint8_t kResyncDoneTag = 8;

/// Figure 1 under caller-chosen annotation, fault plans, and options; DB2's
/// announcer may batch (so a restart can wipe a pending batch).
class ResyncFigure1 : public ::testing::Test {
 protected:
  void Init(Annotation ann, FaultPlan db1_plan, FaultPlan db2_plan,
            MediatorOptions options, Time announce2 = 0.0) {
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

    options.poll_timeout = options.poll_timeout == 0.0 ? 2.0
                                                       : options.poll_timeout;
    options.txn_retry_delay = 1.0;
    std::vector<SourceSetup> setups = {
        {db1_.get(), 0.5, 0.2, 0.0, inj1_.get()},
        {db2_.get(), 0.5, 0.2, announce2, inj2_.get()},
    };
    auto med = Mediator::Create(*vdp_, ann, setups, &scheduler_, options);
    ASSERT_TRUE(med.ok()) << med.status().ToString();
    med_ = std::move(med).value();
    SQ_ASSERT_OK(med_->Start());
  }

  /// Runs to \p until, then checks the export equals recomputation and the
  /// trace passes the independent checker.
  void FinishAndCheck(Time until) {
    scheduler_.RunUntil(until);
    EXPECT_FALSE(med_->busy());
    EXPECT_EQ(med_->QueueSize(), 0u);
    Result<ViewAnswer> answer = Status::Internal("no answer");
    scheduler_.At(until + 1, [&]() {
      ViewQuery q;
      q.relation = "T";
      med_->SubmitQuery(q,
                        [&](Result<ViewAnswer> a) { answer = std::move(a); });
    });
    scheduler_.RunUntil(until + 50);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    final_answer_ = answer->data;
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

  std::vector<std::string> NotesContaining(const std::string& needle) const {
    std::vector<std::string> out;
    for (const auto& n : med_->trace().notes()) {
      if (n.second.find(needle) != std::string::npos) out.push_back(n.second);
    }
    return out;
  }

  Scheduler scheduler_;
  std::unique_ptr<SourceDb> db1_, db2_;
  std::unique_ptr<FaultInjector> inj1_, inj2_;
  std::unique_ptr<Vdp> vdp_;
  std::unique_ptr<LogDevice> log_device_;  // outlives med_
  std::unique_ptr<Mediator> med_;
  std::optional<Relation> final_answer_;
};

TEST_F(ResyncFigure1, RestartedSourceResyncsLostBatchLosslessly) {
  // DB2 batches announcements every 4s and restarts at 15.3: a delete
  // committed at 9 is still pending in the announcer when the restart wipes
  // it, so only the anti-entropy snapshot can tell the mediator about it.
  FaultPlan db2_plan;
  db2_plan.restarts["DB2"] = {{10.0, 15.3}};
  Init(AnnotationExample21(), FaultPlan{}, db2_plan, MediatorOptions{},
       /*announce2=*/4.0);

  scheduler_.At(3.0, [&]() {
    SQ_EXPECT_OK(db1_->InsertTuple(scheduler_.Now(), "R",
                                   Tuple({2, 200, 22, 100})));
  });
  scheduler_.At(5.0, [&]() {
    SQ_EXPECT_OK(db2_->InsertTuple(scheduler_.Now(), "S", Tuple({200, 6, 20})));
  });
  scheduler_.At(9.0, [&]() {
    SQ_EXPECT_OK(db2_->DeleteTuple(scheduler_.Now(), "S", Tuple({100, 5, 10})));
  });

  // Mid-window probe: the mediator still believes the deleted row exists
  // (the delete is lost in the dead announcer), so T shows both joins.
  Result<ViewAnswer> stale = Status::Internal("no answer");
  scheduler_.At(14.0, [&]() {
    med_->SubmitQuery(ViewQuery{"T", {}, nullptr},
                      [&](Result<ViewAnswer> a) { stale = std::move(a); });
  });

  FinishAndCheck(50.0);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(stale->data.DistinctSize(), 2u);
  // Post-resync, the corrective delta removed the stale join partner.
  EXPECT_EQ(final_answer_->DistinctSize(), 1u);

  EXPECT_EQ(db2_->epoch(), 2u);
  const MediatorStats& stats = med_->stats();
  EXPECT_EQ(stats.epoch_bumps, 1u);
  EXPECT_EQ(stats.resyncs_started, 1u);
  EXPECT_EQ(stats.resyncs_completed, 1u);
  EXPECT_GE(stats.snapshots_requested, 1u);
  EXPECT_TRUE(HasNote("resync begin DB2 epoch 2"));
  EXPECT_TRUE(HasNote("resync done DB2 epoch 2"));
  EXPECT_TRUE(med_->resync().UnhealthySources().empty());
}

TEST_F(ResyncFigure1, EveryRejectedWalAppendIsCounted) {
  // The device rejects every resync-begin, resync-done and txn-abort
  // record. The mediator carries on past each loss, and
  // wal_append_failures must count every append the device rejected.
  auto device = std::make_unique<RejectingLogDevice>(
      std::set<uint8_t>{kTxnAbortTag, kResyncBeginTag, kResyncDoneTag});
  RejectingLogDevice* dev = device.get();
  log_device_ = std::move(device);
  MediatorOptions options;
  options.durability.device = dev;
  // DB2 restarts at 15.3: its hello begins a resync at 15.8, whose snapshot
  // answer lands at 17.0. Under Example 2.3 S' is virtual, so the R update
  // arriving at 16.4 must poll DB2 mid-resync and aborts.
  FaultPlan db2_plan;
  db2_plan.restarts["DB2"] = {{10.0, 15.3}};
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  Init(AnnotationExample23(*vdp), FaultPlan{}, db2_plan, options);
  scheduler_.At(15.9, [&]() {
    SQ_EXPECT_OK(db1_->InsertTuple(scheduler_.Now(), "R",
                                   Tuple({2, 100, 22, 100})));
  });
  FinishAndCheck(60.0);
  EXPECT_GE(dev->Rejected(kResyncBeginTag), 1u);
  EXPECT_GE(dev->Rejected(kResyncDoneTag), 1u);
  EXPECT_GE(dev->Rejected(kTxnAbortTag), 1u);
  EXPECT_GE(med_->stats().update_txn_aborts, 1u);
  EXPECT_EQ(med_->stats().wal_append_failures, dev->Rejected());
}

TEST_F(ResyncFigure1, DegradedQueryOverQuarantinedSourceAnnotatesStaleness) {
  // Example 2.3 hybrid: r3/s2 virtual, so queries touching r3 must poll
  // DB1. DB1 is down 10..60; an S commit at 12 exhausts its poll retries
  // and quarantines DB1, after which a proactive degraded answer is served
  // from the materialized half.
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  FaultPlan db1_plan;
  db1_plan.crashes["DB1"] = {{10.0, 60.0}};
  MediatorOptions options;
  options.degraded_reads = true;
  Init(AnnotationExample23(*vdp), db1_plan, FaultPlan{}, options);

  scheduler_.At(12.0, [&]() {
    SQ_EXPECT_OK(db2_->InsertTuple(scheduler_.Now(), "S", Tuple({200, 6, 20})));
  });
  Result<ViewAnswer> degraded = Status::Internal("no answer");
  scheduler_.At(40.0, [&]() {
    med_->SubmitQuery(ViewQuery{"T", {"r1", "r3"}, nullptr},
                      [&](Result<ViewAnswer> a) { degraded = std::move(a); });
  });
  FinishAndCheck(130.0);

  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded);
  // r3 has no materialized backing; the answer covers r1 only.
  EXPECT_EQ(degraded->missing_attrs, (std::vector<std::string>{"r3"}));
  EXPECT_EQ(degraded->data.schema().AttributeNames(),
            (std::vector<std::string>{"r1"}));
  ASSERT_EQ(degraded->staleness.size(), 2u);
  EXPECT_EQ(degraded->staleness[0].source, "DB1");
  EXPECT_TRUE(degraded->staleness[0].down);
  EXPECT_GE(degraded->staleness[0].staleness, 0.0);
  EXPECT_FALSE(degraded->staleness[1].down);

  const MediatorStats& stats = med_->stats();
  EXPECT_GE(stats.degraded_queries, 1u);
  EXPECT_GE(stats.quarantines, 1u);
  EXPECT_TRUE(HasNote("degraded query"));
  // The quarantine cleared once DB1 recovered and answered again.
  EXPECT_TRUE(med_->QuarantinedSources().empty());
}

TEST_F(ResyncFigure1, DegradedQueryAfterPollFailureWithoutPriorQuarantine) {
  // Reactive path: nothing has quarantined DB1 yet, the query's own polls
  // time out, and instead of kUnavailable the caller gets a degraded answer.
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  FaultPlan db1_plan;
  db1_plan.crashes["DB1"] = {{10.0, 60.0}};
  MediatorOptions options;
  options.degraded_reads = true;
  Init(AnnotationExample23(*vdp), db1_plan, FaultPlan{}, options);

  Result<ViewAnswer> degraded = Status::Internal("no answer");
  scheduler_.At(15.0, [&]() {
    med_->SubmitQuery(ViewQuery{"T", {"r1", "r3"}, nullptr},
                      [&](Result<ViewAnswer> a) { degraded = std::move(a); });
  });
  // Quarantine clears on the next delivery from the source; with no other
  // traffic in this test, DB1 proves itself alive via an announcement after
  // its window ends so the final check can poll normally again.
  scheduler_.At(70.0, [&]() {
    SQ_EXPECT_OK(db1_->InsertTuple(scheduler_.Now(), "R",
                                   Tuple({2, 200, 22, 100})));
  });
  FinishAndCheck(130.0);

  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_GT(med_->stats().poll_timeouts, 0u);
  EXPECT_EQ(med_->stats().failed_queries, 0u);
  EXPECT_TRUE(HasNote("query degraded after poll failure"));
}

TEST_F(ResyncFigure1, QuarantineClearRequarantineCycleResetsAccounting) {
  // Two symmetric DB1 outages, an S commit inside each: DB1 is quarantined,
  // rejoins, and is quarantined again. The second cycle must start from a
  // clean failure count (identical note text) and show up in the distinct
  // requarantines counter.
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  FaultPlan db1_plan;
  db1_plan.crashes["DB1"] = {{5.0, 25.0}, {45.0, 65.0}};
  Init(AnnotationExample22(*vdp), db1_plan, FaultPlan{}, MediatorOptions{});
  scheduler_.At(6.0, [&]() {
    SQ_EXPECT_OK(db2_->InsertTuple(scheduler_.Now(), "S", Tuple({200, 6, 20})));
  });
  scheduler_.At(46.0, [&]() {
    SQ_EXPECT_OK(db2_->InsertTuple(scheduler_.Now(), "S", Tuple({300, 7, 30})));
  });
  FinishAndCheck(110.0);

  const MediatorStats& stats = med_->stats();
  EXPECT_EQ(stats.quarantines, 2u);
  EXPECT_EQ(stats.requarantines, 1u);
  EXPECT_TRUE(med_->QuarantinedSources().empty());
  std::vector<std::string> q_notes = NotesContaining("quarantine DB1 after");
  ASSERT_EQ(q_notes.size(), 2u);
  // ClearQuarantine reset the silent-round count, so the second quarantine
  // reports the same count as the first instead of a running total.
  EXPECT_EQ(q_notes[0], q_notes[1]);
  EXPECT_EQ(NotesContaining("quarantine cleared DB1").size(), 2u);
}

TEST_F(ResyncFigure1, EffectiveFreshnessWitnessExtendsWhileSourceIsDown) {
  // DB1 never commits and is down 10..60 (quarantined by the S commit's
  // polls). Queries during the outage carry an ever-older DB1 reflect
  // entry, so RAW staleness blows the Theorem 7.2 bound — but the freshness
  // definition only needs SOME witness state, and a silent source's witness
  // extends forward, so EFFECTIVE staleness stays within the bound.
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  FaultPlan db1_plan;
  db1_plan.crashes["DB1"] = {{10.0, 60.0}};
  Init(AnnotationExample23(*vdp), db1_plan, FaultPlan{}, MediatorOptions{});

  scheduler_.At(12.0, [&]() {
    SQ_EXPECT_OK(db2_->InsertTuple(scheduler_.Now(), "S", Tuple({200, 6, 20})));
  });
  for (Time t : {20.0, 35.0, 50.0}) {
    scheduler_.At(t, [&]() {
      med_->SubmitQuery(ViewQuery{"T", {"r1", "s1"}, nullptr},
                        [](Result<ViewAnswer>) {});
    });
  }
  FinishAndCheck(130.0);
  EXPECT_GE(med_->stats().quarantines, 1u);

  FreshnessReport raw =
      CheckFreshness(med_->trace(), med_->DelayProfiles(), med_->Delays(),
                     med_->ContributorKinds());
  FreshnessReport effective =
      CheckFreshness(med_->trace(), med_->DelayProfiles(), med_->Delays(),
                     med_->ContributorKinds(), {db1_.get(), db2_.get()});
  auto find = [](const FreshnessReport& r,
                 const std::string& name) -> const SourceFreshness* {
    for (const auto& sf : r.per_source) {
      if (sf.source == name) return &sf;
    }
    return nullptr;
  };
  const SourceFreshness* raw_db1 = find(raw, "DB1");
  const SourceFreshness* eff_db1 = find(effective, "DB1");
  ASSERT_NE(raw_db1, nullptr);
  ASSERT_NE(eff_db1, nullptr);
  ASSERT_GT(eff_db1->samples, 0u);
  // Raw reflect-vector staleness pretends the down source kept changing.
  EXPECT_GT(raw_db1->max_staleness, raw_db1->bound);
  EXPECT_FALSE(raw_db1->within_bound);
  // With the source history supplied, the witness extends across the outage.
  EXPECT_LE(eff_db1->max_staleness, eff_db1->bound);
  EXPECT_TRUE(eff_db1->within_bound);
}

TEST(SourceResyncHarnessTest, RestartScheduleDrawsFromDedicatedRngStream) {
  // Satellite of the determinism story: enabling source restarts must not
  // perturb the channel/mediator fault schedule or the workload of a seed
  // (pinned via the harness's restart-free schedule rendering), and the
  // restart run must converge to the restart-free run's final exports.
  testing::FaultSimOptions on;
  on.source_restarts = 2;
  on.degraded_reads = true;
  on.require_all_healthy = true;
  testing::FaultSimOptions off = on;
  off.source_restarts = 0;
  off.require_all_healthy = false;
  uint64_t restarts_seen = 0;
  for (uint64_t seed : {11ull, 17ull}) {
    auto with = testing::RunFaultSim(seed, on);
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    auto without = testing::RunFaultSim(seed, off);
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    EXPECT_EQ(with->fault_plan_dump, without->fault_plan_dump)
        << "seed " << seed << ": restart windows perturbed the other draws";
    EXPECT_EQ(with->final_exports, without->final_exports)
        << "seed " << seed << ": restarts changed the converged exports";
    restarts_seen += with->source_restarts;
  }
  EXPECT_GT(restarts_seen, 0u) << "chosen seeds never drew a restart window";
}

}  // namespace
}  // namespace squirrel
