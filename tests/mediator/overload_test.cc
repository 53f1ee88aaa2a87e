// Unit tests for the overload-protection layer (DESIGN.md §15): cancel
// tokens and their thread-local scope, the memory budget's soft/hard limit
// policy, the per-class admission gate, the capped+jittered poll backoff,
// the poll-message wire codec's new fields, and every typed
// kDeadlineExceeded / kOverloaded path through a live simulated mediator.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/memory_budget.h"
#include "delta/delta_algebra.h"
#include "mediator/admission.h"
#include "mediator/durability/serialize.h"
#include "mediator/mediator.h"
#include "relational/operators.h"
#include "relational/parser.h"
#include "testing/util.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace {

using testing::MakeSchema;

// ---------------------------------------------------------------------------
// CancelToken + thread-local scope
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, FirstCancelWins) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  SQ_EXPECT_OK(token.status());
  token.Cancel(Status::DeadlineExceeded("first"));
  token.Cancel(Status::Overloaded("second"));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, CheckCancelWithoutScopeIsOk) {
  EXPECT_EQ(CurrentCancelToken(), nullptr);
  SQ_EXPECT_OK(CheckCancel());
}

TEST(CancelTokenTest, ScopedInstallAndNestingRestores) {
  CancelToken outer, inner;
  {
    ScopedCancelScope a(&outer);
    EXPECT_EQ(CurrentCancelToken(), &outer);
    SQ_EXPECT_OK(CheckCancel());
    {
      ScopedCancelScope b(&inner);
      EXPECT_EQ(CurrentCancelToken(), &inner);
      inner.Cancel(Status::Overloaded("inner dead"));
      EXPECT_EQ(CheckCancel().code(), StatusCode::kOverloaded);
    }
    EXPECT_EQ(CurrentCancelToken(), &outer);
    SQ_EXPECT_OK(CheckCancel());  // outer token is untouched
  }
  EXPECT_EQ(CurrentCancelToken(), nullptr);
}

// Every long relational row loop checks the installed token every
// kCancelCheckRows rows, so a cancelled query stops inside a big select,
// join or diff with the token's typed reason instead of finishing it.
TEST(KernelCancelTest, RowLoopsReturnTheTokenReason) {
  const int64_t n = static_cast<int64_t>(kCancelCheckRows) + 1;
  Relation r(MakeSchema("R(a, b)"), Semantics::kBag);
  Relation s(MakeSchema("S(c, d)"), Semantics::kBag);
  Delta d(MakeSchema("R(a, b)"));
  for (int64_t i = 0; i < n; ++i) {
    SQ_ASSERT_OK(r.Insert(Tuple({i, i % 7})));
    SQ_ASSERT_OK(s.Insert(Tuple({i, i % 5})));
    SQ_ASSERT_OK(d.Add(Tuple({i, i % 7}), 1));
  }
  CancelToken token;
  token.Cancel(Status::DeadlineExceeded("query deadline"));
  ScopedCancelScope scope(&token);
  auto expect_reason = [](const Status& st, const char* what) {
    EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded)
        << what << ": " << st.ToString();
  };
  expect_reason(OpSelect(r, testing::Pred("b > 2")).status(), "OpSelect");
  expect_reason(OpJoin(r, s, testing::Pred("a = c")).status(),
                "OpJoin hash probe");
  expect_reason(OpJoin(r, s, testing::Pred("a < c")).status(),
                "OpJoin nested loop");
  expect_reason(DeltaJoinRelation(d, s, testing::Pred("a = c")).status(),
                "DeltaJoinRelation probe");
  expect_reason(DeltaJoinRelation(d, s, testing::Pred("a < c")).status(),
                "DeltaJoinRelation nested loop");
  // Delta::Between's two loops: over `to`, then over the rest of `from`.
  expect_reason(Delta::Between(r, r).status(), "Delta::Between, to loop");
  expect_reason(Delta::Between(r, Relation(r.schema(), Semantics::kBag))
                    .status(),
                "Delta::Between, from loop");
}

// ---------------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------------

TEST(MemoryBudgetTest, AccountingAndPeak) {
  MemoryBudget b(/*soft=*/0, /*hard=*/0);
  b.Charge(100);
  b.Charge(50);
  EXPECT_EQ(b.used(), 150u);
  EXPECT_EQ(b.peak(), 150u);
  b.Release(120);
  EXPECT_EQ(b.used(), 30u);
  EXPECT_EQ(b.peak(), 150u);  // high-water survives releases
  b.Release(1000);            // clamped, never underflows
  EXPECT_EQ(b.used(), 0u);
}

TEST(MemoryBudgetTest, SoftBreach) {
  MemoryBudget b(/*soft=*/100, /*hard=*/0);
  b.Charge(100);
  EXPECT_FALSE(b.SoftBreached());  // at the limit, not over it
  b.Charge(1);
  EXPECT_TRUE(b.SoftBreached());
  b.Release(50);
  EXPECT_FALSE(b.SoftBreached());
}

TEST(MemoryBudgetTest, HardBreachCancelsCurrentToken) {
  MemoryBudget b(/*soft=*/0, /*hard=*/100);
  b.Charge(200);  // no token installed: counts, cancels nobody
  EXPECT_EQ(b.hard_cancels(), 0u);
  CancelToken token;
  {
    ScopedCancelScope scope(&token);
    b.Charge(1);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.status().code(), StatusCode::kOverloaded);
    EXPECT_EQ(CheckCancel().code(), StatusCode::kOverloaded);
  }
  EXPECT_EQ(b.hard_cancels(), 1u);
}

TEST(MemoryBudgetTest, GlobalChargeAndScopedRelease) {
  EXPECT_EQ(GlobalMemoryBudget(), nullptr);
  EXPECT_EQ(ChargeGlobalBudget(64), nullptr);  // accounting off: no-op
  MemoryBudget b(/*soft=*/0, /*hard=*/0);
  {
    ScopedMemoryBudget scope(&b);
    EXPECT_EQ(GlobalMemoryBudget(), &b);
    EXPECT_EQ(ChargeGlobalBudget(64), &b);
    EXPECT_EQ(b.used(), 64u);
    ReleaseGlobalBudget(&b, 10);
    EXPECT_EQ(b.used(), 54u);
  }
  // A holder outliving the scope must not touch the replaced accountant.
  ReleaseGlobalBudget(&b, 54);
  EXPECT_EQ(b.used(), 54u);
  EXPECT_EQ(GlobalMemoryBudget(), nullptr);
}

// ---------------------------------------------------------------------------
// AdmissionGate
// ---------------------------------------------------------------------------

TEST(AdmissionGateTest, DisabledGateAdmitsEverything) {
  AdmissionGate gate;
  for (int i = 0; i < 100; ++i) {
    SQ_EXPECT_OK(gate.Admit(QueryClass::kInteractive, /*soft_breached=*/false));
  }
  EXPECT_EQ(gate.admitted(), 100u);
  EXPECT_EQ(gate.rejected(), 0u);
}

TEST(AdmissionGateTest, CapsActivePlusQueuedPerClass) {
  AdmissionOptions opts;
  opts.max_active[static_cast<size_t>(QueryClass::kInteractive)] = 1;
  opts.max_queued[static_cast<size_t>(QueryClass::kInteractive)] = 1;
  opts.retry_after_hint = 7;
  AdmissionGate gate(opts);
  SQ_EXPECT_OK(gate.Admit(QueryClass::kInteractive, false));
  SQ_EXPECT_OK(gate.Admit(QueryClass::kInteractive, false));
  Status third = gate.Admit(QueryClass::kInteractive, false);
  EXPECT_EQ(third.code(), StatusCode::kOverloaded);
  EXPECT_NE(third.ToString().find("retry"), std::string::npos)
      << "rejection must carry the retry-after hint: " << third.ToString();
  // Another class is unaffected by the interactive cap.
  SQ_EXPECT_OK(gate.Admit(QueryClass::kBatch, false));
  // Releasing a slot re-opens admission.
  gate.Release(QueryClass::kInteractive);
  SQ_EXPECT_OK(gate.Admit(QueryClass::kInteractive, false));
  EXPECT_EQ(gate.rejected(), 1u);
}

TEST(AdmissionGateTest, SoftBudgetBreachShedsOnlyBatch) {
  AdmissionGate gate;  // even a fully unlimited gate sheds batch work
  EXPECT_EQ(gate.Admit(QueryClass::kBatch, /*soft_breached=*/true).code(),
            StatusCode::kOverloaded);
  SQ_EXPECT_OK(gate.Admit(QueryClass::kInteractive, /*soft_breached=*/true));
  SQ_EXPECT_OK(gate.Admit(QueryClass::kInternal, /*soft_breached=*/true));
  EXPECT_EQ(gate.shed_soft_budget(), 1u);
  // Once usage drains below the soft limit batch work admits again.
  SQ_EXPECT_OK(gate.Admit(QueryClass::kBatch, /*soft_breached=*/false));
}

TEST(AdmissionGateTest, ResetInflightDropsSlotsKeepsCounters) {
  AdmissionOptions opts;
  opts.max_active[static_cast<size_t>(QueryClass::kInteractive)] = 1;
  AdmissionGate gate(opts);
  SQ_EXPECT_OK(gate.Admit(QueryClass::kInteractive, false));
  EXPECT_EQ(gate.Admit(QueryClass::kInteractive, false).code(),
            StatusCode::kOverloaded);
  gate.ResetInflight();  // mediator crash: admitted queries died with it
  EXPECT_EQ(gate.Inflight(QueryClass::kInteractive), 0u);
  SQ_EXPECT_OK(gate.Admit(QueryClass::kInteractive, false));
  EXPECT_EQ(gate.admitted(), 2u);
  EXPECT_EQ(gate.rejected(), 1u);
}

// ---------------------------------------------------------------------------
// PollBackoffDelay: exponential backoff, ceiling, deterministic jitter
// ---------------------------------------------------------------------------

MediatorOptions BackoffOptions() {
  MediatorOptions o;
  o.poll_timeout = 2.0;
  return o;
}

TEST(PollBackoffTest, UncappedExponential) {
  MediatorOptions o = BackoffOptions();
  EXPECT_DOUBLE_EQ(PollBackoffDelay(o, 0, 1), 2.0);
  EXPECT_DOUBLE_EQ(PollBackoffDelay(o, 1, 1), 4.0);
  EXPECT_DOUBLE_EQ(PollBackoffDelay(o, 2, 1), 8.0);
  EXPECT_DOUBLE_EQ(PollBackoffDelay(o, 3, 1), 16.0);
}

TEST(PollBackoffTest, CapIsACeiling) {
  MediatorOptions o = BackoffOptions();
  o.poll_backoff_cap = 5.0;
  EXPECT_DOUBLE_EQ(PollBackoffDelay(o, 0, 1), 2.0);
  EXPECT_DOUBLE_EQ(PollBackoffDelay(o, 1, 1), 4.0);
  EXPECT_DOUBLE_EQ(PollBackoffDelay(o, 2, 1), 5.0);
  EXPECT_DOUBLE_EQ(PollBackoffDelay(o, 9, 1), 5.0);
}

TEST(PollBackoffTest, JitterDeterministicAndBounded) {
  MediatorOptions o = BackoffOptions();
  o.poll_jitter = 0.5;
  o.poll_jitter_seed = 42;
  bool saw_difference = false;
  for (int attempt = 0; attempt < 4; ++attempt) {
    for (uint64_t gen = 1; gen <= 8; ++gen) {
      const double base = PollBackoffDelay(BackoffOptions(), attempt, gen);
      const double d = PollBackoffDelay(o, attempt, gen);
      EXPECT_GE(d, base) << "attempt " << attempt << " gen " << gen;
      EXPECT_LE(d, base * 1.5 + 1e-9) << "attempt " << attempt << " gen "
                                      << gen;
      // Same (seed, generation, attempt) -> same delay, replays agree.
      EXPECT_DOUBLE_EQ(d, PollBackoffDelay(o, attempt, gen));
      if (d != base) saw_difference = true;
    }
  }
  EXPECT_TRUE(saw_difference) << "jitter never perturbed any delay";
  // A different seed draws a different schedule (somewhere in the grid).
  MediatorOptions o2 = o;
  o2.poll_jitter_seed = 43;
  bool seeds_differ = false;
  for (int attempt = 0; attempt < 4 && !seeds_differ; ++attempt) {
    for (uint64_t gen = 1; gen <= 8 && !seeds_differ; ++gen) {
      seeds_differ =
          PollBackoffDelay(o, attempt, gen) != PollBackoffDelay(o2, attempt, gen);
    }
  }
  EXPECT_TRUE(seeds_differ);
}

TEST(PollBackoffTest, CapAppliesAfterJitter) {
  MediatorOptions o = BackoffOptions();
  o.poll_jitter = 0.5;
  o.poll_jitter_seed = 42;
  o.poll_backoff_cap = 5.0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    for (uint64_t gen = 1; gen <= 8; ++gen) {
      EXPECT_LE(PollBackoffDelay(o, attempt, gen), 5.0)
          << "jitter escaped the ceiling at attempt " << attempt;
    }
  }
}

// ---------------------------------------------------------------------------
// Poll wire codec: deadline / class / retry-after round-trip
// ---------------------------------------------------------------------------

TEST(PollWireTest, PollRequestRoundTripsOverloadFields) {
  PollRequest req;
  req.id = 77;
  req.deadline = 123.5;
  req.qclass = QueryClass::kBatch;
  PollSpec p;
  p.relation = "R";
  p.attrs = {"r1", "r2"};
  auto cond = ParsePredicate("r1 < 10");
  SQ_ASSERT_OK(cond.status());
  p.cond = *cond;
  req.polls.push_back(p);
  PollSpec bare;
  bare.relation = "S";
  req.polls.push_back(bare);

  BinaryWriter w;
  EncodePollRequest(&w, req);
  BinaryReader r(w.bytes());
  auto back = DecodePollRequest(&r);
  SQ_ASSERT_OK(back.status());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back->id, 77u);
  EXPECT_DOUBLE_EQ(back->deadline, 123.5);
  EXPECT_EQ(back->qclass, QueryClass::kBatch);
  ASSERT_EQ(back->polls.size(), 2u);
  EXPECT_EQ(back->polls[0].relation, "R");
  EXPECT_EQ(back->polls[0].attrs, (std::vector<std::string>{"r1", "r2"}));
  ASSERT_NE(back->polls[0].cond, nullptr);
  EXPECT_EQ(back->polls[0].cond->ToString(), req.polls[0].cond->ToString());
  EXPECT_EQ(back->polls[1].cond, nullptr);
}

TEST(PollWireTest, PollAnswerRoundTripsRetryAfter) {
  PollAnswer ans;
  ans.id = 9;
  ans.source = "DB1";
  ans.answered_at = 4.25;
  ans.epoch = 3;
  ans.retry_after = 10.75;  // a responder-side deadline rejection
  BinaryWriter w;
  EncodePollAnswer(&w, ans);
  BinaryReader r(w.bytes());
  auto back = DecodePollAnswer(&r);
  SQ_ASSERT_OK(back.status());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back->id, 9u);
  EXPECT_EQ(back->source, "DB1");
  EXPECT_DOUBLE_EQ(back->answered_at, 4.25);
  EXPECT_EQ(back->epoch, 3u);
  EXPECT_DOUBLE_EQ(back->retry_after, 10.75);
}

// ---------------------------------------------------------------------------
// Mediator-level typed paths, on the simulated Figure-1 deployment
// ---------------------------------------------------------------------------

class OverloadMediatorTest : public ::testing::Test {
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

  void MakeMediator(const Annotation& ann, MediatorOptions options) {
    auto vdp = BuildFigure1Vdp();
    ASSERT_TRUE(vdp.ok());
    std::vector<SourceSetup> setups = {
        {db1_.get(), /*comm=*/1.0, /*q_proc=*/0.5, /*announce=*/0.0},
        {db2_.get(), /*comm=*/1.0, /*q_proc=*/0.5, /*announce=*/0.0},
    };
    auto med = Mediator::Create(*vdp, ann, setups, &scheduler_, options);
    ASSERT_TRUE(med.ok()) << med.status().ToString();
    mediator_ = std::move(med).value();
    SQ_ASSERT_OK(mediator_->Start());
  }

  /// Schedules a query at \p at, recording its terminal Result.
  void QueryAt(Time at, ViewQuery q) {
    scheduler_.At(at, [this, q]() {
      mediator_->SubmitQuery(q, [this](Result<ViewAnswer> ans) {
        results_.push_back(std::move(ans));
      });
    });
  }

  Scheduler scheduler_;
  std::unique_ptr<SourceDb> db1_, db2_;
  std::unique_ptr<Mediator> mediator_;
  std::vector<Result<ViewAnswer>> results_;
};

TEST_F(OverloadMediatorTest, DeadlineAlreadyPassedAtSubmitFailsFast) {
  MakeMediator(AnnotationExample21(), MediatorOptions{});
  ViewQuery q{"T", {}, nullptr};
  q.deadline = 1.0;
  QueryAt(5.0, q);  // submit well past the absolute deadline
  scheduler_.RunUntil(100.0);
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_EQ(results_[0].status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(mediator_->stats().deadline_exceeded_queries, 1u);
}

TEST_F(OverloadMediatorTest, DeadlineExpiringMidPollFailsTyped) {
  // Hybrid annotation with virtual r3/s2: the full-width query must poll,
  // and a healthy round trip (comm 1.0 each way + q_proc 0.5) takes ~2.5s
  // — far past the deadline.
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MakeMediator(AnnotationExample23(*vdp), MediatorOptions{});
  ViewQuery q{"T", {}, nullptr};
  q.deadline = 5.5;
  QueryAt(5.0, q);
  scheduler_.RunUntil(200.0);
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_EQ(results_[0].status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(mediator_->stats().deadline_exceeded_queries, 1u);
  // The deadline resolved the query AT 5.5, not when the poll round gave up.
  EXPECT_FALSE(mediator_->busy());
}

TEST_F(OverloadMediatorTest, ForwardedDeadlineRejectedByResponder) {
  // The PollRequest carries deadline - margin; with a 0.3s budget and a
  // 1.0s margin the stamped deadline is already past when the source
  // receives it, so the responder refuses with retry_after instead of
  // evaluating — and the mediator counts the arriving rejection.
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MakeMediator(AnnotationExample23(*vdp), MediatorOptions{});
  ViewQuery q{"T", {}, nullptr};
  q.deadline = 5.3;
  QueryAt(5.0, q);
  scheduler_.RunUntil(200.0);
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_EQ(results_[0].status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(mediator_->stats().poll_rejects, 1u);
}

TEST_F(OverloadMediatorTest, DegradedReadsServeMaterializedFractionAtDeadline) {
  // Hybrid annotation (join keys materialized): at the deadline the query
  // abandons its poll round and returns the materialized fraction with
  // staleness annotations instead of a typed failure.
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MediatorOptions options;
  options.degraded_reads = true;
  MakeMediator(AnnotationExample23(*vdp), options);
  ViewQuery q{"T", {}, nullptr};
  q.deadline = 5.5;
  QueryAt(5.0, q);
  scheduler_.RunUntil(200.0);
  ASSERT_EQ(results_.size(), 1u);
  ASSERT_TRUE(results_[0].ok()) << results_[0].status().ToString();
  EXPECT_TRUE(results_[0].value().degraded);
  EXPECT_GE(mediator_->stats().degraded_queries, 1u);
}

TEST_F(OverloadMediatorTest, QueuedQueryExpiresTypedEvenWithDegradedReads) {
  // Only a query that has started is served its materialized fraction at
  // its deadline. The full-width query holds the transaction slot for its
  // ~2.5s poll round; the second one, due 0.5s after submission, is still
  // queued behind it when its deadline fires, so it expires typed.
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MediatorOptions options;
  options.degraded_reads = true;
  MakeMediator(AnnotationExample23(*vdp), options);
  QueryAt(5.0, ViewQuery{"T", {}, nullptr});
  ViewQuery queued{"T", {}, nullptr};
  queued.deadline = 5.6;
  QueryAt(5.1, queued);
  scheduler_.RunUntil(200.0);
  ASSERT_EQ(results_.size(), 2u);
  EXPECT_EQ(results_[0].status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(results_[1].ok()) << results_[1].status().ToString();
  EXPECT_FALSE(results_[1].value().degraded);
  EXPECT_EQ(mediator_->stats().deadline_exceeded_queries, 1u);
  EXPECT_EQ(mediator_->stats().degraded_queries, 0u);
  EXPECT_FALSE(mediator_->busy());
}

TEST_F(OverloadMediatorTest, AdmissionGateRejectsOverlappingInteractive) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MediatorOptions options;
  options.admission.max_active[static_cast<size_t>(
      QueryClass::kInteractive)] = 1;
  MakeMediator(AnnotationExample23(*vdp), options);  // polling: queries are slow
  ViewQuery q{"T", {}, nullptr};
  QueryAt(5.0, q);
  QueryAt(5.1, q);  // lands while the first still holds the only slot
  scheduler_.RunUntil(300.0);
  ASSERT_EQ(results_.size(), 2u);
  // Simulation order: the t=5.1 submission is refused in its own event,
  // BEFORE the first query's poll round completes.
  EXPECT_EQ(results_[0].status().code(), StatusCode::kOverloaded);
  EXPECT_NE(results_[0].status().ToString().find("retry"), std::string::npos);
  ASSERT_TRUE(results_[1].ok()) << results_[1].status().ToString();
  EXPECT_EQ(mediator_->stats().queries_rejected_overload, 1u);
}

TEST_F(OverloadMediatorTest, InternalClassBypassesTheGate) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MediatorOptions options;
  options.admission.max_active[static_cast<size_t>(
      QueryClass::kInteractive)] = 1;
  MakeMediator(AnnotationExample23(*vdp), options);  // slow, overlapping
  ViewQuery q{"T", {}, nullptr};
  q.qclass = QueryClass::kInternal;
  QueryAt(5.0, q);
  QueryAt(5.1, q);
  QueryAt(5.2, q);
  scheduler_.RunUntil(300.0);
  ASSERT_EQ(results_.size(), 3u);
  for (const auto& r : results_) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(mediator_->stats().queries_rejected_overload, 0u);
}

TEST_F(OverloadMediatorTest, SoftBudgetBreachShedsBatchQueries) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MemoryBudget budget(/*soft=*/1, /*hard=*/0);
  budget.Charge(100);  // retained state already past the soft limit
  ScopedMemoryBudget scoped(&budget);
  MakeMediator(AnnotationExample21(), MediatorOptions{});
  ViewQuery batch{"T", {}, nullptr};
  batch.qclass = QueryClass::kBatch;
  ViewQuery interactive{"T", {}, nullptr};
  QueryAt(5.0, batch);
  QueryAt(6.0, interactive);
  scheduler_.RunUntil(100.0);
  ASSERT_EQ(results_.size(), 2u);
  EXPECT_EQ(results_[0].status().code(), StatusCode::kOverloaded);
  ASSERT_TRUE(results_[1].ok()) << results_[1].status().ToString();
  EXPECT_EQ(mediator_->stats().queries_shed_soft_budget, 1u);
  EXPECT_EQ(mediator_->stats().queries_rejected_overload, 0u);
}

TEST_F(OverloadMediatorTest, HardBudgetBreachCancelsTheChargingQuery) {
  // The query's join charges the budget mid-computation; the budget is
  // pre-loaded past its hard limit, so the first charge made UNDER the
  // query's cancel scope kills exactly that query with a typed error. The
  // IUP (which installs no token) keeps running: a later query answers.
  MemoryBudget budget(/*soft=*/0, /*hard=*/1);
  ScopedMemoryBudget scoped(&budget);
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MakeMediator(AnnotationExample23(*vdp), MediatorOptions{});
  ViewQuery q{"T", {}, nullptr};
  QueryAt(5.0, q);
  scheduler_.RunUntil(300.0);
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_EQ(results_[0].status().code(), StatusCode::kOverloaded)
      << (results_[0].ok() ? "query unexpectedly succeeded"
                           : results_[0].status().ToString());
  EXPECT_EQ(mediator_->stats().queries_cancelled_memory, 1u);
  EXPECT_GE(budget.hard_cancels(), 1u);
  EXPECT_FALSE(mediator_->busy());
  EXPECT_FALSE(mediator_->crashed());
}

TEST_F(OverloadMediatorTest, CrashReleasesAdmissionSlots) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  MediatorOptions options;
  options.admission.max_active[static_cast<size_t>(
      QueryClass::kInteractive)] = 1;
  MakeMediator(AnnotationExample23(*vdp), options);
  ViewQuery q{"T", {}, nullptr};
  QueryAt(5.0, q);  // holds the only slot through its poll round
  scheduler_.At(5.2, [this]() { mediator_->Crash(); });
  scheduler_.RunUntil(10.0);
  // The admitted query died with the crash; its slot must not leak into the
  // next incarnation and wedge the class forever.
  EXPECT_EQ(mediator_->admission().Inflight(QueryClass::kInteractive), 0u);
}

}  // namespace
}  // namespace squirrel
