#include <gtest/gtest.h>

#include "relational/operators.h"
#include "source/announcer.h"
#include "source/source_db.h"
#include "testing/util.h"

namespace squirrel {
namespace {

using testing::MakeSchema;
using testing::Pred;

MultiDelta OneInsert(const std::string& rel, const Schema& schema,
                     const Tuple& t) {
  MultiDelta md;
  EXPECT_TRUE(md.Mutable(rel, schema)->AddInsert(t).ok());
  return md;
}

TEST(SourceDbTest, DeclareAndCommit) {
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a, b) key(a)")));
  EXPECT_FALSE(db.AddRelation("R", MakeSchema("R(a)")).ok());
  SQ_ASSERT_OK(db.InsertTuple(1.0, "R", Tuple({1, 10})));
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* r, db.Current("R"));
  EXPECT_TRUE(r->Contains(Tuple({1, 10})));
  EXPECT_EQ(db.CommitCount(), 1u);
  EXPECT_DOUBLE_EQ(db.LastCommitTime(), 1.0);
}

TEST(SourceDbTest, CommitTimeMonotonicity) {
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a)")));
  SQ_ASSERT_OK(db.InsertTuple(5.0, "R", Tuple({1})));
  EXPECT_FALSE(db.InsertTuple(4.0, "R", Tuple({2})).ok());
  SQ_ASSERT_OK(db.InsertTuple(5.0, "R", Tuple({3})));  // equal time ok
}

TEST(SourceDbTest, CommitUnknownRelationRejected) {
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a)")));
  MultiDelta md = OneInsert("Zed", MakeSchema("Z(a)"), Tuple({1}));
  EXPECT_FALSE(db.Commit(1.0, md).ok());
}

TEST(SourceDbTest, RedundantCommitRejected) {
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a)")));
  SQ_ASSERT_OK(db.InsertTuple(1.0, "R", Tuple({1})));
  EXPECT_FALSE(db.InsertTuple(2.0, "R", Tuple({1})).ok());
  EXPECT_FALSE(db.DeleteTuple(2.0, "R", Tuple({9})).ok());
}

TEST(SourceDbTest, StateAtReplaysHistory) {
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a)")));
  SQ_ASSERT_OK(db.InsertTuple(1.0, "R", Tuple({1})));
  SQ_ASSERT_OK(db.InsertTuple(2.0, "R", Tuple({2})));
  SQ_ASSERT_OK(db.DeleteTuple(3.0, "R", Tuple({1})));

  SQ_ASSERT_OK_AND_ASSIGN(Relation at0, db.StateAt("R", 0.5));
  EXPECT_TRUE(at0.Empty());
  SQ_ASSERT_OK_AND_ASSIGN(Relation at1, db.StateAt("R", 1.0));
  EXPECT_EQ(testing::Rows(at1), "(1) ");
  SQ_ASSERT_OK_AND_ASSIGN(Relation at2, db.StateAt("R", 2.5));
  EXPECT_EQ(testing::Rows(at2), "(1) (2) ");
  SQ_ASSERT_OK_AND_ASSIGN(Relation at3, db.StateAt("R", 99.0));
  EXPECT_EQ(testing::Rows(at3), "(2) ");
}

TEST(SourceDbTest, QueryProjectsAndSelects) {
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a, b)")));
  SQ_ASSERT_OK(db.InsertTuple(1.0, "R", Tuple({1, 10})));
  SQ_ASSERT_OK(db.InsertTuple(2.0, "R", Tuple({2, 20})));
  SQ_ASSERT_OK_AND_ASSIGN(Relation out,
                          db.Query("R", {"a"}, Pred("b > 15")));
  EXPECT_EQ(testing::Rows(out), "(2) ");
}

// The scan oracle: π_attrs σ_cond over the current extent, never indexed.
Relation ScanQuery(const SourceDb& db, const std::string& rel,
                   const std::vector<std::string>& attrs,
                   const Expr::Ptr& cond) {
  auto current = db.Current(rel);
  EXPECT_TRUE(current.ok());
  auto selected = OpSelect(**current, cond);
  EXPECT_TRUE(selected.ok()) << selected.status().ToString();
  auto projected = OpProject(*selected, attrs, Semantics::kBag);
  EXPECT_TRUE(projected.ok()) << projected.status().ToString();
  return std::move(projected).value();
}

void ExpectKeyedEqualsScan(const SourceDb& db, const std::string& label) {
  const std::vector<std::pair<std::vector<std::string>, Expr::Ptr>> polls = {
      {{"a", "b"}, Expr::In("a", {1, 3, 5, 40, 999})},
      {{"b"}, Expr::In("b", {Value(0), Value(2.0), Value(4)})},
      {{"a", "c"}, Expr::And(Pred("c < 50"), Expr::In("b", {1, 3}))},
      {{"c"}, Expr::And(Expr::In("a", {2, 4, 6, 8}), Expr::In("b", {0, 2}))},
      {{"a"}, Expr::In("b", {})},
      // Not top-level: scanned, same answer.
      {{"a"}, Expr::Or(Expr::In("a", {1}), Pred("b = 2"))},
  };
  for (const auto& [attrs, cond] : polls) {
    SQ_ASSERT_OK_AND_ASSIGN(Relation keyed, db.Query("R", attrs, cond));
    Relation scanned = ScanQuery(db, "R", attrs, cond);
    EXPECT_TRUE(keyed.EqualContents(scanned))
        << label << " " << cond->ToString() << "\nkeyed: "
        << keyed.ToString() << "scanned: " << scanned.ToString();
  }
}

TEST(SourceKeyIndexTest, KeyedQueryEqualsScanAcrossCommitsAndRestart) {
  SourceDb db("DB");
  const Schema schema = MakeSchema("R(a, b, c) key(a)");
  SQ_ASSERT_OK(db.AddRelation("R", schema));
  Time now = 1.0;
  for (int i = 0; i < 60; ++i) {
    SQ_ASSERT_OK(db.InsertTuple(now, "R", Tuple({i, i % 5, i * 3})));
  }
  // First keyed queries build indexes on both a and b.
  ExpectKeyedEqualsScan(db, "seeded");
  // Deletes and inserts in one commit (b collides across rows), then
  // single-tuple commits, all maintained by Commit.
  MultiDelta md;
  Delta* d = md.Mutable("R", schema);
  SQ_ASSERT_OK(d->AddDelete(Tuple({1, 1, 3})));
  SQ_ASSERT_OK(d->AddDelete(Tuple({40, 0, 120})));
  SQ_ASSERT_OK(d->AddInsert(Tuple({999, 2, 7})));
  SQ_ASSERT_OK(d->AddInsert(Tuple({1000, Value(2.0), 8})));
  SQ_ASSERT_OK(db.Commit(now += 1, md));
  ExpectKeyedEqualsScan(db, "after batch");
  SQ_ASSERT_OK(db.DeleteTuple(now += 1, "R", Tuple({3, 3, 9})));
  SQ_ASSERT_OK(db.InsertTuple(now += 1, "R", Tuple({3, 4, 10})));
  SQ_ASSERT_OK(db.InsertTuple(now += 1, "R", Tuple({Value(), 4, 11})));
  ExpectKeyedEqualsScan(db, "after singles");
  // A rejected (redundant) commit leaves the answers exact.
  EXPECT_FALSE(db.InsertTuple(now += 1, "R", Tuple({3, 4, 10})).ok());
  ExpectKeyedEqualsScan(db, "after rejected commit");
  // Restart keeps the durable state, so the indexes stay valid.
  db.Restart(now += 1);
  ExpectKeyedEqualsScan(db, "after restart");
  SQ_ASSERT_OK(db.DeleteTuple(now += 1, "R", Tuple({5, 0, 15})));
  ExpectKeyedEqualsScan(db, "after restart and delete");
}

TEST(SourceKeyIndexTest, KeyedQueryEvaluatesOnlyCandidates) {
  // A row outside the key set is never evaluated, so its type error cannot
  // fail the keyed poll; a scan of the same condition does fail.
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a, b) key(a)")));
  SQ_ASSERT_OK(db.InsertTuple(1.0, "R", Tuple({1, 10})));
  SQ_ASSERT_OK(db.InsertTuple(1.0, "R", Tuple({2, "bad"})));
  Expr::Ptr cond = Expr::And(Pred("b < 50"), Expr::In("a", {1}));
  SQ_ASSERT_OK_AND_ASSIGN(Relation keyed, db.Query("R", {"a"}, cond));
  EXPECT_EQ(testing::Rows(keyed), "(1) ");
  EXPECT_FALSE(db.Query("R", {"a"}, Pred("b < 50")).ok());
  EXPECT_FALSE(
      db.Query("R", {"a"}, Expr::And(Pred("b < 50"), Expr::In("a", {2})))
          .ok());
}

TEST(SourceDbTest, CommitListenersInvokedInOrder) {
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a)")));
  int calls = 0;
  std::vector<int> order;
  db.AddCommitListener([&](Time t, const MultiDelta& d) {
    ++calls;
    order.push_back(1);
    EXPECT_GT(t, 0.0);
    EXPECT_FALSE(d.Empty());
  });
  // Sharded topologies hang several announcers off one db; every listener
  // must see every commit, in installation order.
  db.AddCommitListener([&](Time, const MultiDelta&) { order.push_back(2); });
  SQ_ASSERT_OK(db.InsertTuple(1.0, "R", Tuple({1})));
  SQ_ASSERT_OK(db.InsertTuple(2.0, "R", Tuple({2})));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(AnnouncerTest, ImmediateModeAnnouncesEveryCommit) {
  Scheduler sched;
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a)")));
  Channel<SourceToMediatorMsg> ch(&sched, 1.0);
  std::vector<UpdateMessage> got;
  ch.SetReceiver([&](SourceToMediatorMsg msg) {
    got.push_back(std::get<UpdateMessage>(std::move(msg)));
  });
  Announcer ann(&db, &sched, &ch, /*period=*/0);
  ann.Start();
  sched.At(1.0, [&]() { SQ_EXPECT_OK(db.InsertTuple(1.0, "R", Tuple({1}))); });
  sched.At(2.0, [&]() { SQ_EXPECT_OK(db.InsertTuple(2.0, "R", Tuple({2}))); });
  sched.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].source, "DB");
  EXPECT_DOUBLE_EQ(got[0].send_time, 1.0);
  EXPECT_EQ(got[0].seq, 1u);
  EXPECT_EQ(got[1].seq, 2u);
  EXPECT_EQ(ann.AnnouncementCount(), 2u);
}

TEST(AnnouncerTest, PeriodicModeBatchesNetChanges) {
  Scheduler sched;
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a)")));
  Channel<SourceToMediatorMsg> ch(&sched, 0.0);
  std::vector<UpdateMessage> got;
  ch.SetReceiver([&](SourceToMediatorMsg msg) {
    got.push_back(std::get<UpdateMessage>(std::move(msg)));
  });
  Announcer ann(&db, &sched, &ch, /*period=*/10.0);
  ann.Start();
  // Three commits within one period; +1 then -1 cancels.
  sched.At(1.0, [&]() { SQ_EXPECT_OK(db.InsertTuple(1.0, "R", Tuple({1}))); });
  sched.At(2.0, [&]() { SQ_EXPECT_OK(db.InsertTuple(2.0, "R", Tuple({2}))); });
  sched.At(3.0, [&]() { SQ_EXPECT_OK(db.DeleteTuple(3.0, "R", Tuple({1}))); });
  sched.RunUntil(11.0);
  ASSERT_EQ(got.size(), 1u);
  const Delta* d = got[0].delta.Find("R");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->CountOf(Tuple({1})), 0);
  EXPECT_EQ(d->CountOf(Tuple({2})), 1);
  EXPECT_DOUBLE_EQ(got[0].send_time, 10.0);
}

TEST(AnnouncerTest, PeriodicModeSkipsEmptyPeriods) {
  Scheduler sched;
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a)")));
  Channel<SourceToMediatorMsg> ch(&sched, 0.0);
  int messages = 0;
  ch.SetReceiver([&](SourceToMediatorMsg) { ++messages; });
  Announcer ann(&db, &sched, &ch, /*period=*/5.0);
  ann.Start();
  sched.RunUntil(30.0);  // no commits at all
  EXPECT_EQ(messages, 0);
}

TEST(PollResponderTest, AnswersAfterDelayAtOneState) {
  Scheduler sched;
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a, b)")));
  SQ_ASSERT_OK(db.InsertTuple(0.0, "R", Tuple({1, 10})));
  Channel<SourceToMediatorMsg> ch(&sched, 1.0);
  std::vector<PollAnswer> got;
  ch.SetReceiver([&](SourceToMediatorMsg msg) {
    got.push_back(std::get<PollAnswer>(std::move(msg)));
  });
  PollResponder responder(&db, &sched, &ch, nullptr, /*q_proc=*/2.0);
  PollRequest req;
  req.id = 7;
  req.polls.push_back({"R", {"a"}, nullptr});
  req.polls.push_back({"R", {"b"}, Pred("a = 1")});
  sched.At(1.0, [&]() { responder.OnRequest(req); });
  // A commit AFTER the processing completes must not affect the answer.
  sched.At(5.0, [&]() { SQ_EXPECT_OK(db.InsertTuple(5.0, "R", Tuple({2, 20}))); });
  sched.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 7u);
  EXPECT_DOUBLE_EQ(got[0].answered_at, 3.0);  // 1.0 + q_proc 2.0
  ASSERT_EQ(got[0].results.size(), 2u);
  EXPECT_EQ(testing::Rows(got[0].results[0]), "(1) ");
  EXPECT_EQ(testing::Rows(got[0].results[1]), "(10) ");
}

TEST(PollResponderTest, FlushesAnnouncerBeforeAnswering) {
  Scheduler sched;
  SourceDb db("DB");
  SQ_ASSERT_OK(db.AddRelation("R", MakeSchema("R(a)")));
  Channel<SourceToMediatorMsg> ch(&sched, 1.0);
  std::vector<int> kinds;  // 0 = update, 1 = answer
  ch.SetReceiver([&](SourceToMediatorMsg msg) {
    kinds.push_back(std::holds_alternative<PollAnswer>(msg) ? 1 : 0);
  });
  Announcer ann(&db, &sched, &ch, /*period=*/100.0);  // long batching
  ann.Start();
  PollResponder responder(&db, &sched, &ch, &ann, /*q_proc=*/0.5);
  sched.At(1.0, [&]() { SQ_EXPECT_OK(db.InsertTuple(1.0, "R", Tuple({1}))); });
  PollRequest req;
  req.polls.push_back({"R", {"a"}, nullptr});
  sched.At(2.0, [&]() { responder.OnRequest(req); });
  sched.RunUntil(50.0);
  // The pending update must arrive BEFORE the answer (FIFO, same channel).
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], 0);
  EXPECT_EQ(kinds[1], 1);
}

}  // namespace
}  // namespace squirrel
