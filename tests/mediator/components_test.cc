// Unit tests for the smaller mediator components: LocalStore, UpdateQueue,
// contributor classification, freshness bounds, and ViewQuery parsing.

#include <gtest/gtest.h>

#include "mediator/contributor.h"
#include "mediator/freshness.h"
#include "mediator/iup.h"
#include "mediator/local_store.h"
#include "mediator/query.h"
#include "mediator/update_queue.h"
#include "testing/util.h"
#include "vdp/paper_examples.h"
#include "vdp/rules.h"

namespace squirrel {
namespace {

using testing::MakeSchema;

class LocalStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto vdp = BuildFigure1Vdp();
    ASSERT_TRUE(vdp.ok());
    vdp_ = std::move(vdp).value();
  }
  Vdp vdp_;
};

TEST_F(LocalStoreTest, FullyMaterializedHasAllRepos) {
  Annotation ann;
  LocalStore store(&vdp_, &ann);
  EXPECT_TRUE(store.HasRepo("R'"));
  EXPECT_TRUE(store.HasRepo("S'"));
  EXPECT_TRUE(store.HasRepo("T"));
  EXPECT_FALSE(store.HasRepo("R"));  // leaves never have repos
  EXPECT_EQ(store.MaterializedNodes().size(), 3u);
}

TEST_F(LocalStoreTest, VirtualNodesHaveNoRepo) {
  Annotation ann = AnnotationExample23(vdp_);
  LocalStore store(&vdp_, &ann);
  EXPECT_FALSE(store.HasRepo("R'"));
  EXPECT_FALSE(store.HasRepo("S'"));
  EXPECT_TRUE(store.HasRepo("T"));
  // Hybrid repo schema holds only the materialized attrs.
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* t, store.Repo("T"));
  EXPECT_EQ(t->schema().AttributeNames(),
            (std::vector<std::string>{"r1", "s1"}));
  EXPECT_FALSE(store.Repo("R'").ok());
}

TEST_F(LocalStoreTest, ApplyNodeDeltaNarrowsToMaterialized) {
  Annotation ann = AnnotationExample23(vdp_);
  LocalStore store(&vdp_, &ann);
  Delta full(vdp_.Find("T")->schema);
  SQ_ASSERT_OK(full.AddInsert(Tuple({1, 11, 100, 5})));
  SQ_ASSERT_OK(store.ApplyNodeDelta("T", full));
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* t, store.Repo("T"));
  EXPECT_TRUE(t->Contains(Tuple({1, 100})));
}

TEST_F(LocalStoreTest, AdvisesAndMaintainsJoinIndexes) {
  Annotation ann;  // fully materialized (Example 2.1)
  // T = R' join[r2 = s1] S': the advisor keeps equi indexes on both join
  // sides and nothing else. T has no virtual attribute, so key-based
  // construction never probes R' by its key r1.
  EXPECT_EQ(AdviseIndexes(vdp_, ann),
            (IndexSpecs{{"R'", {{"r2"}}}, {"S'", {{"s1"}}}}));
  LocalStore store(&vdp_, &ann);
  const KeyIndex* r_idx = store.Index("R'", {"r2"});
  const KeyIndex* s_idx = store.Index("S'", {"s1"});
  ASSERT_NE(r_idx, nullptr);
  ASSERT_NE(s_idx, nullptr);
  EXPECT_EQ(store.Index("R'", {"r1"}), nullptr);
  EXPECT_EQ(store.Index("T", {"r1"}), nullptr);
  EXPECT_EQ(&s_idx->relation(), *store.Repo("S'"));
  EXPECT_EQ(s_idx->size(), 0u);

  // ApplyNodeDelta keeps the index exact.
  Delta ins(vdp_.Find("S'")->schema);
  SQ_ASSERT_OK(ins.AddInsert(Tuple({100, 5})));
  SQ_ASSERT_OK(store.ApplyNodeDelta("S'", ins));
  EXPECT_EQ(s_idx->size(), 1u);
  EXPECT_EQ(testing::ProbeRows(*s_idx, Tuple({100})), "(100, 5) ");
  Delta del(vdp_.Find("S'")->schema);
  SQ_ASSERT_OK(del.AddDelete(Tuple({100, 5})));
  SQ_ASSERT_OK(store.ApplyNodeDelta("S'", del));
  EXPECT_EQ(s_idx->size(), 0u);
  // A rejected delta leaves the index matching the unchanged repository.
  EXPECT_FALSE(store.ApplyNodeDelta("S'", del).ok());
  EXPECT_EQ(s_idx->size(), 0u);

  // SetRepo rebuilds from scratch; Wipe empties.
  Relation fresh(vdp_.Find("S'")->schema, Semantics::kBag);
  SQ_ASSERT_OK(fresh.Insert(Tuple({200, 6}), 1));
  SQ_ASSERT_OK(store.SetRepo("S'", std::move(fresh)));
  EXPECT_EQ(store.Index("S'", {"s1"}), s_idx);
  EXPECT_EQ(testing::ProbeRows(*s_idx, Tuple({200})), "(200, 6) ");
  store.Wipe();
  EXPECT_EQ(store.Index("S'", {"s1"}), s_idx);
  EXPECT_EQ(s_idx->size(), 0u);

  // A hybrid T[r1 m, r3 v, s1 m, s2 m] whose materialized R' supplies the
  // virtual r3 by R's key r1 (materialized in T) adds R'(r1). S' could
  // supply nothing virtual by its key s1, which the join index covers.
  Annotation hybrid;
  SQ_ASSERT_OK(hybrid.SetFromSpec(vdp_, "T", "r1 m, r3 v, s1 m, s2 m"));
  EXPECT_EQ(AdviseIndexes(vdp_, hybrid),
            (IndexSpecs{{"R'", {{"r2"}, {"r1"}}}, {"S'", {{"s1"}}}}));
  LocalStore hybrid_store(&vdp_, &hybrid);
  EXPECT_NE(hybrid_store.Index("R'", {"r1"}), nullptr);
}

TEST_F(LocalStoreTest, SetRepoValidatesSchema) {
  Annotation ann;
  LocalStore store(&vdp_, &ann);
  Relation wrong(MakeSchema("X(a)"), Semantics::kBag);
  EXPECT_FALSE(store.SetRepo("T", wrong).ok());
  EXPECT_FALSE(store.SetRepo("NoSuchNode", wrong).ok());
}

TEST(UpdateQueueTest, FifoFlush) {
  UpdateQueue queue;
  for (int i = 0; i < 3; ++i) {
    UpdateMessage msg;
    msg.source = "DB";
    msg.send_time = i;
    msg.seq = i;
    queue.Enqueue(std::move(msg));
  }
  EXPECT_EQ(queue.Size(), 3u);
  auto msgs = queue.Flush();
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_EQ(msgs[0].seq, 0u);
  EXPECT_EQ(msgs[2].seq, 2u);
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(queue.TotalEnqueued(), 3u);
}

TEST(UpdateQueueTest, PendingFromSmashesPerSource) {
  UpdateQueue queue;
  Schema schema = MakeSchema("R(a)");
  auto enqueue = [&](const std::string& source, const Tuple& t, int sign) {
    UpdateMessage msg;
    msg.source = source;
    SQ_EXPECT_OK(msg.delta.Mutable("R", schema)->Add(t, sign));
    queue.Enqueue(std::move(msg));
  };
  enqueue("A", Tuple({1}), 1);
  enqueue("B", Tuple({2}), 1);
  enqueue("A", Tuple({1}), -1);  // cancels for A
  enqueue("A", Tuple({3}), 1);
  SQ_ASSERT_OK_AND_ASSIGN(MultiDelta a, queue.PendingFrom("A"));
  const Delta* da = a.Find("R");
  ASSERT_NE(da, nullptr);
  EXPECT_EQ(da->CountOf(Tuple({1})), 0);
  EXPECT_EQ(da->CountOf(Tuple({3})), 1);
  SQ_ASSERT_OK_AND_ASSIGN(MultiDelta c, queue.PendingFrom("C"));
  EXPECT_TRUE(c.Empty());
}

TEST(UpdateQueueTest, RequeuePutsMessagesBackInFront) {
  UpdateQueue queue;
  auto make = [](const std::string& source, uint64_t seq) {
    UpdateMessage msg;
    msg.source = source;
    msg.seq = seq;
    return msg;
  };
  queue.Enqueue(make("A", 1));
  queue.Enqueue(make("A", 2));
  auto flushed = queue.Flush();
  ASSERT_EQ(flushed.size(), 2u);
  // A new announcement arrives while the (to-be-aborted) txn is in flight.
  queue.Enqueue(make("A", 3));
  queue.Requeue(std::move(flushed));
  EXPECT_EQ(queue.TotalRequeued(), 2u);
  // The requeued messages are older: per-source FIFO order must survive.
  auto msgs = queue.Flush();
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_EQ(msgs[0].seq, 1u);
  EXPECT_EQ(msgs[1].seq, 2u);
  EXPECT_EQ(msgs[2].seq, 3u);
  EXPECT_EQ(queue.TotalEnqueued(), 3u);  // requeues are not new arrivals
}

TEST(UpdateQueueTest, CoalescesSameSourceWithinWindow) {
  UpdateQueue queue;
  queue.SetCoalesceWindow(1.0);
  Schema schema = MakeSchema("R(a)");
  auto make = [&](const std::string& source, Time send_time, uint64_t seq,
                  const Tuple& t, int sign) {
    UpdateMessage msg;
    msg.source = source;
    msg.send_time = send_time;
    msg.seq = seq;
    SQ_EXPECT_OK(msg.delta.Mutable("R", schema)->Add(t, sign));
    return msg;
  };
  queue.Enqueue(make("A", 0.0, 1, Tuple({1}), 1));
  EXPECT_TRUE(queue.WouldCoalesce(make("A", 0.5, 2, Tuple({2}), 1)));
  queue.Enqueue(make("A", 0.5, 2, Tuple({2}), 1));  // merges into tail
  EXPECT_EQ(queue.Size(), 1u);
  EXPECT_EQ(queue.TotalCoalesced(), 1u);
  EXPECT_EQ(queue.TotalEnqueued(), 2u);  // arrival counters still count both
  // Different source breaks the run; outside the window breaks it too.
  EXPECT_FALSE(queue.WouldCoalesce(make("B", 0.6, 1, Tuple({3}), 1)));
  queue.Enqueue(make("B", 0.6, 1, Tuple({3}), 1));
  EXPECT_FALSE(queue.WouldCoalesce(make("B", 5.0, 2, Tuple({4}), 1)));
  queue.Enqueue(make("B", 5.0, 2, Tuple({4}), 1));
  EXPECT_EQ(queue.Size(), 3u);
  // The merged tail carries the later seq/send_time and the smashed delta.
  auto msgs = queue.Flush();
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_EQ(msgs[0].source, "A");
  EXPECT_EQ(msgs[0].seq, 2u);
  EXPECT_DOUBLE_EQ(msgs[0].send_time, 0.5);
  const Delta* da = msgs[0].delta.Find("R");
  ASSERT_NE(da, nullptr);
  EXPECT_EQ(da->CountOf(Tuple({1})), 1);
  EXPECT_EQ(da->CountOf(Tuple({2})), 1);
}

// Regression: a restarted source's first post-hello announcement used to
// merge into a pre-restart tail still sitting in the queue (same source,
// inside the window). The merged message took the NEW epoch while carrying
// pre-restart atoms, so the per-epoch seq dedup floor — which the restart
// hello resets — treated the whole thing as already-delivered new-epoch
// traffic and dropped it. Coalescing must refuse across epoch boundaries.
TEST(UpdateQueueTest, NeverCoalescesAcrossEpochBoundary) {
  UpdateQueue queue;
  queue.SetCoalesceWindow(5.0);
  Schema schema = MakeSchema("R(a)");
  auto make = [&](Time send_time, uint64_t seq, uint64_t epoch,
                  const Tuple& t) {
    UpdateMessage msg;
    msg.source = "A";
    msg.send_time = send_time;
    msg.seq = seq;
    msg.epoch = epoch;
    SQ_EXPECT_OK(msg.delta.Mutable("R", schema)->Add(t, 1));
    return msg;
  };
  queue.Enqueue(make(0.0, 7, 1, Tuple({1})));
  // Same source, well inside the window — but a NEW incarnation. The
  // restarted announcer numbers from seq 1 again; merging would stamp the
  // old atoms with epoch 2 / seq 1.
  UpdateMessage hello = make(0.5, 1, 2, Tuple({2}));
  EXPECT_FALSE(queue.WouldCoalesce(hello));
  queue.Enqueue(std::move(hello));
  ASSERT_EQ(queue.Size(), 2u);
  EXPECT_EQ(queue.TotalCoalesced(), 0u);
  // Within the new epoch, coalescing resumes normally.
  EXPECT_TRUE(queue.WouldCoalesce(make(0.9, 2, 2, Tuple({3}))));
  queue.Enqueue(make(0.9, 2, 2, Tuple({3})));
  EXPECT_EQ(queue.Size(), 2u);
  auto msgs = queue.Flush();
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].epoch, 1u);
  EXPECT_EQ(msgs[0].seq, 7u);
  EXPECT_EQ(msgs[1].epoch, 2u);
  EXPECT_EQ(msgs[1].seq, 2u);
}

// Regression: the backpressure shed (CoalesceOldest) had the same hole —
// under resync pressure it could merge a pre-restart message forward into a
// post-restart one from the same source, destroying the epoch boundary the
// resync machinery keys its dedup floor on. The shed must skip cross-epoch
// pairs even when that means the queue cannot shrink.
TEST(UpdateQueueTest, BackpressureShedRespectsEpochBoundary) {
  UpdateQueue queue;
  Schema schema = MakeSchema("R(a)");
  auto make = [&](const std::string& source, uint64_t seq, uint64_t epoch,
                  const Tuple& t) {
    UpdateMessage msg;
    msg.source = source;
    msg.send_time = 0.1 * seq;
    msg.seq = seq;
    msg.epoch = epoch;
    SQ_EXPECT_OK(msg.delta.Mutable("R", schema)->Add(t, 1));
    return msg;
  };
  // Two same-source messages straddling a restart: NOT shed-mergeable.
  queue.Enqueue(make("A", 5, 1, Tuple({1})));
  queue.Enqueue(make("A", 1, 2, Tuple({2})));
  EXPECT_FALSE(queue.CanCoalesceOldest());
  EXPECT_FALSE(queue.CoalesceOldest());
  EXPECT_EQ(queue.Size(), 2u);
  // A same-epoch pair from another source IS still sheddable, and the shed
  // picks it while leaving the cross-epoch pair alone.
  queue.Enqueue(make("B", 1, 1, Tuple({3})));
  queue.Enqueue(make("B", 2, 1, Tuple({4})));
  EXPECT_TRUE(queue.CanCoalesceOldest());
  EXPECT_TRUE(queue.CoalesceOldest());
  auto msgs = queue.Flush();
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_EQ(msgs[0].source, "A");
  EXPECT_EQ(msgs[0].epoch, 1u);
  EXPECT_EQ(msgs[1].source, "A");
  EXPECT_EQ(msgs[1].epoch, 2u);
  EXPECT_EQ(msgs[2].source, "B");
  const Delta* db = msgs[2].delta.Find("R");
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->CountOf(Tuple({3})), 1);
  EXPECT_EQ(db->CountOf(Tuple({4})), 1);
}

TEST(UpdateQueueTest, CoalescingCancelsOpposingAtoms) {
  UpdateQueue queue;
  queue.SetCoalesceWindow(2.0);
  Schema schema = MakeSchema("R(a)");
  auto make = [&](Time send_time, uint64_t seq, int sign) {
    UpdateMessage msg;
    msg.source = "A";
    msg.send_time = send_time;
    msg.seq = seq;
    SQ_EXPECT_OK(msg.delta.Mutable("R", schema)->Add(Tuple({7}), sign));
    return msg;
  };
  queue.Enqueue(make(0.0, 1, 1));
  queue.Enqueue(make(0.5, 2, -1));  // insert+delete cancel in the tail
  EXPECT_EQ(queue.Size(), 1u);
  auto msgs = queue.Flush();
  ASSERT_EQ(msgs.size(), 1u);
  // The cancelled atoms net to an empty delta, which reads as "untouched".
  EXPECT_TRUE(msgs[0].delta.Empty());
  EXPECT_EQ(msgs[0].delta.Find("R"), nullptr);
}

TEST(UpdateQueueTest, ZeroWindowNeverCoalesces) {
  UpdateQueue queue;  // default window = 0
  UpdateMessage m1;
  m1.source = "A";
  m1.send_time = 0.0;
  UpdateMessage m2;
  m2.source = "A";
  m2.send_time = 0.0;
  EXPECT_FALSE(queue.WouldCoalesce(m1));
  queue.Enqueue(std::move(m1));
  EXPECT_FALSE(queue.WouldCoalesce(m2));
  queue.Enqueue(std::move(m2));
  EXPECT_EQ(queue.Size(), 2u);
  EXPECT_EQ(queue.TotalCoalesced(), 0u);
}

TEST(IupStatsTest, MergeAccumulatesEveryField) {
  IupStats a;
  a.rules_fired = 1;
  a.atoms_in = 2;
  a.atoms_propagated = 3;
  a.nodes_processed = 4;
  a.polls = 5;
  a.polled_tuples = 6;
  a.temps_built = 7;
  a.poll_retries = 8;
  IupStats b = a;
  b.Merge(a);
  EXPECT_EQ(b.rules_fired, 2u);
  EXPECT_EQ(b.atoms_in, 4u);
  EXPECT_EQ(b.atoms_propagated, 6u);
  EXPECT_EQ(b.nodes_processed, 8u);
  EXPECT_EQ(b.polls, 10u);
  EXPECT_EQ(b.polled_tuples, 12u);
  EXPECT_EQ(b.temps_built, 14u);
  EXPECT_EQ(b.poll_retries, 16u);
  // Merging a default-constructed stats is the identity.
  IupStats c = b;
  c.Merge(IupStats{});
  EXPECT_EQ(c.rules_fired, b.rules_fired);
  EXPECT_EQ(c.poll_retries, b.poll_retries);
}

TEST(ContributorTest, Figure1Classifications) {
  auto vdp = BuildFigure1Vdp();
  ASSERT_TRUE(vdp.ok());
  // Fully materialized: both sources feed only materialized nodes.
  Annotation mat;
  EXPECT_EQ(ClassifyContributor(*vdp, mat, "DB1"),
            ContributorKind::kMaterialized);
  // Example 2.2: R' virtual but T (fed by DB1) materialized -> hybrid.
  Annotation ex22 = AnnotationExample22(*vdp);
  EXPECT_EQ(ClassifyContributor(*vdp, ex22, "DB1"),
            ContributorKind::kHybrid);
  EXPECT_EQ(ClassifyContributor(*vdp, ex22, "DB2"),
            ContributorKind::kMaterialized);
  // Fully virtual everything: both sources virtual-contributors.
  Annotation virt;
  for (const auto& name : vdp->DerivedNames()) {
    SQ_ASSERT_OK(virt.SetAll(*vdp, name, AttrMode::kVirtual));
  }
  EXPECT_EQ(ClassifyContributor(*vdp, virt, "DB1"),
            ContributorKind::kVirtual);
  // Unknown source feeds nothing -> virtual by convention.
  EXPECT_EQ(ClassifyContributor(*vdp, mat, "Unknown"),
            ContributorKind::kVirtual);
}

TEST(ContributorTest, Predicates) {
  EXPECT_TRUE(MustAnnounce(ContributorKind::kMaterialized));
  EXPECT_TRUE(MustAnnounce(ContributorKind::kHybrid));
  EXPECT_FALSE(MustAnnounce(ContributorKind::kVirtual));
  EXPECT_FALSE(MustAnswerPolls(ContributorKind::kMaterialized));
  EXPECT_TRUE(MustAnswerPolls(ContributorKind::kHybrid));
  EXPECT_TRUE(MustAnswerPolls(ContributorKind::kVirtual));
}

TEST(FreshnessBoundTest, Theorem72Formula) {
  std::vector<DelayProfile> profiles = {{2.0, 1.0, 0.5}, {0.0, 0.5, 0.25}};
  MediatorDelays med{3.0, 0.2, 0.1};
  std::vector<ContributorKind> kinds = {ContributorKind::kHybrid,
                                        ContributorKind::kVirtual};
  std::vector<Time> f = FreshnessBound(profiles, med, kinds);
  // poll_term = (0.5 + 2*1.0) + (0.25 + 2*0.5) = 2.5 + 1.25 = 3.75.
  // f_0 (hybrid)  = 2 + 1 + 3 + 0.2 + 3.75 = 9.95
  // f_1 (virtual) = 3.75 + 0.1 = 3.85
  EXPECT_NEAR(f[0], 9.95, 1e-9);
  EXPECT_NEAR(f[1], 3.85, 1e-9);
}

TEST(ViewQueryTest, ParseForms) {
  SQ_ASSERT_OK_AND_ASSIGN(ViewQuery q1, ParseViewQuery("T"));
  EXPECT_EQ(q1.relation, "T");
  EXPECT_TRUE(q1.attrs.empty());
  EXPECT_EQ(q1.cond, nullptr);

  SQ_ASSERT_OK_AND_ASSIGN(ViewQuery q2,
                          ParseViewQuery("project[a, b](T)"));
  EXPECT_EQ(q2.attrs, (std::vector<std::string>{"a", "b"}));

  SQ_ASSERT_OK_AND_ASSIGN(
      ViewQuery q3, ParseViewQuery("project[a](select[b < 3](T))"));
  EXPECT_EQ(q3.relation, "T");
  ASSERT_NE(q3.cond, nullptr);
  EXPECT_FALSE(q3.cond->IsTrueLiteral());

  // Joins are not single-relation view queries.
  EXPECT_FALSE(ParseViewQuery("A join B").ok());
  // Select over project is not the canonical nesting.
  EXPECT_FALSE(ParseViewQuery("select[a = 1](project[a](T))").ok());
}

TEST(ViewQueryTest, ToStringRoundTrips) {
  SQ_ASSERT_OK_AND_ASSIGN(
      ViewQuery q, ParseViewQuery("project[r3, s1](select[r3 < 100](T))"));
  SQ_ASSERT_OK_AND_ASSIGN(ViewQuery again, ParseViewQuery(q.ToString()));
  EXPECT_EQ(again.relation, q.relation);
  EXPECT_EQ(again.attrs, q.attrs);
}

}  // namespace
}  // namespace squirrel
