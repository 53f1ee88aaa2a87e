// MVCC snapshot tests: isolation (a pinned reader sees byte-identical
// contents before/during/after a concurrent commit), copy-on-write sharing,
// refcount GC of superseded snapshots, the publish path that rolls recycled
// copies forward by the logged deltas, version-chain bookkeeping across
// recovery, and the sim-level mvcc_reads mode. This file is part of the
// TSan and ASan+UBSan CI jobs, so the threaded tests double as race and
// lifetime probes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_budget.h"
#include "mediator/durability/durability.h"
#include "mediator/local_store.h"
#include "source/source_db.h"
#include "testing/harness.h"
#include "testing/sim_harness.h"
#include "testing/util.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace {

using testing::DirectHarness;
using testing::FaultSimOptions;
using testing::FaultSimResult;
using testing::MakeSchema;
using testing::RunFaultSim;

// Deterministic rendering of every materialized node in \p snap.
std::string Dump(const StoreSnapshot& snap,
                 const std::vector<std::string>& nodes) {
  std::string out;
  for (const auto& name : nodes) {
    auto repo = snap.Repo(name);
    SQ_EXPECT_OK(repo.status());
    if (repo.ok()) out += (*repo)->ToString(name) + "\n";
  }
  return out;
}

std::string DumpLive(const LocalStore& store) {
  std::string out;
  for (const auto& name : store.MaterializedNodes()) {
    auto repo = store.Repo(name);
    SQ_EXPECT_OK(repo.status());
    if (repo.ok()) out += (*repo)->ToString(name) + "\n";
  }
  return out;
}

class MvccFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db1_ = std::make_unique<SourceDb>("DB1");
    db2_ = std::make_unique<SourceDb>("DB2");
    SQ_ASSERT_OK(
        db1_->AddRelation("R", MakeSchema("R(r1, r2, r3, r4) key(r1)")));
    SQ_ASSERT_OK(db2_->AddRelation("S", MakeSchema("S(s1, s2, s3) key(s1)")));
    SQ_ASSERT_OK(db1_->InsertTuple(0, "R", Tuple({1, 100, 11, 100})));
    SQ_ASSERT_OK(db1_->InsertTuple(0, "R", Tuple({2, 200, 22, 100})));
    SQ_ASSERT_OK(db2_->InsertTuple(0, "S", Tuple({100, 5, 10})));
    SQ_ASSERT_OK(db2_->InsertTuple(0, "S", Tuple({200, 6, 20})));

    auto vdp = BuildFigure1Vdp();
    ASSERT_TRUE(vdp.ok());
    harness_ = std::make_unique<DirectHarness>(
        std::move(vdp).value(), AnnotationExample21(),
        std::map<std::string, SourceDb*>{{"DB1", db1_.get()},
                                         {"DB2", db2_.get()}});
    SQ_ASSERT_OK(harness_->Load());
  }

  // Commits an R insert with key \p r1 and propagates it through the IUP.
  void CommitR(Time now, int64_t r1) {
    MultiDelta md;
    SQ_ASSERT_OK(md.Mutable("R", MakeSchema("R(r1, r2, r3, r4)"))
                     ->AddInsert(Tuple({r1, 100, r1 * 11, 100})));
    SQ_ASSERT_OK(harness_->CommitAndPropagate("DB1", now, md).status());
  }

  std::unique_ptr<SourceDb> db1_, db2_;
  std::unique_ptr<DirectHarness> harness_;
};

TEST_F(MvccFixture, PublishTagsVersionAndReflect) {
  LocalStore& store = harness_->store();
  EXPECT_EQ(store.Snapshot(), nullptr);
  EXPECT_EQ(store.SnapshotVersion(), 0u);

  StoreSnapshotPtr v1 = store.PublishSnapshot(TimeVector{1.5, 2.5});
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->reflect(), (TimeVector{1.5, 2.5}));
  EXPECT_EQ(store.SnapshotVersion(), 1u);
  EXPECT_EQ(store.Snapshot(), v1);

  // The snapshot captures exactly the live contents, for every repository.
  EXPECT_EQ(Dump(*v1, store.MaterializedNodes()), DumpLive(store));
  EXPECT_FALSE(v1->HasRepo("R"));  // leaves have no repository
  EXPECT_FALSE(v1->Repo("R").ok());
}

TEST_F(MvccFixture, PinnedReaderSeesByteIdenticalContentsAcrossCommits) {
  LocalStore& store = harness_->store();
  const std::vector<std::string> nodes = store.MaterializedNodes();
  StoreSnapshotPtr pinned = store.PublishSnapshot(TimeVector{0, 0});
  const std::string before = Dump(*pinned, nodes);

  // Reader thread: continuously re-render the pinned snapshot (and peek at
  // the moving latest) while the writer commits; any deviation is a bug.
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (Dump(*pinned, nodes) != before) mismatches.fetch_add(1);
      StoreSnapshotPtr latest = store.Snapshot();
      if (latest != nullptr && latest->version() < pinned->version()) {
        mismatches.fetch_add(1);  // the chain must never move backwards
      }
      reads.fetch_add(1);
    }
  });

  // Writer: the update path — commit, propagate, publish — repeatedly.
  // Wait for the reader to actually start so the commits overlap reads.
  while (reads.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 20; ++i) {
    CommitR(1.0 + i, 10 + i);
    store.PublishSnapshot(TimeVector{1.0 + i, 0});
  }
  // Let the reader observe the final state a few more times before stopping.
  const uint64_t after_commits = reads.load();
  while (reads.load() < after_commits + 3) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(mismatches.load(), 0);
  // After the dust settles the pinned snapshot is still byte-identical ...
  EXPECT_EQ(Dump(*pinned, nodes), before);
  // ... while the latest snapshot has moved on and absorbed the commits.
  StoreSnapshotPtr latest = store.Snapshot();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version(), 21u);
  EXPECT_NE(Dump(*latest, nodes), before);
  EXPECT_EQ(Dump(*latest, nodes), DumpLive(store));
}

TEST_F(MvccFixture, CopyOnWriteSharesCleanNodesAcrossVersions) {
  LocalStore& store = harness_->store();
  StoreSnapshotPtr v1 = store.PublishSnapshot(TimeVector{0, 0});
  // A DB1.R commit dirties R' and T but leaves S' untouched.
  CommitR(1.0, 10);
  StoreSnapshotPtr v2 = store.PublishSnapshot(TimeVector{1.0, 0});

  SQ_ASSERT_OK_AND_ASSIGN(const Relation* s1, v1->Repo("S'"));
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* s2, v2->Repo("S'"));
  EXPECT_EQ(s1, s2) << "clean node must share the previous version's object";

  SQ_ASSERT_OK_AND_ASSIGN(const Relation* t1, v1->Repo("T"));
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* t2, v2->Repo("T"));
  EXPECT_NE(t1, t2) << "dirty node must get a fresh copy";
  EXPECT_FALSE(t1->EqualContents(*t2));

  // Neither version aliases the live repository object.
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* live_t, store.Repo("T"));
  EXPECT_NE(t1, live_t);
  EXPECT_NE(t2, live_t);
}

TEST_F(MvccFixture, GcFreesSupersededSnapshotsOnlyWhenUnpinned) {
  LocalStore& store = harness_->store();
  StoreSnapshotPtr pin1 = store.PublishSnapshot(TimeVector{0, 0});
  CommitR(1.0, 10);
  StoreSnapshotPtr pin2 = store.PublishSnapshot(TimeVector{1.0, 0});
  CommitR(2.0, 11);
  // The latest snapshot, pinned by the store alone.
  std::weak_ptr<const StoreSnapshot> v3 =
      store.PublishSnapshot(TimeVector{2.0, 0});
  std::weak_ptr<const StoreSnapshot> v1 = pin1;
  std::weak_ptr<const StoreSnapshot> v2 = pin2;

  EXPECT_FALSE(v1.expired());
  EXPECT_FALSE(v2.expired());
  pin1.reset();
  EXPECT_TRUE(v1.expired()) << "unpinning the only reader of v1 must free it";
  EXPECT_FALSE(v2.expired());
  pin2.reset();
  EXPECT_TRUE(v2.expired());
  // The latest snapshot is always retained by the store itself.
  ASSERT_FALSE(v3.expired());
  EXPECT_EQ(store.Snapshot()->version(), 3u);
}

TEST_F(MvccFixture, VersionCounterFastForwardsForRecovery) {
  LocalStore& store = harness_->store();
  store.PublishSnapshot(TimeVector{0, 0});
  EXPECT_EQ(store.SnapshotVersion(), 1u);
  // Recovery replays the checkpointed version (+ replayed txns) so new
  // publishes never collide with versions a pre-crash reader may pin.
  store.EnsureSnapshotVersionAtLeast(10);
  EXPECT_EQ(store.SnapshotVersion(), 10u);
  EXPECT_EQ(store.PublishSnapshot(TimeVector{1.0, 0})->version(), 11u);
  store.EnsureSnapshotVersionAtLeast(5);  // never moves backwards
  EXPECT_EQ(store.PublishSnapshot(TimeVector{2.0, 0})->version(), 12u);
}

// ---- the publish path: recycled copies rolled forward ---------------------
//
// Store-level tests over Figure 4 with Example 5.1's annotation. E keeps
// (a1, b1) of its (a1, a2, b1) contents, so E is a bag node whose rows reach
// multiplicities above 1, and G is a difference (set) node.
class MvccPublishTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto vdp = BuildFigure4Vdp();
    ASSERT_TRUE(vdp.ok());
    vdp_ = std::move(vdp).value();
    ann_ = AnnotationExample51(vdp_);
    store_ = std::make_unique<LocalStore>(&vdp_, &ann_);
    nodes_ = store_->MaterializedNodes();
  }

  // Applies one atom over E's full schema (a1, a2, b1). The store narrows it
  // to (a1, b1), so inserts that differ only in a2 add multiplicity.
  void ApplyE(int64_t a1, int64_t a2, int64_t b1, int64_t count) {
    Delta d(vdp_.Find("E")->schema);
    SQ_ASSERT_OK(d.Add(Tuple({a1, a2, b1}), count));
    SQ_ASSERT_OK(store_->ApplyNodeDelta("E", d));
  }

  // Applies one presence atom (count ±1) to G(a1, b1).
  void ApplyG(int64_t a1, int64_t b1, int64_t count) {
    Delta d(vdp_.Find("G")->schema);
    SQ_ASSERT_OK(d.Add(Tuple({a1, b1}), count));
    SQ_ASSERT_OK(store_->ApplyNodeDelta("G", d));
  }

  StoreSnapshotPtr Publish() { return store_->PublishSnapshot(TimeVector{}); }

  std::string DumpSnap(const StoreSnapshot& snap) const {
    return Dump(snap, nodes_);
  }

  // Bytes of the distinct copies \p snaps hold between them.
  size_t HeldBytes(std::initializer_list<const StoreSnapshot*> snaps) const {
    std::set<const Relation*> seen;
    size_t bytes = 0;
    for (const StoreSnapshot* snap : snaps) {
      for (const auto& name : nodes_) {
        const Relation* rel = *snap->Repo(name);
        if (seen.insert(rel).second) bytes += rel->ApproxBytes();
      }
    }
    return bytes;
  }

  Vdp vdp_;
  Annotation ann_;
  std::unique_ptr<LocalStore> store_;
  std::vector<std::string> nodes_;  // the materialized nodes, fixed
};

TEST_F(MvccPublishTest, SteadyPublishesRollForwardWithoutCopies) {
  const uint64_t repos = store_->MaterializedNodes().size();
  ApplyE(1, 10, 7, 1);
  ApplyG(1, 7, 1);
  Publish();
  EXPECT_EQ(store_->SnapshotCopies(), repos);  // the first publish copies all
  ApplyE(1, 11, 7, 1);
  ApplyG(2, 8, 1);
  Publish();
  // No superseded copy existed yet, so both dirty nodes were copied.
  const uint64_t copies = store_->SnapshotCopies();
  EXPECT_EQ(copies, repos + 2);

  int64_t max_multiplicity = 0;
  for (int i = 0; i < 24; ++i) {
    // E: three inserts and one delete per four commits, alternating between
    // (0, 7) and (1, 7). G: two inserts, then a delete of the last one.
    ApplyE(i % 2, 100 + i, 7, i % 4 == 3 ? -1 : 1);
    if (i % 3 == 2) {
      ApplyG(100 + i - 1, 5, -1);
    } else {
      ApplyG(100 + i, 5, 1);
    }
    StoreSnapshotPtr snap = Publish();
    EXPECT_EQ(store_->SnapshotCopies(), copies) << "publish " << i;
    EXPECT_EQ(DumpSnap(*snap), DumpLive(*store_)) << "publish " << i;
    SQ_ASSERT_OK_AND_ASSIGN(const Relation* e, snap->Repo("E"));
    max_multiplicity = std::max(max_multiplicity, e->CountOf(Tuple({0, 7})));
  }
  EXPECT_GT(max_multiplicity, 1);
}

TEST_F(MvccPublishTest, PinnedSnapshotForcesExactlyOneCopy) {
  for (int i = 0; i < 3; ++i) {
    ApplyE(i, 10 + i, 7, 1);
    Publish();
  }
  const uint64_t copies = store_->SnapshotCopies();
  StoreSnapshotPtr pinned = store_->Snapshot();
  const std::string before = DumpSnap(*pinned);
  for (int i = 3; i < 9; ++i) {
    ApplyE(i, 10 + i, 7, 1);
    EXPECT_EQ(DumpSnap(*Publish()), DumpLive(*store_)) << "publish " << i;
  }
  // Only E changes. The pin keeps the second publish after it from finding a
  // spare; every other publish rolls one forward.
  EXPECT_EQ(store_->SnapshotCopies(), copies + 1);
  EXPECT_EQ(DumpSnap(*pinned), before);
}

TEST_F(MvccPublishTest, CopyReleasedAfterTheLogMovedOnIsNotRolledForward) {
  for (int i = 0; i < 3; ++i) {
    ApplyE(i, 10 + i, 7, 1);
    Publish();
  }
  StoreSnapshotPtr old = store_->Snapshot();
  ApplyE(3, 13, 7, 1);
  Publish();  // rolls the spare forward; `old` stays pinned
  StoreSnapshotPtr newer = store_->Snapshot();
  ApplyE(4, 14, 7, 1);
  Publish();  // no spare: copies
  // Releasing `old` makes its copy the spare, but the log no longer holds
  // the change the publish after it absorbed.
  old.reset();
  const uint64_t copies = store_->SnapshotCopies();
  ApplyE(5, 15, 7, 1);
  EXPECT_EQ(DumpSnap(*Publish()), DumpLive(*store_));
  EXPECT_EQ(store_->SnapshotCopies(), copies + 1);
  newer.reset();
  ApplyE(6, 16, 7, 1);
  EXPECT_EQ(DumpSnap(*Publish()), DumpLive(*store_));
  EXPECT_EQ(store_->SnapshotCopies(), copies + 1);
}

TEST_F(MvccPublishTest, ReaderThreadRecyclesSupersededSnapshotWhilePublishing) {
  // The writer records each version's rendering before publishing it, so a
  // reader can check whatever version it pins.
  std::mutex mu;
  std::map<uint64_t, std::string> expected;
  auto publish = [&]() {
    {
      std::lock_guard<std::mutex> lock(mu);
      expected[store_->SnapshotVersion() + 1] = DumpLive(*store_);
    }
    return Publish();
  };
  publish();

  // Race probe: the reader often drops the last reference to a superseded
  // snapshot, so its copies recycle on the reader's thread while the writer
  // takes and rolls spares forward on its own.
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      StoreSnapshotPtr snap = store_->Snapshot();
      std::string want;
      {
        std::lock_guard<std::mutex> lock(mu);
        want = expected.at(snap->version());
      }
      if (DumpSnap(*snap) != want) mismatches.fetch_add(1);
      snap.reset();
      reads.fetch_add(1);
    }
  });
  while (reads.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 200; ++i) {
    ApplyE(i % 5, i, 7, 1);
    ApplyG(i % 2 == 0 ? i : i - 1, 5, i % 2 == 0 ? 1 : -1);
    publish();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Deterministic hand-off: once a second publish supersedes a pinned
  // snapshot, only its pin's holder can recycle its copies.
  const uint64_t copies = store_->SnapshotCopies();
  StoreSnapshotPtr pinned = store_->Snapshot();
  std::weak_ptr<const StoreSnapshot> watch = pinned;
  ApplyE(0, 1000, 7, 1);
  publish();  // rolls forward the spare left by the loop
  std::thread dropper([p = std::move(pinned)]() mutable { p.reset(); });
  dropper.join();
  EXPECT_TRUE(watch.expired());
  ApplyE(0, 1001, 7, 1);
  StoreSnapshotPtr latest = publish();  // rolls forward the dropped copy
  EXPECT_EQ(store_->SnapshotCopies(), copies)
      << "the copy the reader thread released was not reused";
  EXPECT_EQ(DumpSnap(*latest), DumpLive(*store_));
}

TEST_F(MvccPublishTest, SetRepoMakesTheNextPublishCopy) {
  for (int i = 0; i < 3; ++i) {
    ApplyE(i, 10 + i, 7, 1);
    Publish();
  }
  uint64_t copies = store_->SnapshotCopies();

  // SetRepo replaces E where the log cannot see it: the spare rolled forward
  // by the log would miss the replacement.
  SQ_ASSERT_OK_AND_ASSIGN(const Relation* e, store_->Repo("E"));
  Relation replaced(e->schema(), e->semantics());
  SQ_ASSERT_OK(replaced.Insert(Tuple({9, 9}), 3));
  SQ_ASSERT_OK(store_->SetRepo("E", std::move(replaced)));
  EXPECT_EQ(DumpSnap(*Publish()), DumpLive(*store_));
  EXPECT_EQ(store_->SnapshotCopies(), ++copies);

  // So does a second replacement right after that publish.
  Relation edited = *e;
  SQ_ASSERT_OK(edited.Insert(Tuple({8, 8}), 2));
  SQ_ASSERT_OK(store_->SetRepo("E", std::move(edited)));
  EXPECT_EQ(DumpSnap(*Publish()), DumpLive(*store_));
  EXPECT_EQ(store_->SnapshotCopies(), ++copies);

  // The spare the next publish finds is the SetRepo publish's copy, which
  // still predates the edit. The one after that holds the edit, so from then
  // on publishes roll forward again.
  ApplyE(1, 1, 9, 1);
  EXPECT_EQ(DumpSnap(*Publish()), DumpLive(*store_));
  EXPECT_EQ(store_->SnapshotCopies(), ++copies);
  for (int i = 0; i < 4; ++i) {
    ApplyE(1, 2 + i, 9, 1);
    EXPECT_EQ(DumpSnap(*Publish()), DumpLive(*store_)) << "publish " << i;
  }
  EXPECT_EQ(store_->SnapshotCopies(), copies);
}

TEST_F(MvccPublishTest, BudgetChargesEveryRetainedCopyAndDrainsToZero) {
  MemoryBudget budget(/*soft_limit=*/0, /*hard_limit=*/0);
  ScopedMemoryBudget scope(&budget);
  ApplyE(1, 10, 7, 1);
  ApplyG(1, 7, 1);
  StoreSnapshotPtr v1 = Publish();
  ApplyE(1, 11, 7, 1);
  StoreSnapshotPtr v2 = Publish();
  ApplyE(2, 12, 7, 1);
  StoreSnapshotPtr v3 = Publish();
  // Every copy is pinned, so none is spare.
  EXPECT_EQ(budget.used(), HeldBytes({v1.get(), v2.get(), v3.get()}));

  // Unpinned, v1 and v2 offer their E copies to E's slot, which keeps the
  // newer one (v2's) and frees the other.
  const size_t v2_e = (*v2->Repo("E"))->ApproxBytes();
  v1.reset();
  v2.reset();
  EXPECT_EQ(budget.used(), HeldBytes({v3.get()}) + v2_e);

  // Rolling the spare forward re-charges it at its new size; v3 stays pinned,
  // so no copy is spare now.
  ApplyE(3, 13, 7, 1);
  StoreSnapshotPtr v4 = Publish();
  EXPECT_EQ(budget.used(), HeldBytes({v3.get(), v4.get()}));

  const size_t v3_e = (*v3->Repo("E"))->ApproxBytes();
  v3.reset();
  v4.reset();
  EXPECT_EQ(budget.used(), HeldBytes({store_->Snapshot().get()}) + v3_e);

  // A pin that outlives the store frees its copies when it is dropped.
  StoreSnapshotPtr survivor = store_->Snapshot();
  store_.reset();
  EXPECT_EQ(budget.used(), HeldBytes({survivor.get()}));
  survivor.reset();
  EXPECT_EQ(budget.used(), 0u);
}

TEST(HardStateMvccTest, EncodeRoundTripsSnapshotVersion) {
  HardState hs;
  hs.next_txn_id = 7;
  hs.next_resync_id = 3;
  hs.snapshot_version = 42;
  SQ_ASSERT_OK_AND_ASSIGN(HardState back, HardState::Decode(hs.Encode()));
  EXPECT_EQ(back.snapshot_version, 42u);
  EXPECT_EQ(back.next_txn_id, 7u);
  EXPECT_EQ(back.next_resync_id, 3u);
  // Byte-identical re-encode (the checkpoint determinism contract).
  EXPECT_EQ(back.Encode(), hs.Encode());
}

// ---- sim-level mvcc_reads -------------------------------------------------

TEST(MvccSimTest, SnapshotReadsPreserveFinalExports) {
  uint64_t snapshot_queries = 0;
  for (uint64_t seed : {11u, 23u, 47u}) {
    SQ_ASSERT_OK_AND_ASSIGN(FaultSimResult base, RunFaultSim(seed, {}));
    FaultSimOptions opts;
    opts.mvcc_reads = true;
    SQ_ASSERT_OK_AND_ASSIGN(FaultSimResult mvcc, RunFaultSim(seed, opts));
    // MVCC changes query scheduling, never update outcomes: the final
    // exports must be byte-identical to the serialized run.
    EXPECT_EQ(mvcc.final_exports, base.final_exports) << "seed " << seed;
    EXPECT_EQ(mvcc.exports_checked, base.exports_checked) << "seed " << seed;
    EXPECT_GT(mvcc.stats.snapshots_published, 0u) << "seed " << seed;
    snapshot_queries += mvcc.stats.snapshot_queries;
    EXPECT_EQ(base.stats.snapshot_queries, 0u) << "seed " << seed;
  }
  // Across the seeds, at least some queries were served lock-free.
  EXPECT_GT(snapshot_queries, 0u);
}

TEST(MvccSimTest, SnapshotChainSurvivesCrashRecovery) {
  for (uint64_t seed : {5u, 19u}) {
    FaultSimOptions base_opts;
    base_opts.durability = true;
    base_opts.mediator_crashes = 2;
    SQ_ASSERT_OK_AND_ASSIGN(FaultSimResult base, RunFaultSim(seed, base_opts));

    FaultSimOptions opts = base_opts;
    opts.mvcc_reads = true;
    SQ_ASSERT_OK_AND_ASSIGN(FaultSimResult mvcc, RunFaultSim(seed, opts));
    EXPECT_EQ(mvcc.final_exports, base.final_exports) << "seed " << seed;
    EXPECT_EQ(mvcc.recoveries, base.recoveries) << "seed " << seed;
    EXPECT_GT(mvcc.stats.snapshots_published, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace squirrel
