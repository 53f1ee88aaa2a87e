// The mediator's local store (paper §4): one repository per VDP node with at
// least one materialized attribute, holding the node's materialized
// projection π_mat(node contents) with the node's semantics (bag for SPJ/
// union nodes, set for difference nodes).

#ifndef SQUIRREL_MEDIATOR_LOCAL_STORE_H_
#define SQUIRREL_MEDIATOR_LOCAL_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "delta/delta.h"
#include "relational/index.h"
#include "relational/relation.h"
#include "sim/clock.h"
#include "vdp/annotation.h"
#include "vdp/vdp.h"

namespace squirrel {

/// \brief An immutable, versioned view of every repository (MVCC reads).
///
/// A snapshot is published by the store's single writer after a transaction
/// commits and is tagged with the commit's `reflect` time vector. Readers
/// holding a StoreSnapshotPtr see exactly the committed state at that
/// version — byte for byte, no matter what the writer does afterwards —
/// because the snapshot shares the per-node Relation objects copy-on-write:
/// the writer never mutates a Relation that a published snapshot points to.
class StoreSnapshot {
 public:
  StoreSnapshot() = default;
  StoreSnapshot(const StoreSnapshot&) = delete;
  StoreSnapshot& operator=(const StoreSnapshot&) = delete;

  /// Monotonically increasing publish version (1, 2, ...).
  uint64_t version() const { return version_; }
  /// The reflect vector of the commit this snapshot captured.
  const TimeVector& reflect() const { return reflect_; }

  /// True iff \p node has a repository in this snapshot.
  bool HasRepo(const std::string& node) const {
    return repos_.count(node) > 0;
  }
  /// The repository of \p node at this version; NotFound otherwise.
  Result<const Relation*> Repo(const std::string& node) const;

 private:
  friend class LocalStore;
  uint64_t version_ = 0;
  TimeVector reflect_;
  std::map<std::string, std::shared_ptr<const Relation>> repos_;
};

using StoreSnapshotPtr = std::shared_ptr<const StoreSnapshot>;

/// \brief Repositories for the materialized portion of an annotated VDP.
class LocalStore {
 public:
  /// Creates empty repositories per \p vdp and \p ann (neither owned; both
  /// must outlive the store). Leaves and fully virtual nodes get none.
  /// Each repository is indexed on the attribute sets AdviseIndexes names
  /// for it, and every change to a repository keeps its indexes exact from
  /// then on.
  LocalStore(const Vdp* vdp, const Annotation* ann);

  /// True iff \p node has a repository (>= 1 materialized attribute).
  bool HasRepo(const std::string& node) const;

  /// The repository of \p node; NotFound for virtual nodes/leaves.
  Result<const Relation*> Repo(const std::string& node) const;

  /// Replaces the repository contents of \p node and rebuilds its indexes.
  /// The relation's attribute names must equal the node's materialized
  /// attributes.
  Status SetRepo(const std::string& node, Relation contents);

  /// Applies a full-attribute node delta to the repository, narrowing it to
  /// the materialized attributes first (bag projection commutes with apply).
  /// For set nodes the delta must already be a presence delta.
  Status ApplyNodeDelta(const std::string& node, const Delta& full_delta);

  /// Observer invoked by ApplyNodeDelta after a successful apply with the
  /// NARROWED delta (the exact change the repository absorbed). The write-
  /// ahead log records these to make update commits replayable; replaying
  /// the narrowed delta against the pre-state reproduces the repository
  /// byte for byte.
  using ApplyListener =
      std::function<void(const std::string& node, const Delta& narrowed)>;

  /// Installs (or clears, with nullptr) the apply listener.
  void SetApplyListener(ApplyListener listener) {
    apply_listener_ = std::move(listener);
  }

  /// Names of nodes with repositories, in VDP topological order.
  std::vector<std::string> MaterializedNodes() const;

  /// Total approximate bytes across repositories (space measurements,
  /// experiments E2/E10).
  size_t ApproxBytes() const;

  /// The VDP this store serves.
  const Vdp& vdp() const { return *vdp_; }
  /// The annotation this store serves.
  const Annotation& annotation() const { return *ann_; }

  /// The index on \p node's repository keyed on \p attrs (as a set), or
  /// null when there is none. It tracks the live repository, not a
  /// snapshot.
  const KeyIndex* Index(const std::string& node,
                        const std::vector<std::string>& attrs) const;

  // ---- MVCC snapshots -----------------------------------------------------
  //
  // Threading contract: exactly one writer thread mutates the repositories
  // (SetRepo/ApplyNodeDelta/Wipe) and calls PublishSnapshot; any
  // number of reader threads may call Snapshot() concurrently and read
  // through the returned pointer without further synchronization. A reader
  // that drops the last reference to a superseded snapshot hands its copies
  // back to the store on the reader's own thread.

  /// The latest published snapshot (nullptr before the first publish).
  /// Thread-safe against a concurrent PublishSnapshot.
  StoreSnapshotPtr Snapshot() const;

  /// Publishes the current repository contents as a new immutable snapshot
  /// tagged with \p reflect, copy-on-write: clean nodes share the previous
  /// snapshot's objects, and each node dirtied since the previous publish
  /// gets a fresh Relation. That Relation is a copy some superseded
  /// snapshot released, rolled forward by the deltas logged since its
  /// version; only when no such copy is usable is the live repository
  /// copied whole (counted by SnapshotCopies). Returns the new snapshot.
  StoreSnapshotPtr PublishSnapshot(TimeVector reflect);

  /// Version the next PublishSnapshot will assign, minus one (0 before any
  /// publish). Checkpointed in HardState so recovery resumes the chain.
  uint64_t SnapshotVersion() const;

  /// Fast-forwards the version counter so the next publish is > \p version.
  /// Recovery calls this with the checkpointed version before republishing.
  void EnsureSnapshotVersionAtLeast(uint64_t version);

  /// Whole-repository copies PublishSnapshot has made over the store's
  /// lifetime. Read on the writer thread.
  uint64_t SnapshotCopies() const { return snapshot_copies_; }

  /// Empties every repository and drops the store's snapshot state with
  /// them — the latest snapshot, the recycled copies and the delta logs —
  /// the way a crash loses volatile memory. Snapshots a reader still pins
  /// stay intact and are freed, not recycled, when released. The version
  /// counter survives, so no version is ever published twice.
  void Wipe();

 private:
  struct SpareSlot;
  struct Recycler;

  /// One repository: the live contents plus what publishing needs to build
  /// the node's next snapshot copy from a recycled one.
  struct Repository {
    explicit Repository(Relation empty);

    Relation live;
    /// Indexes on `live`, changed only by ApplyIndexed or a rebuild.
    std::vector<KeyIndex> indexes;
    /// Mutated since the last publish.
    bool dirty = false;
    /// The narrowed deltas the repository absorbed, in order, each tagged
    /// with the version of the first publish that contains it. Filled only
    /// while a snapshot exists.
    std::vector<std::pair<uint64_t, Delta>> log;
    /// The log holds every change after this version; a recycled copy of
    /// an older version cannot be rolled forward.
    uint64_t floor = 0;
    /// Version of the copy the latest snapshot holds (0: none).
    uint64_t published = 0;
    /// Where this node's copies go when their last snapshot dies.
    std::shared_ptr<SpareSlot> slot;
  };

  /// Lookup that fails with NotFound for nodes without a repository.
  Result<Repository*> FindRepo(const std::string& node);
  /// The node's log can no longer roll any existing copy forward.
  void Invalidate(Repository* repo);
  /// The node's copy for the snapshot being published as \p version.
  std::shared_ptr<const Relation> PublishCopy(Repository* repo,
                                              uint64_t version);

  const Vdp* vdp_;
  const Annotation* ann_;
  std::map<std::string, Repository> repos_;
  ApplyListener apply_listener_;
  uint64_t snapshot_copies_ = 0;

  // Guards latest_/next_snapshot_version_ (writer publishes while readers
  // grab Snapshot()). repos_ itself needs no lock: only the writer touches
  // it, and snapshots never alias live repository objects.
  mutable std::mutex snap_mu_;
  StoreSnapshotPtr latest_;
  uint64_t next_snapshot_version_ = 1;
};

}  // namespace squirrel

#endif  // SQUIRREL_MEDIATOR_LOCAL_STORE_H_
