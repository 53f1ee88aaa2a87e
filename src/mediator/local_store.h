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
#include <set>
#include <string>
#include <vector>

#include "common/memory_budget.h"
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
  /// Returns the bytes this snapshot's fresh relation copies charged
  /// against the memory budget when it was published.
  ~StoreSnapshot();
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
  // Memory-budget accounting (DESIGN.md §15): bytes of the fresh COW copies
  // this publish made (shared relations were charged by the snapshot that
  // first copied them).
  MemoryBudget* budget_ = nullptr;
  size_t budget_bytes_ = 0;
};

using StoreSnapshotPtr = std::shared_ptr<const StoreSnapshot>;

/// \brief Repositories for the materialized portion of an annotated VDP.
class LocalStore {
 public:
  /// Creates empty repositories per \p vdp and \p ann (neither owned; both
  /// must outlive the store). Leaves and fully virtual nodes get none.
  /// An index-advisor pass over the VDP's terms registers the equi-join
  /// attribute sets that rule firing and VAP key-based construction probe,
  /// and every registered index is kept in lock-step with its repository
  /// from then on.
  LocalStore(const Vdp* vdp, const Annotation* ann);

  /// True iff \p node has a repository (>= 1 materialized attribute).
  bool HasRepo(const std::string& node) const;

  /// The repository of \p node; NotFound for virtual nodes/leaves.
  Result<const Relation*> Repo(const std::string& node) const;

  /// Mutable repository access (initial load). Direct mutation bypasses
  /// index maintenance; callers must RebuildIndexes(node) afterwards.
  Result<Relation*> MutableRepo(const std::string& node);

  /// Rebuilds every registered index on \p node from its repository.
  Status RebuildIndexes(const std::string& node);

  /// Replaces the repository contents of \p node. The relation's attribute
  /// names must equal the node's materialized attributes.
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

  /// The persistent index registry.
  const IndexManager& indexes() const { return indexes_; }

  // ---- MVCC snapshots -----------------------------------------------------
  //
  // Threading contract: exactly one writer thread mutates the repositories
  // (MutableRepo/SetRepo/ApplyNodeDelta) and calls PublishSnapshot; any
  // number of reader threads may call Snapshot() concurrently and read
  // through the returned pointer without further synchronization.

  /// The latest published snapshot (nullptr before the first publish).
  /// Thread-safe against a concurrent PublishSnapshot.
  StoreSnapshotPtr Snapshot() const;

  /// Publishes the current repository contents as a new immutable snapshot
  /// tagged with \p reflect, copy-on-write: only nodes dirtied since the
  /// previous publish get fresh Relation copies; clean nodes share the
  /// previous snapshot's objects. Returns the new snapshot.
  StoreSnapshotPtr PublishSnapshot(TimeVector reflect);

  /// Version the next PublishSnapshot will assign, minus one (0 before any
  /// publish). Checkpointed in HardState so recovery resumes the chain.
  uint64_t SnapshotVersion() const;

  /// Fast-forwards the version counter so the next publish is > \p version.
  /// Recovery calls this with the checkpointed version before republishing.
  void EnsureSnapshotVersionAtLeast(uint64_t version);

  /// Snapshots still pinned by at least one reader (includes the latest).
  /// Superseded snapshots are freed by shared_ptr refcount the moment the
  /// last reader unpins them; this just reports — and prunes — the
  /// registry of weak references used to observe that GC.
  std::vector<StoreSnapshotPtr> LiveSnapshots() const;

 private:
  const Vdp* vdp_;
  const Annotation* ann_;
  std::map<std::string, Relation> repos_;
  IndexManager indexes_;
  ApplyListener apply_listener_;

  // Guards latest_/next_snapshot_version_/retained_ (writer publishes while
  // readers grab Snapshot()). repos_ itself needs no lock: only the writer
  // touches it, and snapshots never alias live repository objects.
  mutable std::mutex snap_mu_;
  StoreSnapshotPtr latest_;
  uint64_t next_snapshot_version_ = 1;
  /// Nodes mutated since the last publish (copy-on-write working set).
  std::set<std::string> dirty_;
  /// Weak registry of every published snapshot, for LiveSnapshots().
  mutable std::vector<std::weak_ptr<const StoreSnapshot>> retained_;
};

}  // namespace squirrel

#endif  // SQUIRREL_MEDIATOR_LOCAL_STORE_H_
