#include "mediator/local_store.h"

#include <algorithm>

#include "common/memory_budget.h"
#include "delta/delta_algebra.h"
#include "vdp/rules.h"

namespace squirrel {

namespace {

// Deleter of a snapshot copy's Relation: returns the bytes it charged to the
// memory budget (DESIGN.md §15), which are its ApproxBytes() — a copy does
// not change while it is charged.
struct ReleaseCharge {
  MemoryBudget* budget = nullptr;
  void operator()(Relation* rel) const {
    ReleaseGlobalBudget(budget, rel->ApproxBytes());
    delete rel;
  }
};

using ChargedRelation = std::unique_ptr<Relation, ReleaseCharge>;

// A whole-repository snapshot copy and the publish version it holds.
struct Copy {
  ChargedRelation rel;
  uint64_t version = 0;
};

ChargedRelation ChargedCopyOf(const Relation& live) {
  auto* rel = new Relation(live);
  return ChargedRelation(rel,
                         ReleaseCharge{ChargeGlobalBudget(rel->ApproxBytes())});
}

using DeltaLog = std::vector<std::pair<uint64_t, Delta>>;

// The first entry of \p log tagged with a version after \p version.
DeltaLog::const_iterator FirstAfter(const DeltaLog& log, uint64_t version) {
  return std::upper_bound(
      log.begin(), log.end(), version,
      [](uint64_t v, const auto& entry) { return v < entry.first; });
}

// Applies every logged delta newer than the copy's version, re-charging the
// budget for the copy's new size. False if a delta does not apply, which
// leaves the copy unusable (and uncharged).
bool RollForward(const DeltaLog& log, Copy* copy) {
  ReleaseCharge& charge = copy->rel.get_deleter();
  ReleaseGlobalBudget(charge.budget, copy->rel->ApproxBytes());
  charge.budget = nullptr;
  for (auto it = FirstAfter(log, copy->version); it != log.end(); ++it) {
    if (!ApplyDelta(copy->rel.get(), it->second).ok()) return false;
  }
  charge.budget = ChargeGlobalBudget(copy->rel->ApproxBytes());
  return true;
}

}  // namespace

// The node's recycled copy: at most one, the newest returned. Deleters on
// reader threads fill it and the writer empties it; the mutex orders a
// reader's last reads of a copy before the writer's roll-forward writes.
struct LocalStore::SpareSlot {
  std::mutex mu;
  Copy spare;
};

// Deleter of a published copy, run by whichever thread drops the last
// snapshot holding it. It offers the copy to its node's slot; the slot is
// held weakly, so a copy that outlives the store is simply freed.
struct LocalStore::Recycler {
  std::weak_ptr<SpareSlot> slot;
  uint64_t version;
  ReleaseCharge charge;

  void operator()(Relation* rel) const {
    Copy copy{ChargedRelation(rel, charge), version};
    if (std::shared_ptr<SpareSlot> s = slot.lock()) {
      std::lock_guard<std::mutex> lock(s->mu);
      if (s->spare.rel == nullptr || s->spare.version < copy.version) {
        std::swap(s->spare, copy);
      }
    }
    // `copy` is now the one not kept, if any; it is freed here.
  }
};

LocalStore::Repository::Repository(Relation empty)
    : live(std::move(empty)), slot(std::make_shared<SpareSlot>()) {}

LocalStore::LocalStore(const Vdp* vdp, const Annotation* ann)
    : vdp_(vdp), ann_(ann) {
  for (const auto& name : vdp_->DerivedNames()) {
    const VdpNode* node = vdp_->Find(name);
    auto mat = ann_->MaterializedAttrs(*vdp_, name);
    if (mat.empty()) continue;
    auto schema = node->schema.Project(mat);
    // Node schemas were validated at VDP construction; projection onto a
    // subset of attrs cannot fail.
    repos_.emplace(name, Repository(Relation(std::move(schema).value(),
                                             node->semantics())));
  }
  for (auto& [name, specs] : AdviseIndexes(*vdp_, *ann_)) {
    auto it = repos_.find(name);
    if (it == repos_.end()) continue;
    for (auto& attrs : specs) {
      // The advisor names only attributes the repository holds.
      auto index = KeyIndex::Build(it->second.live, std::move(attrs));
      if (index.ok()) it->second.indexes.push_back(std::move(index).value());
    }
  }
}

Result<LocalStore::Repository*> LocalStore::FindRepo(const std::string& node) {
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  return &it->second;
}

void LocalStore::Invalidate(Repository* repo) {
  repo->log.clear();
  repo->floor = next_snapshot_version_;
}

bool LocalStore::HasRepo(const std::string& node) const {
  return repos_.count(node) > 0;
}

Result<const Relation*> LocalStore::Repo(const std::string& node) const {
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  return &it->second.live;
}

const KeyIndex* LocalStore::Index(const std::string& node,
                                 const std::vector<std::string>& attrs) const {
  auto it = repos_.find(node);
  if (it == repos_.end()) return nullptr;
  for (const KeyIndex& index : it->second.indexes) {
    if (SameAttrSet(index.attrs(), attrs)) return &index;
  }
  return nullptr;
}

Status LocalStore::SetRepo(const std::string& node, Relation contents) {
  SQ_ASSIGN_OR_RETURN(Repository* repo, FindRepo(node));
  if (contents.schema().AttributeNames() !=
      repo->live.schema().AttributeNames()) {
    return Status::InvalidArgument(
        "repository contents for " + node +
        " do not match the materialized attribute set");
  }
  repo->live = std::move(contents);
  for (KeyIndex& index : repo->indexes) index.Rebuild();
  repo->dirty = true;
  Invalidate(repo);
  return Status::OK();
}

Status LocalStore::ApplyNodeDelta(const std::string& node,
                                  const Delta& full_delta) {
  SQ_ASSIGN_OR_RETURN(Repository* repo, FindRepo(node));
  repo->dirty = true;
  const auto repo_attrs = repo->live.schema().AttributeNames();
  const Delta* delta = &full_delta;
  Delta narrowed;
  if (full_delta.schema().AttributeNames() != repo_attrs) {
    SQ_ASSIGN_OR_RETURN(narrowed, DeltaProject(full_delta, repo_attrs));
    delta = &narrowed;
  }
  SQ_RETURN_IF_ERROR(ApplyIndexed(&repo->live, *delta, repo->indexes));
  // Log the change the moment the repository has absorbed it, so the log
  // matches the repository even if a later step fails. Reading latest_
  // without the lock is fine: only this (writer) thread replaces it.
  if (latest_ != nullptr) {
    repo->log.emplace_back(next_snapshot_version_, *delta);
  }
  if (apply_listener_) apply_listener_(node, *delta);
  return Status::OK();
}

std::vector<std::string> LocalStore::MaterializedNodes() const {
  std::vector<std::string> out;
  for (const auto& name : vdp_->TopoOrder()) {
    if (HasRepo(name)) out.push_back(name);
  }
  return out;
}

Result<const Relation*> StoreSnapshot::Repo(const std::string& node) const {
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  return it->second.get();
}

StoreSnapshotPtr LocalStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return latest_;
}

std::shared_ptr<const Relation> LocalStore::PublishCopy(Repository* repo,
                                                        uint64_t version) {
  // Reuse is decided by the slot alone: a copy is in it only once no
  // snapshot holds it, which its deleter establishes.
  Copy copy;
  {
    std::lock_guard<std::mutex> lock(repo->slot->mu);
    copy = std::move(repo->slot->spare);
  }
  // A copy older than the floor predates an untracked change or the trimmed
  // log. A delta that does not apply would mean the log and the copy
  // disagree; the whole copy below is correct either way.
  if (copy.rel == nullptr || copy.version < repo->floor ||
      !RollForward(repo->log, &copy)) {
    copy.rel = ChargedCopyOf(repo->live);
    ++snapshot_copies_;
  }
  // Once the snapshot being superseded dies, the newest copy that can come
  // back is the one it held; no older copy is worth rolling forward.
  const uint64_t superseded = repo->published;
  repo->published = version;
  repo->floor = std::max(repo->floor, superseded);
  repo->log.erase(repo->log.cbegin(), FirstAfter(repo->log, superseded));
  const ReleaseCharge charge = copy.rel.get_deleter();
  return std::shared_ptr<const Relation>(
      copy.rel.release(), Recycler{repo->slot, version, charge});
}

StoreSnapshotPtr LocalStore::PublishSnapshot(TimeVector reflect) {
  auto snap = std::make_shared<StoreSnapshot>();
  snap->reflect_ = std::move(reflect);
  // Only this (writer) thread changes latest_ and the version counter, so
  // reading them here without the lock is fine.
  const uint64_t version = next_snapshot_version_;
  const StoreSnapshot* prev = latest_.get();
  for (auto& [name, repo] : repos_) {
    std::shared_ptr<const Relation> share;
    if (prev != nullptr && !repo.dirty) {
      auto it = prev->repos_.find(name);
      if (it != prev->repos_.end()) share = it->second;
    }
    if (share == nullptr) share = PublishCopy(&repo, version);
    repo.dirty = false;
    snap->repos_.emplace(name, std::move(share));
  }
  StoreSnapshotPtr superseded;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    snap->version_ = next_snapshot_version_++;
    superseded = std::move(latest_);
    latest_ = snap;
  }
  // Dropping `superseded` outside the lock recycles its copies right here
  // unless a reader still pins it.
  return snap;
}

uint64_t LocalStore::SnapshotVersion() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return next_snapshot_version_ - 1;
}

void LocalStore::EnsureSnapshotVersionAtLeast(uint64_t version) {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (next_snapshot_version_ <= version) next_snapshot_version_ = version + 1;
}

void LocalStore::Wipe() {
  for (auto& [name, repo] : repos_) {
    // A fresh slot: copies pinned across the wipe find theirs gone. The
    // indexes move over to the emptied relation, which keeps its address.
    Repository wiped(Relation(repo.live.schema(), repo.live.semantics()));
    wiped.indexes = std::move(repo.indexes);
    repo = std::move(wiped);
    for (KeyIndex& index : repo.indexes) index.Rebuild();
  }
  StoreSnapshotPtr dropped;
  std::lock_guard<std::mutex> lock(snap_mu_);
  dropped = std::move(latest_);
}

size_t LocalStore::ApproxBytes() const {
  size_t total = 0;
  for (const auto& [name, repo] : repos_) {
    (void)name;
    total += repo.live.ApproxBytes();
  }
  return total;
}

}  // namespace squirrel
