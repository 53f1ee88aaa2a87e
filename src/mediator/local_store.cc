#include "mediator/local_store.h"

#include "delta/delta_algebra.h"
#include "vdp/rules.h"

namespace squirrel {

LocalStore::LocalStore(const Vdp* vdp, const Annotation* ann)
    : vdp_(vdp), ann_(ann) {
  for (const auto& name : vdp_->DerivedNames()) {
    const VdpNode* node = vdp_->Find(name);
    auto mat = ann_->MaterializedAttrs(*vdp_, name);
    if (mat.empty()) continue;
    auto schema = node->schema.Project(mat);
    // Node schemas were validated at VDP construction; projection onto a
    // subset of attrs cannot fail.
    repos_.emplace(name,
                   Relation(std::move(schema).value(), node->semantics()));
  }
  AdviseIndexes(*vdp_, *ann_, &indexes_);
  for (const auto& [name, rel] : repos_) {
    // Repos are empty here; this just instantiates the advised indexes.
    (void)indexes_.Rebuild(name, rel);
  }
}

bool LocalStore::HasRepo(const std::string& node) const {
  return repos_.count(node) > 0;
}

Result<const Relation*> LocalStore::Repo(const std::string& node) const {
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  return &it->second;
}

Result<Relation*> LocalStore::MutableRepo(const std::string& node) {
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  dirty_.insert(node);
  return &it->second;
}

Status LocalStore::SetRepo(const std::string& node, Relation contents) {
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  if (contents.schema().AttributeNames() !=
      it->second.schema().AttributeNames()) {
    return Status::InvalidArgument(
        "repository contents for " + node +
        " do not match the materialized attribute set");
  }
  it->second = std::move(contents);
  dirty_.insert(node);
  return indexes_.Rebuild(node, it->second);
}

Status LocalStore::RebuildIndexes(const std::string& node) {
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  return indexes_.Rebuild(node, it->second);
}

Status LocalStore::ApplyNodeDelta(const std::string& node,
                                  const Delta& full_delta) {
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  dirty_.insert(node);
  const auto repo_attrs = it->second.schema().AttributeNames();
  if (full_delta.schema().AttributeNames() == repo_attrs) {
    SQ_RETURN_IF_ERROR(ApplyDelta(&it->second, full_delta));
    SQ_RETURN_IF_ERROR(indexes_.ApplyDelta(node, full_delta));
    if (apply_listener_) apply_listener_(node, full_delta);
    return Status::OK();
  }
  SQ_ASSIGN_OR_RETURN(Delta narrowed, DeltaProject(full_delta, repo_attrs));
  SQ_RETURN_IF_ERROR(ApplyDelta(&it->second, narrowed));
  SQ_RETURN_IF_ERROR(indexes_.ApplyDelta(node, narrowed));
  if (apply_listener_) apply_listener_(node, narrowed);
  return Status::OK();
}

std::vector<std::string> LocalStore::MaterializedNodes() const {
  std::vector<std::string> out;
  for (const auto& name : vdp_->TopoOrder()) {
    if (HasRepo(name)) out.push_back(name);
  }
  return out;
}

StoreSnapshot::~StoreSnapshot() {
  if (budget_ != nullptr) ReleaseGlobalBudget(budget_, budget_bytes_);
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

StoreSnapshotPtr LocalStore::PublishSnapshot(TimeVector reflect) {
  auto snap = std::make_shared<StoreSnapshot>();
  snap->reflect_ = std::move(reflect);
  // Copy-on-write: only nodes dirtied since the previous publish get fresh
  // Relation copies; everything else aliases the prior snapshot's objects.
  // Reading latest_ here without the lock is fine — only this (writer)
  // thread ever replaces it.
  const StoreSnapshot* prev = latest_.get();
  for (const auto& [name, rel] : repos_) {
    std::shared_ptr<const Relation> share;
    if (prev != nullptr && dirty_.count(name) == 0) {
      auto it = prev->repos_.find(name);
      if (it != prev->repos_.end()) share = it->second;
    }
    if (share == nullptr) {
      share = std::make_shared<Relation>(rel);
      // Fresh copy: account its retained bytes to this snapshot. Shared
      // relations were already charged by the publish that copied them.
      const size_t bytes = rel.ApproxBytes();
      if (MemoryBudget* b = ChargeGlobalBudget(bytes)) {
        snap->budget_ = b;
        snap->budget_bytes_ += bytes;
      }
    }
    snap->repos_.emplace(name, std::move(share));
  }
  dirty_.clear();
  std::lock_guard<std::mutex> lock(snap_mu_);
  snap->version_ = next_snapshot_version_++;
  latest_ = snap;
  retained_.push_back(snap);
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

std::vector<StoreSnapshotPtr> LocalStore::LiveSnapshots() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  std::vector<StoreSnapshotPtr> live;
  std::vector<std::weak_ptr<const StoreSnapshot>> still_registered;
  for (const auto& weak : retained_) {
    if (auto strong = weak.lock()) {
      live.push_back(std::move(strong));
      still_registered.push_back(weak);
    }
  }
  retained_ = std::move(still_registered);
  return live;
}

size_t LocalStore::ApproxBytes() const {
  size_t total = 0;
  for (const auto& [name, rel] : repos_) {
    (void)name;
    total += rel.ApproxBytes();
  }
  return total;
}

}  // namespace squirrel
