#include "relational/index.h"

#include <algorithm>

namespace squirrel {

const std::vector<std::pair<Tuple, int64_t>> HashIndex::kEmpty = {};

Result<HashIndex> HashIndex::Build(const Relation& rel,
                                   const std::vector<std::string>& attrs) {
  HashIndex index;
  index.attrs_ = attrs;
  index.rel_attrs_ = rel.schema().AttributeNames();
  index.positions_.reserve(attrs.size());
  for (const auto& a : attrs) {
    auto idx = rel.schema().IndexOf(a);
    if (!idx) return Status::NotFound("index attribute not in schema: " + a);
    index.positions_.push_back(*idx);
  }
  rel.ForEach([&](const Tuple& t, int64_t count) {
    index.buckets_[t.Project(index.positions_)].emplace_back(t, count);
  });
  return index;
}

const std::vector<std::pair<Tuple, int64_t>>& HashIndex::Probe(
    const Tuple& key) const {
  auto it = buckets_.find(key);
  return it == buckets_.end() ? kEmpty : it->second;
}

Status HashIndex::ApplyDelta(const Delta& delta) {
  if (delta.schema().AttributeNames() != rel_attrs_) {
    return Status::InvalidArgument(
        "delta schema does not match indexed relation");
  }
  Status failure = Status::OK();
  delta.ForEach([&](const Tuple& t, int64_t signed_count) {
    if (!failure.ok() || signed_count == 0) return;
    Tuple key = t.Project(positions_);
    auto bucket_it = buckets_.find(key);
    if (bucket_it == buckets_.end()) {
      if (signed_count < 0) {
        failure = Status::InvalidArgument(
            "index delete of absent tuple: " + t.ToString());
        return;
      }
      buckets_[std::move(key)].emplace_back(t, signed_count);
      return;
    }
    auto& bucket = bucket_it->second;
    auto entry = std::find_if(bucket.begin(), bucket.end(),
                              [&](const auto& e) { return e.first == t; });
    if (entry == bucket.end()) {
      if (signed_count < 0) {
        failure = Status::InvalidArgument(
            "index delete of absent tuple: " + t.ToString());
        return;
      }
      bucket.emplace_back(t, signed_count);
      return;
    }
    entry->second += signed_count;
    if (entry->second < 0) {
      failure = Status::InvalidArgument(
          "index count underflow for tuple: " + t.ToString());
      return;
    }
    if (entry->second == 0) {
      // Swap-pop: bucket order is not part of the index contract.
      *entry = std::move(bucket.back());
      bucket.pop_back();
      if (bucket.empty()) buckets_.erase(bucket_it);
    }
  });
  return failure;
}

size_t HashIndex::EntryCount() const {
  size_t n = 0;
  for (const auto& [key, bucket] : buckets_) n += bucket.size();
  return n;
}

namespace {

bool SameAttrSet(const std::vector<std::string>& a,
                 const std::vector<std::string>& b) {
  if (a.size() != b.size()) return false;
  std::vector<std::string> sa = a, sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  return sa == sb;
}

}  // namespace

bool IndexManager::Register(const std::string& node,
                            std::vector<std::string> attrs) {
  auto& specs = specs_[node];
  for (const auto& existing : specs) {
    if (SameAttrSet(existing, attrs)) return false;
  }
  specs.push_back(std::move(attrs));
  return true;
}

const HashIndex* IndexManager::Find(
    const std::string& node, const std::vector<std::string>& attrs) const {
  auto it = built_.find(node);
  if (it == built_.end()) return nullptr;
  for (const auto& index : it->second) {
    if (SameAttrSet(index.attrs(), attrs)) return &index;
  }
  return nullptr;
}

Status IndexManager::Rebuild(const std::string& node, const Relation& rel) {
  auto spec_it = specs_.find(node);
  if (spec_it == specs_.end()) return Status::OK();
  std::vector<HashIndex> rebuilt;
  rebuilt.reserve(spec_it->second.size());
  for (const auto& attrs : spec_it->second) {
    auto index = HashIndex::Build(rel, attrs);
    if (!index.ok()) return index.status();
    rebuilt.push_back(std::move(*index));
  }
  built_[node] = std::move(rebuilt);
  return Status::OK();
}

Status IndexManager::ApplyDelta(const std::string& node, const Delta& delta) {
  auto it = built_.find(node);
  if (it == built_.end()) return Status::OK();
  for (auto& index : it->second) {
    auto st = index.ApplyDelta(delta);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace squirrel
