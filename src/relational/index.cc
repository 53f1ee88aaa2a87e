#include "relational/index.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace squirrel {

Result<KeyIndex> KeyIndex::Build(const Relation& rel,
                                 std::vector<std::string> attrs) {
  std::vector<size_t> positions;
  positions.reserve(attrs.size());
  for (const auto& a : attrs) {
    auto idx = rel.schema().IndexOf(a);
    if (!idx) return Status::NotFound("index attribute not in schema: " + a);
    positions.push_back(*idx);
  }
  KeyIndex index(&rel, std::move(attrs), std::move(positions));
  index.Rebuild();
  return index;
}

void KeyIndex::Rebuild() {
  entries_ = {};
  nan_keys_ = 0;
  entries_.reserve(rel_->DistinctSize());
  for (const Row& row : rel_->rows()) Add(&row);
}

uint64_t KeyIndex::KeyHash(const Tuple& t, const std::vector<size_t>& pos) {
  uint64_t h = 0xC0FFEEULL;
  for (size_t p : pos) h = HashCombine(h, t.at(p).Hash());
  return h;
}

bool KeyIndex::KeyEquals(const Tuple& row, const Tuple& probe,
                         const std::vector<size_t>& key_pos) const {
  for (size_t k = 0; k < positions_.size(); ++k) {
    if (row.at(positions_[k]) != probe.at(key_pos[k])) return false;
  }
  return true;
}

bool KeyIndex::HasNan(const Tuple& row) const {
  return std::any_of(positions_.begin(), positions_.end(), [&](size_t p) {
    const Value& v = row.at(p);
    return v.type() == ValueType::kDouble && std::isnan(v.AsDouble());
  });
}

void KeyIndex::Add(const Row* row) {
  entries_.emplace(KeyHash(row->first, positions_), row);
  if (HasNan(row->first)) ++nan_keys_;
}

void KeyIndex::Remove(const Row* row) {
  auto [lo, hi] = entries_.equal_range(KeyHash(row->first, positions_));
  for (auto it = lo; it != hi; ++it) {
    if (it->second == row) {
      entries_.erase(it);
      if (HasNan(row->first)) --nan_keys_;
      return;
    }
  }
}

Result<Relation> SelectByKeys(const KeyIndex& index,
                              const std::vector<Value>& keys,
                              const Expr::Ptr& cond,
                              const std::vector<std::string>& attrs) {
  const Schema& schema = index.relation().schema();
  SQ_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(cond, schema));
  SQ_ASSIGN_OR_RETURN(Schema out_schema, schema.Project(attrs));
  std::vector<size_t> positions;
  positions.reserve(attrs.size());
  for (const auto& a : attrs) positions.push_back(*schema.IndexOf(a));
  Relation out(std::move(out_schema), Semantics::kBag);
  const std::vector<size_t> key_pos = {0};
  for (const Value& key : keys) {
    SQ_RETURN_IF_ERROR(index.ForEachMatch(
        Tuple({key}), key_pos, [&](const Tuple& row, int64_t count) -> Status {
          SQ_ASSIGN_OR_RETURN(bool keep, bound.EvalBool(row));
          if (!keep) return Status::OK();
          return out.Insert(row.Project(positions), count);
        }));
  }
  return out;
}

Status ApplyIndexed(Relation* rel, const Delta& delta,
                    std::span<KeyIndex> indexes) {
  if (indexes.empty()) return ApplyDelta(rel, delta);
  for (const KeyIndex& index : indexes) {
    if (index.rel_ != rel) {
      return Status::InvalidArgument("index is not built on this relation");
    }
  }
  std::vector<const Tuple*> added;
  delta.ForEach([&](const Tuple& t, int64_t count) {
    auto it = rel->rows().find(t);
    if (it == rel->rows().end()) {
      if (count > 0) added.push_back(&t);
    } else if (it->second + count <= 0) {
      for (KeyIndex& index : indexes) index.Remove(&*it);
    }
  });
  Status st = ApplyDelta(rel, delta);
  if (!st.ok()) {
    for (KeyIndex& index : indexes) index.Rebuild();
    return st;
  }
  for (const Tuple* t : added) {
    const KeyIndex::Row* row = &*rel->rows().find(*t);
    for (KeyIndex& index : indexes) index.Add(row);
  }
  return Status::OK();
}

bool SameAttrSet(const std::vector<std::string>& a,
                 const std::vector<std::string>& b) {
  if (a.size() != b.size()) return false;
  std::vector<std::string> sa = a, sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  return sa == sb;
}

}  // namespace squirrel
