#include "delta/delta.h"

#include <algorithm>
#include <cstdlib>

#include "common/cancel.h"
#include "common/strings.h"

namespace squirrel {

Status Delta::Add(const Tuple& tuple, int64_t signed_count) {
  if (signed_count == 0) return Status::OK();
  if (schema_.size() > 0 && tuple.size() != schema_.size()) {
    return Status::InvalidArgument(
        "delta atom arity " + std::to_string(tuple.size()) +
        " does not match schema arity " + std::to_string(schema_.size()));
  }
  auto [it, inserted] = atoms_.try_emplace(tuple, signed_count);
  if (!inserted) {
    it->second += signed_count;
    if (it->second == 0) atoms_.erase(it);
  }
  return Status::OK();
}

int64_t Delta::CountOf(const Tuple& tuple) const {
  auto it = atoms_.find(tuple);
  return it == atoms_.end() ? 0 : it->second;
}

int64_t Delta::TotalMagnitude() const {
  int64_t total = 0;
  for (const auto& [t, c] : atoms_) {
    (void)t;
    total += std::abs(c);
  }
  return total;
}

void Delta::ForEach(
    const std::function<void(const Tuple&, int64_t)>& fn) const {
  for (const auto& [tuple, count] : atoms_) fn(tuple, count);
}

std::vector<std::pair<Tuple, int64_t>> Delta::SortedAtoms() const {
  std::vector<std::pair<Tuple, int64_t>> out(atoms_.begin(), atoms_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

Delta Delta::Inverse() const {
  Delta out(schema_);
  for (const auto& [tuple, count] : atoms_) out.atoms_[tuple] = -count;
  return out;
}

Status Delta::SmashInPlace(const Delta& later) {
  if (schema_.size() == 0) schema_ = later.schema_;
  for (const auto& [tuple, count] : later.atoms_) {
    SQ_RETURN_IF_ERROR(Add(tuple, count));
  }
  return Status::OK();
}

Result<Delta> Delta::Smash(const Delta& d1, const Delta& d2) {
  Delta out = d1;
  SQ_RETURN_IF_ERROR(out.SmashInPlace(d2));
  return out;
}

Relation Delta::Positive() const {
  Relation out(schema_, Semantics::kBag);
  for (const auto& [tuple, count] : atoms_) {
    if (count > 0) (void)out.Insert(tuple, count);
  }
  return out;
}

Relation Delta::Negative() const {
  Relation out(schema_, Semantics::kBag);
  for (const auto& [tuple, count] : atoms_) {
    if (count < 0) (void)out.Insert(tuple, -count);
  }
  return out;
}

Result<Delta> Delta::Between(const Relation& from, const Relation& to) {
  if (from.schema().AttributeNames() != to.schema().AttributeNames()) {
    return Status::InvalidArgument(
        "Delta::Between on relations with different schemas");
  }
  Delta out(to.schema());
  Status st = Status::OK();
  size_t checked = 0;  // CheckCancelEvery's row counter
  to.ForEach([&](const Tuple& t, int64_t c) {
    if (st.ok()) st = CheckCancelEvery(&checked);
    if (st.ok()) st = out.Add(t, c - from.CountOf(t));
  });
  from.ForEach([&](const Tuple& t, int64_t c) {
    if (st.ok()) st = CheckCancelEvery(&checked);
    if (st.ok() && !to.Contains(t)) st = out.Add(t, -c);
  });
  if (!st.ok()) return st;
  return out;
}

std::string Delta::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [tuple, count] : SortedAtoms()) {
    if (!first) out += ", ";
    first = false;
    out += count > 0 ? "+" : "-";
    out += tuple.ToString();
    int64_t mag = std::abs(count);
    if (mag != 1) out += " x" + std::to_string(mag);
  }
  out += "}";
  return out;
}

bool Delta::EqualContents(const Delta& other) const {
  if (atoms_.size() != other.atoms_.size()) return false;
  for (const auto& [tuple, count] : atoms_) {
    if (other.CountOf(tuple) != count) return false;
  }
  return true;
}

Status ApplyDelta(Relation* rel, const Delta& delta) {
  if (delta.schema().size() > 0 && rel->schema().size() > 0 &&
      delta.schema().AttributeNames() != rel->schema().AttributeNames()) {
    return Status::InvalidArgument(
        "applying delta with mismatched schema: delta " +
        Join(delta.schema().AttributeNames(), ",") + " vs relation " +
        Join(rel->schema().AttributeNames(), ","));
  }
  // Validate first so a failed apply leaves the relation untouched.
  Status st = Status::OK();
  delta.ForEach([&](const Tuple& tuple, int64_t count) {
    if (!st.ok()) return;
    int64_t present = rel->CountOf(tuple);
    if (rel->semantics() == Semantics::kSet) {
      if (count != 1 && count != -1) {
        st = Status::FailedPrecondition(
            "set relation delta atom with |count| != 1: " + tuple.ToString());
      } else if (count == 1 && present > 0) {
        st = Status::FailedPrecondition("redundant insertion of " +
                                        tuple.ToString());
      } else if (count == -1 && present == 0) {
        st = Status::FailedPrecondition("redundant deletion of " +
                                        tuple.ToString());
      }
    } else if (present + count < 0) {
      st = Status::FailedPrecondition(
          "bag delta would drive multiplicity of " + tuple.ToString() +
          " below zero (" + std::to_string(present) + " + " +
          std::to_string(count) + ")");
    }
  });
  if (!st.ok()) return st;
  delta.ForEach([&](const Tuple& tuple, int64_t count) {
    if (st.ok()) st = rel->Adjust(tuple, count);
  });
  return st;
}

Delta* MultiDelta::Mutable(const std::string& rel_name, const Schema& schema) {
  auto it = per_relation_.find(rel_name);
  if (it == per_relation_.end()) {
    it = per_relation_.emplace(rel_name, Delta(schema)).first;
  }
  return &it->second;
}

const Delta* MultiDelta::Find(const std::string& rel_name) const {
  auto it = per_relation_.find(rel_name);
  if (it == per_relation_.end() || it->second.Empty()) return nullptr;
  return &it->second;
}

bool MultiDelta::Empty() const {
  for (const auto& [name, delta] : per_relation_) {
    (void)name;
    if (!delta.Empty()) return false;
  }
  return true;
}

std::vector<std::string> MultiDelta::RelationNames() const {
  std::vector<std::string> out;
  for (const auto& [name, delta] : per_relation_) {
    if (!delta.Empty()) out.push_back(name);
  }
  return out;
}

size_t MultiDelta::AtomCount() const {
  size_t total = 0;
  for (const auto& [name, delta] : per_relation_) {
    (void)name;
    total += delta.AtomCount();
  }
  return total;
}

Status MultiDelta::SmashInPlace(const MultiDelta& later) {
  for (const auto& [name, delta] : later.per_relation_) {
    SQ_RETURN_IF_ERROR(
        Mutable(name, delta.schema())->SmashInPlace(delta));
  }
  return Status::OK();
}

std::string MultiDelta::ToString() const {
  std::string out;
  for (const auto& [name, delta] : per_relation_) {
    if (delta.Empty()) continue;
    if (!out.empty()) out += "; ";
    out += name + delta.ToString();
  }
  return out.empty() ? "{}" : out;
}

}  // namespace squirrel
