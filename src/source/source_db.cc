#include "source/source_db.h"

#include <limits>

#include "relational/operators.h"

namespace squirrel {

namespace {

/// The first top-level `a IN (...)` conjunct of \p cond on an attribute of
/// \p schema, or null.
Expr::Ptr IndexableConjunct(const Expr::Ptr& cond, const Schema& schema) {
  for (const auto& clause : ConjunctiveClauses(cond)) {
    if (clause->kind() == Expr::Kind::kIn &&
        schema.Contains(clause->attr_name())) {
      return clause;
    }
  }
  return nullptr;
}

}  // namespace

Status SourceDb::AddRelation(const std::string& rel_name, Schema schema) {
  SQ_RETURN_IF_ERROR(schema.Validate());
  if (relations_.count(rel_name)) {
    return Status::AlreadyExists("relation already declared: " + rel_name);
  }
  relations_.emplace(rel_name, Relation(std::move(schema), Semantics::kSet));
  return Status::OK();
}

std::vector<std::string> SourceDb::RelationNames() const {
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) {
    (void)rel;
    out.push_back(name);
  }
  return out;
}

Result<Schema> SourceDb::RelationSchema(const std::string& rel_name) const {
  auto it = relations_.find(rel_name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation " + rel_name + " in source " + name_);
  }
  return it->second.schema();
}

Status SourceDb::Commit(Time now, const MultiDelta& delta) {
  if (!log_.empty() && now < log_.back().time) {
    return Status::FailedPrecondition(
        "commit time " + std::to_string(now) + " precedes last commit at " +
        std::to_string(log_.back().time));
  }
  // Validate every touched relation exists and apply strictly.
  for (const auto& rel_name : delta.RelationNames()) {
    if (!relations_.count(rel_name)) {
      return Status::NotFound("commit touches unknown relation: " + rel_name);
    }
  }
  for (const auto& rel_name : delta.RelationNames()) {
    auto iit = key_indexes_.find(rel_name);
    SQ_RETURN_IF_ERROR(ApplyIndexed(
        &relations_.at(rel_name), *delta.Find(rel_name),
        iit == key_indexes_.end() ? std::span<KeyIndex>() : iit->second));
  }
  log_.push_back({now, delta});
  for (const auto& listener : commit_listeners_) listener.fn(now, delta);
  return Status::OK();
}

Status SourceDb::InsertTuple(Time now, const std::string& rel_name,
                             const Tuple& t) {
  auto it = relations_.find(rel_name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation " + rel_name);
  }
  MultiDelta md;
  SQ_RETURN_IF_ERROR(
      md.Mutable(rel_name, it->second.schema())->AddInsert(t));
  return Commit(now, md);
}

Status SourceDb::DeleteTuple(Time now, const std::string& rel_name,
                             const Tuple& t) {
  auto it = relations_.find(rel_name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation " + rel_name);
  }
  MultiDelta md;
  SQ_RETURN_IF_ERROR(
      md.Mutable(rel_name, it->second.schema())->AddDelete(t));
  return Commit(now, md);
}

Result<const Relation*> SourceDb::Current(const std::string& rel_name) const {
  auto it = relations_.find(rel_name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation " + rel_name + " in source " + name_);
  }
  return &it->second;
}

Result<Relation> SourceDb::StateAt(const std::string& rel_name,
                                   Time t) const {
  auto it = relations_.find(rel_name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation " + rel_name + " in source " + name_);
  }
  Relation state(it->second.schema(), Semantics::kSet);
  for (const auto& entry : log_) {
    if (entry.time > t) break;
    const Delta* d = entry.delta.Find(rel_name);
    if (d != nullptr) {
      SQ_RETURN_IF_ERROR(ApplyDelta(&state, *d));
    }
  }
  return state;
}

Result<Relation> SourceDb::Query(const std::string& rel_name,
                                 const std::vector<std::string>& attrs,
                                 const Expr::Ptr& cond) const {
  SQ_ASSIGN_OR_RETURN(const Relation* rel, Current(rel_name));
  const Schema& schema = rel->schema();
  Expr::Ptr in = IndexableConjunct(cond, schema);
  if (in == nullptr) {
    SQ_ASSIGN_OR_RETURN(Relation selected, OpSelect(*rel, cond));
    return OpProject(selected, attrs, Semantics::kBag);
  }
  SQ_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(cond, schema));
  SQ_ASSIGN_OR_RETURN(Schema out_schema, schema.Project(attrs));
  std::vector<size_t> positions;
  positions.reserve(attrs.size());
  for (const auto& a : attrs) positions.push_back(*schema.IndexOf(a));
  const KeyIndex& index = IndexFor(rel_name, *rel, in->attr_name());
  Relation out(std::move(out_schema), Semantics::kBag);
  // The members are distinct under Value equality (InList), so every
  // candidate row is visited once.
  const std::vector<size_t> key_pos = {0};
  for (const Value& member : in->in_list()->values()) {
    SQ_RETURN_IF_ERROR(index.ForEachMatch(
        Tuple({member}), key_pos,
        [&](const Tuple& row, int64_t count) -> Status {
          SQ_ASSIGN_OR_RETURN(bool keep, bound.EvalBool(row));
          if (!keep) return Status::OK();
          return out.Insert(row.Project(positions), count);
        }));
  }
  return out;
}

const KeyIndex& SourceDb::IndexFor(const std::string& rel_name,
                                   const Relation& rel,
                                   const std::string& attr) const {
  std::vector<KeyIndex>& indexes = key_indexes_[rel_name];
  for (const KeyIndex& index : indexes) {
    if (index.attrs().front() == attr) return index;
  }
  // Query found attr in rel's schema, so the build cannot fail.
  indexes.push_back(KeyIndex::Build(rel, {attr}).value());
  return indexes.back();
}

void SourceDb::Restart(Time now) {
  ++epoch_;
  for (const auto& listener : restart_listeners_) listener.fn(now);
}

std::vector<Time> SourceDb::CommitTimes() const {
  std::vector<Time> out;
  out.reserve(log_.size());
  for (const auto& entry : log_) out.push_back(entry.time);
  return out;
}

Time SourceDb::LastCommitTime() const {
  return log_.empty() ? -std::numeric_limits<Time>::infinity()
                      : log_.back().time;
}

}  // namespace squirrel
