#include "relational/operators.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/cancel.h"
#include "relational/column_batch.h"
#include "relational/columnar.h"

namespace squirrel {

namespace {

/// Distinct attribute positions the program references, sorted.
std::vector<size_t> ReferencedColumns(const BoundExpr& expr) {
  std::vector<size_t> out;
  for (const auto& in : expr.code()) {
    if (in.op == BoundExpr::Instr::Op::kPushAttr) {
      out.push_back(in.attr_index);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Result<Relation> OpSelect(const Relation& in, const Expr::Ptr& cond) {
  Expr::Ptr c = cond ? cond : Expr::True();
  SQ_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(c, in.schema()));
  // Vectorized predicate over just the referenced columns (DESIGN.md §12);
  // the kept rows are copied from the input tuples.
  ColumnBatch batch(in.schema().size(), ReferencedColumns(bound),
                    in.DistinctSize());
  std::vector<std::pair<const Tuple*, int64_t>> rows;
  rows.reserve(in.DistinctSize());
  in.ForEach([&](const Tuple& t, int64_t count) {
    batch.AppendRow(t);
    rows.emplace_back(&t, count);
  });
  SQ_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                      columnar::EvalPredicate(bound, batch));
  Relation out(in.schema(), in.semantics());
  for (uint32_t r : sel) {
    SQ_RETURN_IF_ERROR(out.Insert(*rows[r].first, rows[r].second));
  }
  return out;
}

Result<Relation> OpProject(const Relation& in,
                           const std::vector<std::string>& attrs,
                           Semantics out_semantics) {
  SQ_ASSIGN_OR_RETURN(Schema out_schema, in.schema().Project(attrs));
  std::vector<size_t> positions;
  positions.reserve(attrs.size());
  for (const auto& a : attrs) positions.push_back(*in.schema().IndexOf(a));
  Relation out(std::move(out_schema), out_semantics);
  Status st = Status::OK();
  in.ForEach([&](const Tuple& t, int64_t count) {
    if (!st.ok()) return;
    st = out.Insert(t.Project(positions), count);
  });
  if (!st.ok()) return st;
  return out;
}

Result<Relation> OpJoin(const Relation& left, const Relation& right,
                        const Expr::Ptr& cond) {
  SQ_ASSIGN_OR_RETURN(Schema out_schema,
                      left.schema().Concat(right.schema()));
  Expr::Ptr c = cond ? cond : Expr::True();
  JoinConditionParts parts =
      SplitJoinCondition(c, left.schema(), right.schema());

  BoundExpr residual;
  bool has_residual = !parts.residual->IsTrueLiteral();
  if (has_residual) {
    SQ_ASSIGN_OR_RETURN(residual, BoundExpr::Bind(parts.residual, out_schema));
  }

  Semantics out_sem = (left.semantics() == Semantics::kBag ||
                       right.semantics() == Semantics::kBag)
                          ? Semantics::kBag
                          : Semantics::kSet;
  Relation out(std::move(out_schema), out_sem);
  Status st = Status::OK();
  size_t checked = 0;  // CheckCancelEvery's row counter

  auto emit = [&](const Tuple& lt, int64_t lc, const Tuple& rt, int64_t rc) {
    if (!st.ok()) return;
    Tuple joined = lt.Concat(rt);
    if (has_residual) {
      auto keep = residual.EvalBool(joined);
      if (!keep.ok()) {
        st = keep.status();
        return;
      }
      if (!*keep) return;
    }
    st = out.Insert(std::move(joined), lc * rc);
  };

  if (!parts.equi.empty()) {
    // Hash join: build on the side with the smaller total (bag) size —
    // under bag semantics DistinctSize alone mis-ranks a side with few
    // distinct rows but huge multiplicities. Break ties on distinct size.
    bool build_left =
        left.TotalSize() != right.TotalSize()
            ? left.TotalSize() < right.TotalSize()
            : left.DistinctSize() <= right.DistinctSize();
    const Relation& build = build_left ? left : right;
    const Relation& probe = build_left ? right : left;
    std::vector<size_t> build_pos, probe_pos;
    for (const auto& p : parts.equi) {
      size_t li = *left.schema().IndexOf(p.left_attr);
      size_t ri = *right.schema().IndexOf(p.right_attr);
      build_pos.push_back(build_left ? li : ri);
      probe_pos.push_back(build_left ? ri : li);
    }
    // Packed-key table: key strings are interned once into the table's
    // arena and each probe packs into scratch space, so the loop below
    // allocates no per-row key Tuples.
    columnar::PackedJoinTable table(parts.equi.size());
    std::vector<const Tuple*> build_rows;
    std::vector<int64_t> build_counts;
    build_rows.reserve(build.DistinctSize());
    build_counts.reserve(build.DistinctSize());
    build.ForEach([&](const Tuple& t, int64_t count) {
      table.AddBuildRow(t, build_pos);
      build_rows.push_back(&t);
      build_counts.push_back(count);
    });
    table.Finalize();
    probe.ForEach([&](const Tuple& t, int64_t count) {
      if (st.ok()) st = CheckCancelEvery(&checked);
      if (!st.ok()) return;
      for (int32_t r = table.ProbeRow(t, probe_pos); r >= 0;
           r = table.NextInChain(r)) {
        if (build_left) {
          emit(*build_rows[r], build_counts[r], t, count);
        } else {
          emit(t, count, *build_rows[r], build_counts[r]);
        }
      }
    });
  } else {
    // Nested loop for pure theta joins (e.g. Example 5.1's a1²+a2 < b2²).
    left.ForEach([&](const Tuple& lt, int64_t lc) {
      if (!st.ok()) return;
      right.ForEach([&](const Tuple& rt, int64_t rc) {
        if (st.ok()) st = CheckCancelEvery(&checked);
        emit(lt, lc, rt, rc);
      });
    });
  }
  if (!st.ok()) return st;
  return out;
}

namespace {

Status CheckUnionCompatible(const Schema& a, const Schema& b) {
  if (a.attrs().size() != b.attrs().size()) {
    return Status::InvalidArgument("union of schemas with different arity");
  }
  for (size_t i = 0; i < a.attrs().size(); ++i) {
    if (a.attr(i).name != b.attr(i).name) {
      return Status::InvalidArgument(
          "union of schemas with different attributes: " + a.attr(i).name +
          " vs " + b.attr(i).name);
    }
  }
  return Status::OK();
}

}  // namespace

Result<Relation> OpUnion(const Relation& left, const Relation& right,
                         Semantics out_semantics) {
  SQ_RETURN_IF_ERROR(CheckUnionCompatible(left.schema(), right.schema()));
  Relation out(left.schema(), out_semantics);
  Status st = Status::OK();
  left.ForEach([&](const Tuple& t, int64_t c) {
    if (st.ok()) st = out.Insert(t, c);
  });
  right.ForEach([&](const Tuple& t, int64_t c) {
    if (st.ok()) st = out.Insert(t, c);
  });
  if (!st.ok()) return st;
  return out;
}

Result<Relation> OpDiff(const Relation& left, const Relation& right) {
  SQ_RETURN_IF_ERROR(CheckUnionCompatible(left.schema(), right.schema()));
  Relation out(left.schema(), Semantics::kSet);
  Status st = Status::OK();
  left.ForEach([&](const Tuple& t, int64_t c) {
    (void)c;
    if (st.ok() && !right.Contains(t)) st = out.Insert(t);
  });
  if (!st.ok()) return st;
  return out;
}

Result<Relation> OpRename(
    const Relation& in,
    const std::unordered_map<std::string, std::string>& renames) {
  std::vector<Attribute> attrs;
  for (const auto& a : in.schema().attrs()) {
    auto it = renames.find(a.name);
    attrs.push_back({it == renames.end() ? a.name : it->second, a.type});
  }
  std::vector<std::string> key;
  for (const auto& k : in.schema().key()) {
    auto it = renames.find(k);
    key.push_back(it == renames.end() ? k : it->second);
  }
  Schema schema(std::move(attrs), std::move(key));
  SQ_RETURN_IF_ERROR(schema.Validate());
  Relation out(std::move(schema), in.semantics());
  Status st = Status::OK();
  in.ForEach([&](const Tuple& t, int64_t c) {
    if (st.ok()) st = out.Insert(t, c);
  });
  if (!st.ok()) return st;
  return out;
}

void Catalog::Register(const std::string& name, const Relation* rel) {
  rels_[name] = rel;
}

Result<const Relation*> Catalog::Lookup(const std::string& name) const {
  auto it = rels_.find(name);
  if (it == rels_.end()) {
    return Status::NotFound("relation not in catalog: " + name);
  }
  return it->second;
}

Result<Schema> InferSchema(const AlgebraExpr::Ptr& expr,
                           const SchemaLookup& lookup) {
  if (!expr) return Status::InvalidArgument("null algebra expression");
  switch (expr->kind()) {
    case AlgebraExpr::Kind::kScan:
      return lookup(expr->relation());
    case AlgebraExpr::Kind::kSelect:
      return InferSchema(expr->left(), lookup);
    case AlgebraExpr::Kind::kProject: {
      SQ_ASSIGN_OR_RETURN(Schema child, InferSchema(expr->left(), lookup));
      return child.Project(expr->attrs());
    }
    case AlgebraExpr::Kind::kJoin: {
      SQ_ASSIGN_OR_RETURN(Schema l, InferSchema(expr->left(), lookup));
      SQ_ASSIGN_OR_RETURN(Schema r, InferSchema(expr->right(), lookup));
      return l.Concat(r);
    }
    case AlgebraExpr::Kind::kUnion:
    case AlgebraExpr::Kind::kDiff: {
      SQ_ASSIGN_OR_RETURN(Schema l, InferSchema(expr->left(), lookup));
      SQ_ASSIGN_OR_RETURN(Schema r, InferSchema(expr->right(), lookup));
      SQ_RETURN_IF_ERROR(CheckUnionCompatible(l, r));
      return l;
    }
  }
  return Status::Internal("unknown algebra node kind");
}

namespace {

Result<Relation> EvalOwned(const AlgebraExpr::Ptr& expr,
                           const Catalog& catalog);

/// Evaluates \p expr, borrowing catalog relations for scans instead of
/// copying them: a scan yields a non-owning alias whose lifetime is tied to
/// the catalog, every other node owns its (freshly computed) result.
Result<std::shared_ptr<const Relation>> EvalShared(const AlgebraExpr::Ptr& expr,
                                                   const Catalog& catalog) {
  if (!expr) return Status::InvalidArgument("null algebra expression");
  if (expr->kind() == AlgebraExpr::Kind::kScan) {
    SQ_ASSIGN_OR_RETURN(const Relation* rel, catalog.Lookup(expr->relation()));
    return std::shared_ptr<const Relation>(std::shared_ptr<void>(), rel);
  }
  SQ_ASSIGN_OR_RETURN(Relation owned, EvalOwned(expr, catalog));
  return std::shared_ptr<const Relation>(
      std::make_shared<Relation>(std::move(owned)));
}

Result<Relation> EvalOwned(const AlgebraExpr::Ptr& expr,
                           const Catalog& catalog) {
  if (!expr) return Status::InvalidArgument("null algebra expression");
  switch (expr->kind()) {
    case AlgebraExpr::Kind::kScan: {
      // Only reachable when a scan is the evaluation root; interior scans go
      // through EvalShared and stay borrowed.
      SQ_ASSIGN_OR_RETURN(const Relation* rel,
                          catalog.Lookup(expr->relation()));
      return *rel;
    }
    case AlgebraExpr::Kind::kSelect: {
      SQ_ASSIGN_OR_RETURN(auto child, EvalShared(expr->left(), catalog));
      return OpSelect(*child, expr->condition());
    }
    case AlgebraExpr::Kind::kProject: {
      SQ_ASSIGN_OR_RETURN(auto child, EvalShared(expr->left(), catalog));
      return OpProject(*child, expr->attrs(), Semantics::kBag);
    }
    case AlgebraExpr::Kind::kJoin: {
      SQ_ASSIGN_OR_RETURN(auto l, EvalShared(expr->left(), catalog));
      SQ_ASSIGN_OR_RETURN(auto r, EvalShared(expr->right(), catalog));
      return OpJoin(*l, *r, expr->condition());
    }
    case AlgebraExpr::Kind::kUnion: {
      SQ_ASSIGN_OR_RETURN(auto l, EvalShared(expr->left(), catalog));
      SQ_ASSIGN_OR_RETURN(auto r, EvalShared(expr->right(), catalog));
      return OpUnion(*l, *r, Semantics::kBag);
    }
    case AlgebraExpr::Kind::kDiff: {
      SQ_ASSIGN_OR_RETURN(auto l, EvalShared(expr->left(), catalog));
      SQ_ASSIGN_OR_RETURN(auto r, EvalShared(expr->right(), catalog));
      return OpDiff(l->ToSet(), r->ToSet());
    }
  }
  return Status::Internal("unknown algebra node kind");
}

}  // namespace

Result<Relation> EvalAlgebra(const AlgebraExpr::Ptr& expr,
                             const Catalog& catalog) {
  return EvalOwned(expr, catalog);
}

Result<std::shared_ptr<const Relation>> EvalAlgebraShared(
    const AlgebraExpr::Ptr& expr, const Catalog& catalog) {
  return EvalShared(expr, catalog);
}

}  // namespace squirrel
