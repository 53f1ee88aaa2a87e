#include "delta/delta_algebra.h"

#include <algorithm>

#include "common/cancel.h"
#include "relational/columnar.h"

namespace squirrel {

Result<Delta> DeltaSelect(const Delta& delta, const Expr::Ptr& cond) {
  Expr::Ptr c = cond ? cond : Expr::True();
  if (c->IsTrueLiteral()) return delta;
  SQ_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(c, delta.schema()));
  Delta out(delta.schema());
  Status st = Status::OK();
  delta.ForEach([&](const Tuple& t, int64_t count) {
    if (!st.ok()) return;
    auto keep = bound.EvalBool(t);
    if (!keep.ok()) {
      st = keep.status();
      return;
    }
    if (*keep) st = out.Add(t, count);
  });
  if (!st.ok()) return st;
  return out;
}

Result<Delta> DeltaProject(const Delta& delta,
                           const std::vector<std::string>& attrs) {
  SQ_ASSIGN_OR_RETURN(Schema out_schema, delta.schema().Project(attrs));
  std::vector<size_t> positions;
  positions.reserve(attrs.size());
  for (const auto& a : attrs) positions.push_back(*delta.schema().IndexOf(a));
  Delta out(std::move(out_schema));
  Status st = Status::OK();
  delta.ForEach([&](const Tuple& t, int64_t count) {
    if (st.ok()) st = out.Add(t.Project(positions), count);
  });
  if (!st.ok()) return st;
  return out;
}

namespace {

// Shared core for Δ⋈R and R⋈Δ: iterate delta atoms, probe the relation,
// emit concatenated tuples with multiplied counts. Unlike OpJoin, every
// joined tuple re-checks the FULL condition (equi conjuncts included), so
// NULL keys, which PackedJoinTable matches, drop here.
Result<Delta> JoinDeltaWithRelation(const Delta& delta, const Relation& rel,
                                    const Expr::Ptr& cond, bool delta_left) {
  const Schema& ls = delta_left ? delta.schema() : rel.schema();
  const Schema& rs = delta_left ? rel.schema() : delta.schema();
  SQ_ASSIGN_OR_RETURN(Schema out_schema, ls.Concat(rs));
  Expr::Ptr c = cond ? cond : Expr::True();
  SQ_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(c, out_schema));
  bool trivial = c->IsTrueLiteral();

  // Hash-join fast path on equi conjuncts.
  JoinConditionParts parts = SplitJoinCondition(c, ls, rs);
  Delta out(std::move(out_schema));
  Status st = Status::OK();
  size_t checked = 0;  // CheckCancelEvery's row counter

  auto emit = [&](const Tuple& lt, int64_t lc, const Tuple& rt, int64_t rc) {
    if (!st.ok()) return;
    Tuple joined = lt.Concat(rt);
    if (!trivial) {
      auto keep = bound.EvalBool(joined);
      if (!keep.ok()) {
        st = keep.status();
        return;
      }
      if (!*keep) return;
    }
    st = out.Add(std::move(joined), lc * rc);
  };
  auto emit_pair = [&](const Tuple& dt, int64_t dc, const Tuple& rt,
                       int64_t rc) {
    if (delta_left) {
      emit(dt, dc, rt, rc);
    } else {
      emit(rt, rc, dt, dc);
    }
  };

  if (!parts.equi.empty()) {
    // Build the packed-key table over the relation's equi attributes.
    std::vector<size_t> rel_pos, delta_pos;
    for (const auto& p : parts.equi) {
      const std::string& in_delta = delta_left ? p.left_attr : p.right_attr;
      const std::string& in_rel = delta_left ? p.right_attr : p.left_attr;
      delta_pos.push_back(*delta.schema().IndexOf(in_delta));
      rel_pos.push_back(*rel.schema().IndexOf(in_rel));
    }
    columnar::PackedJoinTable table(parts.equi.size());
    std::vector<const Tuple*> rel_rows;
    std::vector<int64_t> rel_counts;
    rel_rows.reserve(rel.DistinctSize());
    rel_counts.reserve(rel.DistinctSize());
    rel.ForEach([&](const Tuple& t, int64_t count) {
      table.AddBuildRow(t, rel_pos);
      rel_rows.push_back(&t);
      rel_counts.push_back(count);
    });
    table.Finalize();
    delta.ForEach([&](const Tuple& dt, int64_t dc) {
      if (st.ok()) st = CheckCancelEvery(&checked);
      if (!st.ok()) return;
      for (int32_t r = table.ProbeRow(dt, delta_pos); r >= 0;
           r = table.NextInChain(r)) {
        emit_pair(dt, dc, *rel_rows[r], rel_counts[r]);
      }
    });
  } else {
    delta.ForEach([&](const Tuple& dt, int64_t dc) {
      if (!st.ok()) return;
      rel.ForEach([&](const Tuple& rt, int64_t rc) {
        if (st.ok()) st = CheckCancelEvery(&checked);
        emit_pair(dt, dc, rt, rc);
      });
    });
  }
  if (!st.ok()) return st;
  return out;
}

}  // namespace

Result<Delta> DeltaJoinRelation(const Delta& delta, const Relation& rel,
                                const Expr::Ptr& cond) {
  return JoinDeltaWithRelation(delta, rel, cond, /*delta_left=*/true);
}

Result<Delta> RelationJoinDelta(const Relation& rel, const Delta& delta,
                                const Expr::Ptr& cond) {
  return JoinDeltaWithRelation(delta, rel, cond, /*delta_left=*/false);
}

std::vector<std::string> EquiProbeAttrs(
    const Expr::Ptr& cond, const std::vector<std::string>& probe_side,
    const std::vector<std::string>& indexed_side) {
  auto has = [](const std::vector<std::string>& v, const std::string& n) {
    return std::find(v.begin(), v.end(), n) != v.end();
  };
  std::vector<std::string> out;
  Expr::Ptr c = cond ? cond : Expr::True();
  for (const auto& clause : ConjunctiveClauses(c)) {
    if (clause->kind() != Expr::Kind::kBinary ||
        clause->bin_op() != BinOp::kEq ||
        clause->left()->kind() != Expr::Kind::kAttr ||
        clause->right()->kind() != Expr::Kind::kAttr) {
      continue;
    }
    const std::string& a = clause->left()->attr_name();
    const std::string& b = clause->right()->attr_name();
    const std::string* indexed = nullptr;
    if (has(probe_side, a) && has(indexed_side, b)) {
      indexed = &b;
    } else if (has(probe_side, b) && has(indexed_side, a)) {
      indexed = &a;
    }
    if (indexed != nullptr && !has(out, *indexed)) out.push_back(*indexed);
  }
  return out;
}

Result<Delta> JoinDeltaWithIndexedTerm(
    const Delta& delta, const KeyIndex& index, const Expr::Ptr& term_select,
    const std::vector<std::string>& term_project, const Expr::Ptr& join_cond,
    bool delta_left) {
  const Relation& repo = index.relation();
  SQ_ASSIGN_OR_RETURN(Schema term_schema, repo.schema().Project(term_project));
  const Schema& ls = delta_left ? delta.schema() : term_schema;
  const Schema& rs = delta_left ? term_schema : delta.schema();
  SQ_ASSIGN_OR_RETURN(Schema out_schema, ls.Concat(rs));
  Expr::Ptr c = join_cond ? join_cond : Expr::True();
  SQ_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(c, out_schema));
  bool trivial = c->IsTrueLiteral();

  JoinConditionParts parts = SplitJoinCondition(c, ls, rs);
  if (parts.equi.empty()) {
    return Status::FailedPrecondition("join has no equi conjunct to probe");
  }
  // The index attr set must equal the term-side equi attr set: probe keys
  // fix every indexed attribute, and every equi conjunct must be enforced
  // by the probe (the residual filter only sees non-equi clauses).
  std::vector<size_t> probe_pos;
  probe_pos.reserve(index.attrs().size());
  for (const auto& indexed_attr : index.attrs()) {
    const std::string* delta_attr = nullptr;
    for (const auto& p : parts.equi) {
      const std::string& term_a = delta_left ? p.right_attr : p.left_attr;
      const std::string& delta_a = delta_left ? p.left_attr : p.right_attr;
      if (term_a == indexed_attr) {
        delta_attr = &delta_a;
        break;
      }
    }
    if (delta_attr == nullptr) {
      return Status::FailedPrecondition(
          "indexed attribute not among the join's equi conjuncts: " +
          indexed_attr);
    }
    probe_pos.push_back(*delta.schema().IndexOf(*delta_attr));
  }
  for (const auto& p : parts.equi) {
    const std::string& term_a = delta_left ? p.right_attr : p.left_attr;
    if (std::find(index.attrs().begin(), index.attrs().end(), term_a) ==
        index.attrs().end()) {
      return Status::FailedPrecondition(
          "equi attribute not covered by the index: " + term_a);
    }
  }

  Expr::Ptr sel = term_select ? term_select : Expr::True();
  bool has_select = !sel->IsTrueLiteral();
  BoundExpr bound_select;
  if (has_select) {
    SQ_ASSIGN_OR_RETURN(bound_select, BoundExpr::Bind(sel, repo.schema()));
  }
  std::vector<size_t> term_pos;
  term_pos.reserve(term_project.size());
  for (const auto& a : term_project) {
    term_pos.push_back(*repo.schema().IndexOf(a));
  }

  Delta out(std::move(out_schema));
  Status st = Status::OK();
  delta.ForEach([&](const Tuple& dt, int64_t dc) {
    if (!st.ok()) return;
    st = index.ForEachMatch(
        dt, probe_pos, [&](const Tuple& rt, int64_t rc) -> Status {
          if (has_select) {
            SQ_ASSIGN_OR_RETURN(bool keep, bound_select.EvalBool(rt));
            if (!keep) return Status::OK();
          }
          Tuple joined = delta_left ? dt.Concat(rt.Project(term_pos))
                                    : rt.Project(term_pos).Concat(dt);
          if (!trivial) {
            SQ_ASSIGN_OR_RETURN(bool keep, bound.EvalBool(joined));
            if (!keep) return Status::OK();
          }
          return out.Add(std::move(joined), dc * rc);
        });
  });
  if (!st.ok()) return st;
  return out;
}

Result<Delta> FilterDeltaToLeafParent(const Delta& source_delta,
                                      const Expr::Ptr& cond,
                                      const std::vector<std::string>& attrs) {
  SQ_ASSIGN_OR_RETURN(Delta selected, DeltaSelect(source_delta, cond));
  return DeltaProject(selected, attrs);
}

Result<Delta> PresenceDelta(const Relation& state_after,
                            const Delta& bag_delta) {
  Delta out(bag_delta.schema());
  Status st = Status::OK();
  bag_delta.ForEach([&](const Tuple& t, int64_t signed_count) {
    if (!st.ok()) return;
    int64_t after = state_after.CountOf(t);
    int64_t before = after - signed_count;
    if (before < 0) {
      st = Status::Internal("presence delta: negative pre-state count for " +
                            t.ToString());
      return;
    }
    if (before == 0 && after > 0) {
      st = out.Add(t, 1);
    } else if (before > 0 && after == 0) {
      st = out.Add(t, -1);
    }
  });
  if (!st.ok()) return st;
  return out;
}

Delta DeltaIntersectRelation(const Delta& delta, const Relation& rel) {
  Delta out(delta.schema());
  delta.ForEach([&](const Tuple& t, int64_t count) {
    if (rel.Contains(t)) (void)out.Add(t, count);
  });
  return out;
}

Delta DeltaMinusRelation(const Delta& delta, const Relation& rel) {
  Delta out(delta.schema());
  delta.ForEach([&](const Tuple& t, int64_t count) {
    if (!rel.Contains(t)) (void)out.Add(t, count);
  });
  return out;
}

}  // namespace squirrel
