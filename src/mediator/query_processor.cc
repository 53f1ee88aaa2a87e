#include "mediator/query_processor.h"

#include <set>

#include "common/cancel.h"
#include "common/strings.h"
#include "relational/operators.h"

namespace squirrel {

namespace {

std::vector<std::string> NeededAttrs(const Schema& schema,
                                     const ViewQuery& q) {
  std::set<std::string> needed(q.attrs.begin(), q.attrs.end());
  if (q.cond) q.cond->CollectAttrs(&needed);
  std::vector<std::string> out;
  for (const auto& a : schema.attrs()) {
    if (needed.count(a.name)) out.push_back(a.name);
  }
  return out;
}

}  // namespace

Result<ViewQuery> QueryProcessor::Normalize(const ViewQuery& q) const {
  SQ_ASSIGN_OR_RETURN(const VdpNode* node, vdp_->Get(q.relation));
  if (!node->exported) {
    return Status::InvalidArgument("relation " + q.relation +
                                   " is not an export relation of the view");
  }
  ViewQuery out = q;
  if (out.attrs.empty()) out.attrs = node->schema.AttributeNames();
  for (const auto& a : out.attrs) {
    if (!node->schema.Contains(a)) {
      return Status::NotFound("query attribute " + a + " not in " +
                              q.relation);
    }
  }
  if (out.cond) {
    for (const auto& a : out.cond->ReferencedAttrs()) {
      if (!node->schema.Contains(a)) {
        return Status::NotFound("query condition attribute " + a +
                                " not in " + q.relation);
      }
    }
  } else {
    out.cond = Expr::True();
  }
  return out;
}

Result<PreparedQuery> QueryProcessor::Prepare(const ViewQuery& raw) const {
  PreparedQuery out;
  SQ_ASSIGN_OR_RETURN(out.query, Normalize(raw));
  SQ_ASSIGN_OR_RETURN(const VdpNode* node, vdp_->Get(out.query.relation));
  out.needed = NeededAttrs(node->schema, out.query);
  return out;
}

Result<std::optional<VapPlan>> QueryProcessor::PlanFor(
    const PreparedQuery& q) const {
  if (vap_->RepoCovers(q.query.relation, q.needed)) {
    return std::optional<VapPlan>();
  }
  TempRequest req;
  req.node = q.query.relation;
  req.attrs = q.needed;
  req.cond = q.query.cond;
  SQ_ASSIGN_OR_RETURN(VapPlan plan, vap_->Plan({req}));
  return std::optional<VapPlan>(std::move(plan));
}

Result<QueryProcessor::LocalAnswer> QueryProcessor::AnswerFromRepo(
    const PreparedQuery& q, const StoreSnapshot* snap) const {
  SQ_RETURN_IF_ERROR(CheckCancel());
  SQ_ASSIGN_OR_RETURN(const Relation* repo,
                      snap != nullptr ? snap->Repo(q.query.relation)
                                      : store_->Repo(q.query.relation));
  SQ_ASSIGN_OR_RETURN(Relation selected, OpSelect(*repo, q.query.cond));
  SQ_ASSIGN_OR_RETURN(Relation projected,
                      OpProject(selected, q.query.attrs, Semantics::kBag));
  LocalAnswer out;
  out.data = projected.ToSet();
  return out;
}

Result<QueryProcessor::LocalAnswer> QueryProcessor::Answer(
    const PreparedQuery& q, const Vap::PollFn& poll,
    const Vap::CompensationFn& comp, const StoreSnapshot* snap) const {
  SQ_ASSIGN_OR_RETURN(std::optional<VapPlan> plan, PlanFor(q));
  if (!plan.has_value()) return AnswerFromRepo(q, snap);
  SQ_ASSIGN_OR_RETURN(TempStore temps, vap_->Execute(*plan, poll, comp, snap));
  SQ_ASSIGN_OR_RETURN(LocalAnswer out, AnswerWithTemps(q, temps, snap));
  out.polls = temps.polls;
  out.polled_tuples = temps.polled_tuples;
  return out;
}

Result<QueryProcessor::LocalAnswer> QueryProcessor::AnswerWithTemps(
    const PreparedQuery& q, const TempStore& temps,
    const StoreSnapshot* snap) const {
  // Phase boundary: a query cancelled during VAP assembly must not start
  // the final select/project pass. (AnswerDegraded deliberately does NOT
  // check — it serves cancelled queries their materialized fraction.)
  SQ_RETURN_IF_ERROR(CheckCancel());
  if (vap_->RepoCovers(q.query.relation, q.needed)) {
    return AnswerFromRepo(q, snap);
  }
  const TempStore::Entry* entry = temps.Find(q.query.relation);
  if (entry == nullptr || !temps.Covers(q.query.relation, q.needed)) {
    return Status::Internal("no temporary for query " + q.query.ToString());
  }
  // The temp is π_needed σ_cond(relation): project and re-select (the
  // temp's condition may be an OR-merge wider than this query's).
  SQ_ASSIGN_OR_RETURN(Relation selected, OpSelect(entry->data, q.query.cond));
  SQ_ASSIGN_OR_RETURN(Relation projected,
                      OpProject(selected, q.query.attrs, Semantics::kBag));
  LocalAnswer out;
  out.data = projected.ToSet();
  out.used_virtual = true;
  return out;
}

Result<QueryProcessor::LocalAnswer> QueryProcessor::AnswerDegraded(
    const PreparedQuery& q) const {
  const std::string& node = q.query.relation;
  if (!store_->HasRepo(node)) {
    return Status::Unavailable("degraded read impossible: " + node +
                               " materializes nothing");
  }
  std::set<std::string> mat;
  for (const auto& a : ann_->MaterializedAttrs(*vdp_, node)) mat.insert(a);
  LocalAnswer out;
  out.degraded = true;
  std::vector<std::string> avail;
  for (const auto& a : q.query.attrs) {
    if (mat.count(a)) {
      avail.push_back(a);
    } else {
      out.missing_attrs.push_back(a);
    }
  }
  if (avail.empty()) {
    return Status::Unavailable("degraded read impossible: none of [" +
                               Join(q.query.attrs, ", ") + "] of " + node +
                               " is materialized");
  }
  Expr::Ptr cond = q.query.cond;
  if (cond) {
    for (const auto& a : cond->ReferencedAttrs()) {
      if (!mat.count(a)) {
        cond = Expr::True();
        out.cond_dropped = true;
        break;
      }
    }
  }
  SQ_ASSIGN_OR_RETURN(const Relation* repo, store_->Repo(node));
  SQ_ASSIGN_OR_RETURN(Relation selected, OpSelect(*repo, cond));
  SQ_ASSIGN_OR_RETURN(Relation projected,
                      OpProject(selected, avail, Semantics::kBag));
  out.data = projected.ToSet();
  return out;
}

}  // namespace squirrel
