#include "mediator/iup.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/strings.h"
#include "delta/delta_algebra.h"
#include "vdp/rules.h"

namespace squirrel {

void IupStats::Merge(const IupStats& other) {
  rules_fired += other.rules_fired;
  atoms_in += other.atoms_in;
  atoms_propagated += other.atoms_propagated;
  nodes_processed += other.nodes_processed;
  polls += other.polls;
  polled_tuples += other.polled_tuples;
  temps_built += other.temps_built;
  poll_retries += other.poll_retries;
}

namespace {

/// How many terms of \p def reference \p child.
size_t PositionsOf(const NodeDef& def, const std::string& child) {
  size_t n = 0;
  for (const auto& t : def.terms()) {
    if (t.child == child) ++n;
  }
  return n;
}

bool ContainsAttr(const std::vector<std::string>& attrs,
                  const std::string& a) {
  return std::find(attrs.begin(), attrs.end(), a) != attrs.end();
}

/// The semi-join restriction on sibling term \p y of the SPJ \p def when
/// term \p x fires with the exactly known delta \p dx: one `b IN π_a(dx)`
/// conjunct per equi join conjunct `a = b` with a in x's projection and b in
/// y's. Sound because Δx ⋈ y = Δx ⋈ σ_{b ∈ π_a Δx}(y); NULL keys never
/// join, so they leave the set. A key with no exact literal (NaN, ±inf)
/// drops that conjunct. True() when no conjunct links the two terms.
Expr::Ptr SemiJoinRestriction(const NodeDef& def, const ChildTerm& x,
                              const ChildTerm& y, const Delta& dx) {
  std::vector<Expr::Ptr> restriction;
  for (const auto& join_cond : def.join_conds()) {
    for (const auto& clause : ConjunctiveClauses(join_cond)) {
      if (clause->kind() != Expr::Kind::kBinary ||
          clause->bin_op() != BinOp::kEq ||
          clause->left()->kind() != Expr::Kind::kAttr ||
          clause->right()->kind() != Expr::Kind::kAttr) {
        continue;
      }
      std::string a = clause->left()->attr_name();
      std::string b = clause->right()->attr_name();
      if (!ContainsAttr(x.project, a) || !ContainsAttr(y.project, b)) {
        std::swap(a, b);
        if (!ContainsAttr(x.project, a) || !ContainsAttr(y.project, b)) {
          continue;
        }
      }
      auto col = dx.schema().IndexOf(a);
      if (!col) continue;
      std::vector<Value> keys;
      bool exact = true;
      dx.ForEach([&](const Tuple& t, int64_t count) {
        (void)count;
        const Value& key = t.at(*col);
        if (key.type() == ValueType::kDouble &&
            !std::isfinite(key.AsDouble())) {
          exact = false;
        } else if (!key.is_null()) {
          keys.push_back(key);
        }
      });
      if (exact) restriction.push_back(Expr::In(b, std::move(keys)));
    }
  }
  return AndAll(restriction);
}

}  // namespace

Result<std::vector<TempRequest>> Iup::PrepareTempRequests(
    const std::map<std::string, Delta>& leaf_deltas) const {
  // Affected set: exact at leaf-parents (filter the actual deltas),
  // conservative above. The filtered delta of a single-term leaf-parent is
  // exactly the delta it will fire — kernel step 1 computes it from the
  // leaf delta alone — so it is kept for the semi-join restriction below.
  std::set<std::string> affected;
  std::map<std::string, Delta> known_deltas;
  for (const auto& [leaf, delta] : leaf_deltas) {
    if (delta.Empty()) continue;
    for (const auto& parent_name : vdp_->Parents(leaf)) {
      SQ_ASSIGN_OR_RETURN(const VdpNode* parent, vdp_->Get(parent_name));
      for (const auto& term : parent->def->terms()) {
        if (term.child != leaf) continue;
        SQ_ASSIGN_OR_RETURN(
            Delta filtered,
            FilterDeltaToLeafParent(delta, term.SelectOrTrue(),
                                    term.project));
        if (!filtered.Empty()) {
          affected.insert(parent_name);
          if (parent->def->kind() == NodeDef::Kind::kSpj &&
              parent->def->terms().size() == 1) {
            known_deltas.emplace(parent_name, std::move(filtered));
          }
          break;
        }
      }
    }
  }
  for (const auto& name : vdp_->TopoOrder()) {
    const VdpNode* node = vdp_->Find(name);
    if (node->is_leaf || affected.count(name)) continue;
    for (const auto& child : node->def->Children()) {
      if (affected.count(child)) {
        affected.insert(name);
        break;
      }
    }
  }

  // For every affected parent p and affected child x, the kernel will fire
  // rules from x into p; those firings read the states of:
  //  - every term over a different child,
  //  - terms over x itself when p is a difference node (presence deltas) or
  //    x occurs at several positions (self-joins).
  // A sibling read by an SPJ firing whose delta is known is restricted to
  // the rows that can join it. x's own terms never are: the kernel adds Δx
  // to a new-state occurrence of x, and a delete atom outside a key set
  // would drive that strict apply negative.
  std::vector<TempRequest> requests;
  for (const auto& parent_name : affected) {
    const VdpNode* parent = vdp_->Find(parent_name);
    if (parent->is_leaf) continue;
    const NodeDef& def = *parent->def;
    for (const auto& child : def.Children()) {
      bool child_affected =
          affected.count(child) > 0 || leaf_deltas.count(child) > 0;
      if (!child_affected) continue;
      const size_t positions = PositionsOf(def, child);
      bool self_needed = def.kind() == NodeDef::Kind::kDiff || positions > 1;
      const Delta* known = nullptr;
      const ChildTerm* firing_term = nullptr;
      auto kit = known_deltas.find(child);
      if (kit != known_deltas.end() && def.kind() == NodeDef::Kind::kSpj &&
          positions == 1) {
        known = &kit->second;
        for (const auto& term : def.terms()) {
          if (term.child == child) firing_term = &term;
        }
      }
      for (const auto& term : def.terms()) {
        bool needed = term.child != child || self_needed;
        if (!needed) continue;
        const VdpNode* term_child = vdp_->Find(term.child);
        if (term_child->is_leaf) continue;  // leaf states are never read
        auto attrs = term.NeededAttrs();
        if (vap_->RepoCovers(term.child, attrs)) continue;
        TempRequest req;
        req.node = term.child;
        req.attrs = attrs;
        req.cond = term.SelectOrTrue();
        if (known != nullptr && term.child != child) {
          req.cond = Expr::And(
              req.cond, SemiJoinRestriction(def, *firing_term, term, *known));
        }
        requests.push_back(std::move(req));
      }
    }
  }
  // Dedup: a child read by several affected parents (or several terms with
  // the same select) produces identical requests; dropping them here keeps
  // Vap::Plan from OR-merging a condition with itself and re-expanding the
  // same subtree per duplicate.
  std::set<std::string> seen;
  std::vector<TempRequest> deduped;
  deduped.reserve(requests.size());
  for (auto& req : requests) {
    if (seen.insert(req.ToString()).second) deduped.push_back(std::move(req));
  }
  return deduped;
}

Result<IupStats> Iup::RunKernel(
    const std::map<std::string, Delta>& leaf_deltas, TempStore* temps) {
  NodeStateFn states =
      [this, temps](const std::string& node,
                    const std::vector<std::string>& attrs)
      -> Result<std::shared_ptr<const Relation>> {
    if (vap_->RepoCovers(node, attrs)) {
      SQ_ASSIGN_OR_RETURN(const Relation* repo, store_->Repo(node));
      // Non-owning alias; the store outlives the kernel run.
      return std::shared_ptr<const Relation>(std::shared_ptr<void>(), repo);
    }
    if (temps != nullptr && temps->Covers(node, attrs)) {
      return std::shared_ptr<const Relation>(std::shared_ptr<void>(),
                                             &temps->Find(node)->data);
    }
    return Status::Internal(
        "IUP kernel: no repository or temporary for node " + node +
        " covering [" + Join(attrs, ",") + "]");
  };

  // Serve the store's persistent indexes to the rule-firing machinery. Only
  // repository-backed state may be probed through an index (temps have no
  // persistent indexes), and FireSpj itself refuses indexed access to
  // new-state self-join occurrences, where the repository is stale.
  IndexProbeFn probes = [this](const std::string& node,
                                const std::vector<std::string>& attrs) {
    return store_->Index(node, attrs);
  };

  IupStats stats;

  // Pending deltas (the ΔR repositories of §6.4).
  std::map<std::string, Delta> pending;

  // Initialization (step 1): fire all rules out of the changed leaves.
  for (const auto& [leaf, delta] : leaf_deltas) {
    if (delta.Empty()) continue;
    stats.atoms_in += delta.AtomCount();
    SQ_ASSIGN_OR_RETURN(const VdpNode* leaf_node, vdp_->Get(leaf));
    if (!leaf_node->is_leaf) {
      return Status::InvalidArgument("leaf delta for non-leaf node " + leaf);
    }
    for (const auto& parent_name : vdp_->Parents(leaf)) {
      SQ_ASSIGN_OR_RETURN(const VdpNode* parent, vdp_->Get(parent_name));
      SQ_ASSIGN_OR_RETURN(Delta contribution,
                          FireEdgeRules(*parent, leaf, delta, states, probes));
      ++stats.rules_fired;
      stats.atoms_propagated += contribution.AtomCount();
      auto [it, inserted] =
          pending.try_emplace(parent_name, Delta(parent->schema));
      (void)inserted;
      SQ_RETURN_IF_ERROR(it->second.SmashInPlace(contribution));
    }
  }

  // Upward traversal (step 2): process non-leaf nodes children-first.
  for (const auto& name : vdp_->TopoOrder()) {
    const VdpNode* node = vdp_->Find(name);
    if (node->is_leaf) continue;
    auto pit = pending.find(name);
    if (pit == pending.end() || pit->second.Empty()) continue;
    const Delta& delta = pit->second;

    // Fire all rules out of this node before applying its delta.
    for (const auto& parent_name : vdp_->Parents(name)) {
      const VdpNode* parent = vdp_->Find(parent_name);
      SQ_ASSIGN_OR_RETURN(Delta contribution,
                          FireEdgeRules(*parent, name, delta, states, probes));
      ++stats.rules_fired;
      stats.atoms_propagated += contribution.AtomCount();
      auto [it, inserted] =
          pending.try_emplace(parent_name, Delta(parent->schema));
      (void)inserted;
      SQ_RETURN_IF_ERROR(it->second.SmashInPlace(contribution));
    }

    // Process the node: apply the delta to repository and temporary.
    if (store_->HasRepo(name)) {
      SQ_RETURN_IF_ERROR(store_->ApplyNodeDelta(name, delta));
    }
    if (temps != nullptr) {
      SQ_RETURN_IF_ERROR(temps->ApplyNodeDelta(name, delta));
    }
    ++stats.nodes_processed;
    pending.erase(pit);  // ΔR := ∅
  }
  return stats;
}

Result<IupStats> Iup::ProcessBatch(
    const std::map<std::string, Delta>& leaf_deltas, const VapPlan& plan,
    const Vap::PollFn& poll, const Vap::CompensationFn& comp) {
  SQ_ASSIGN_OR_RETURN(TempStore temps, vap_->Execute(plan, poll, comp));
  SQ_ASSIGN_OR_RETURN(IupStats stats, RunKernel(leaf_deltas, &temps));
  stats.polls = temps.polls;
  stats.polled_tuples = temps.polled_tuples;
  stats.temps_built = temps.Count();
  return stats;
}

}  // namespace squirrel
