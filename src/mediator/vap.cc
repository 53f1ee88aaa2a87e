#include "mediator/vap.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "common/cancel.h"
#include "common/strings.h"
#include "delta/delta_algebra.h"
#include "relational/index.h"
#include "relational/operators.h"
#include "vdp/rules.h"

namespace squirrel {

namespace {

/// Orders \p attrs by their position in \p schema (deterministic request
/// normal form).
std::vector<std::string> NormalizeAttrs(const Schema& schema,
                                        const std::set<std::string>& attrs) {
  std::vector<std::string> out;
  for (const auto& a : schema.attrs()) {
    if (attrs.count(a.name)) out.push_back(a.name);
  }
  return out;
}

/// Clauses of \p cond whose attributes are all within \p visible.
Expr::Ptr PushableClauses(const Expr::Ptr& cond,
                          const std::vector<std::string>& visible) {
  if (!cond || cond->IsTrueLiteral()) return Expr::True();
  std::vector<Expr::Ptr> pushed;
  for (const auto& clause : ConjunctiveClauses(cond)) {
    bool ok = true;
    for (const auto& a : clause->ReferencedAttrs()) {
      if (std::find(visible.begin(), visible.end(), a) == visible.end()) {
        ok = false;
        break;
      }
    }
    if (ok) pushed.push_back(clause);
  }
  return AndAll(pushed);
}

std::set<std::string> AttrsOf(const Expr::Ptr& e) {
  std::set<std::string> out;
  if (e) e->CollectAttrs(&out);
  return out;
}

bool ContainsAttr(const std::vector<std::string>& attrs,
                  const std::string& a) {
  return std::find(attrs.begin(), attrs.end(), a) != attrs.end();
}

/// \p e with every subtree found (by identity) in \p bound replaced by its
/// mapped expression; untouched subtrees are shared, not copied.
Expr::Ptr Substitute(const Expr::Ptr& e,
                     const std::map<const Expr*, Expr::Ptr>& bound) {
  if (!e) return e;
  if (auto it = bound.find(e.get()); it != bound.end()) return it->second;
  if (e->kind() == Expr::Kind::kUnary) {
    Expr::Ptr child = Substitute(e->left(), bound);
    return child == e->left() ? e : Expr::Unary(e->un_op(), child);
  }
  if (e->kind() != Expr::Kind::kBinary) return e;
  Expr::Ptr l = Substitute(e->left(), bound);
  Expr::Ptr r = Substitute(e->right(), bound);
  if (l == e->left() && r == e->right()) return e;
  switch (e->bin_op()) {
    case BinOp::kAnd:
      return Expr::And(l, r);
    case BinOp::kOr:
      return Expr::Or(l, r);
    default:
      return Expr::Binary(e->bin_op(), l, r);
  }
}

/// The attribute and values an `attr = const`, `const = attr` or `attr IN`
/// clause looks up, or nullopt for any other clause. An equality with NaN
/// holds for every number (Value order), which no lookup finds.
std::optional<std::pair<std::string, std::vector<Value>>> Lookup(
    const Expr& clause) {
  if (clause.kind() == Expr::Kind::kIn) {
    return std::make_pair(clause.attr_name(), clause.in_list()->values());
  }
  if (clause.kind() != Expr::Kind::kBinary || clause.bin_op() != BinOp::kEq) {
    return std::nullopt;
  }
  const Expr* attr = clause.left().get();
  const Expr* value = clause.right().get();
  if (attr->kind() != Expr::Kind::kAttr) std::swap(attr, value);
  if (attr->kind() != Expr::Kind::kAttr ||
      value->kind() != Expr::Kind::kConst) {
    return std::nullopt;
  }
  const Value& v = value->value();
  if (v.type() == ValueType::kDouble && std::isnan(v.AsDouble())) {
    return std::nullopt;
  }
  return std::make_pair(attr->attr_name(), std::vector<Value>{v});
}

/// `attr IN` the values of \p attr in \p rows, or True when one of them is
/// NULL or a non-finite double: no IN member matches those, but the key
/// join does (KeyIndex equality), so the child must stay unrestricted.
Result<Expr::Ptr> KeySet(const Relation& rows, const std::string& attr) {
  auto col = rows.schema().IndexOf(attr);
  if (!col) {
    return Status::Internal("key set: " + attr + " is not materialized");
  }
  std::vector<Value> keys;
  keys.reserve(rows.DistinctSize());
  bool exact = true;
  rows.ForEach([&](const Tuple& t, int64_t count) {
    (void)count;
    const Value& key = t.at(*col);
    if (key.is_null() || (key.type() == ValueType::kDouble &&
                          !std::isfinite(key.AsDouble()))) {
      exact = false;
    } else {
      keys.push_back(key);
    }
  });
  if (!exact) return Expr::True();
  return Expr::In(attr, std::move(keys));
}

}  // namespace

std::string TempRequest::ToString() const {
  std::string out = "(" + node + ", [" + Join(attrs, ",") + "]";
  if (cond && !cond->IsTrueLiteral()) out += ", " + cond->ToString();
  out += ")";
  return out;
}

void TempStore::Put(const std::string& node, Entry entry) {
  entries_[node] = std::move(entry);
}

const TempStore::Entry* TempStore::Find(const std::string& node) const {
  auto it = entries_.find(node);
  return it == entries_.end() ? nullptr : &it->second;
}

bool TempStore::Covers(const std::string& node,
                       const std::vector<std::string>& attrs) const {
  const Entry* e = Find(node);
  if (e == nullptr) return false;
  return std::all_of(attrs.begin(), attrs.end(), [&](const std::string& a) {
    return ContainsAttr(e->attrs, a);
  });
}

Status TempStore::ApplyNodeDelta(const std::string& node,
                                 const Delta& full_delta) {
  auto it = entries_.find(node);
  if (it == entries_.end()) return Status::OK();
  Entry& e = it->second;
  SQ_ASSIGN_OR_RETURN(
      Delta filtered,
      FilterDeltaToLeafParent(full_delta, e.cond ? e.cond : Expr::True(),
                              e.attrs));
  return ApplyDelta(&e.data, filtered);
}

size_t TempStore::ApproxBytes() const {
  size_t total = 0;
  for (const auto& [name, e] : entries_) {
    (void)name;
    total += e.data.ApproxBytes();
  }
  return total;
}

std::vector<std::string> VapPlan::PolledSources() const {
  std::vector<std::string> out;
  for (const auto& p : polls) {
    if (std::find(out.begin(), out.end(), p.source) == out.end()) {
      out.push_back(p.source);
    }
  }
  return out;
}

bool Vap::RepoCovers(const std::string& node,
                     const std::vector<std::string>& attrs) const {
  if (!store_->HasRepo(node)) return false;
  auto mat = ann_->MaterializedAttrs(*vdp_, node);
  return std::all_of(attrs.begin(), attrs.end(), [&](const std::string& a) {
    return ContainsAttr(mat, a);
  });
}

Result<KeyBasedChoice> Vap::TryKeyBased(const VdpNode& node,
                                        const TempRequest& req) const {
  if (node.is_leaf || !node.def ||
      node.def->kind() != NodeDef::Kind::kSpj ||
      node.def->terms().size() < 2) {
    return Status::Unsupported("key-based: node is not a multi-term SPJ");
  }
  if (!store_->HasRepo(node.name)) {
    return Status::Unsupported("key-based: node has no repository");
  }
  auto mat = ann_->MaterializedAttrs(*vdp_, node.name);
  const std::set<std::string> cond_attrs = AttrsOf(req.cond);
  std::set<std::string> needed(req.attrs.begin(), req.attrs.end());
  needed.insert(cond_attrs.begin(), cond_attrs.end());
  // Group the virtual attributes by the term whose child supplies them.
  std::vector<std::pair<const ChildTerm*, std::set<std::string>>> groups;
  std::set<std::string> own;
  for (const auto& a : needed) {
    if (ContainsAttr(mat, a)) {
      own.insert(a);
      continue;
    }
    const ChildTerm* term = KeyBasedSupplier(*vdp_, node, mat, a);
    if (term == nullptr) {
      return Status::Unsupported("key-based: no child supplies " + a +
                                 " with a key materialized in " + node.name);
    }
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return g.first->child == term->child;
    });
    if (it == groups.end()) {
      groups.emplace_back(term, std::set<std::string>());
      it = std::prev(groups.end());
    }
    it->second.insert(a);
  }
  if (groups.empty()) {
    return Status::Unsupported("key-based: nothing virtual requested");
  }

  KeyBasedChoice choice;
  for (const auto& [term, virt] : groups) {
    SQ_ASSIGN_OR_RETURN(const VdpNode* child, vdp_->Get(term->child));
    KeyBasedChoice::Group group;
    group.child = term->child;
    group.key = child->schema.key();
    std::set<std::string> child_attrs(group.key.begin(), group.key.end());
    child_attrs.insert(virt.begin(), virt.end());
    // The term's attributes the request condition reads, so that clauses
    // on them are pushed into the child request.
    for (const auto& a : cond_attrs) {
      if (ContainsAttr(term->project, a)) child_attrs.insert(a);
    }
    group.child_attrs = NormalizeAttrs(child->schema, child_attrs);
    own.insert(group.key.begin(), group.key.end());
    choice.groups.push_back(std::move(group));
  }
  choice.own_attrs = NormalizeAttrs(node.schema, own);
  choice.own_cond = PushableClauses(req.cond, mat);
  return choice;
}

Result<std::vector<TempRequest>> Vap::DerivedFrom(
    const VdpNode& node, const TempRequest& req) const {
  if (!node.def) {
    return Status::InvalidArgument("derived_from on leaf node " + node.name);
  }
  const NodeDef& def = *node.def;
  std::vector<TempRequest> out;

  if (def.kind() == NodeDef::Kind::kSpj) {
    std::set<std::string> cond_attrs = AttrsOf(req.cond);
    std::set<std::string> outer_attrs = AttrsOf(def.outer_select());
    std::set<std::string> join_attrs;
    for (const auto& jc : def.join_conds()) {
      for (const auto& a : AttrsOf(jc)) join_attrs.insert(a);
    }
    for (const auto& term : def.terms()) {
      SQ_ASSIGN_OR_RETURN(const VdpNode* child, vdp_->Get(term.child));
      std::set<std::string> b;
      for (const auto& a : req.attrs) {
        if (ContainsAttr(term.project, a)) b.insert(a);
      }
      for (const auto& a : join_attrs) {
        if (ContainsAttr(term.project, a)) b.insert(a);
      }
      for (const auto& a : outer_attrs) {
        if (ContainsAttr(term.project, a)) b.insert(a);
      }
      for (const auto& a : cond_attrs) {
        if (ContainsAttr(term.project, a)) b.insert(a);
      }
      for (const auto& a : AttrsOf(term.select)) b.insert(a);
      if (b.empty() && !term.project.empty()) {
        // The term still contributes join multiplicity; keep one attribute.
        b.insert(term.project[0]);
      }
      TempRequest child_req;
      child_req.node = term.child;
      child_req.attrs = NormalizeAttrs(child->schema, b);
      child_req.cond = Expr::And(term.SelectOrTrue(),
                                 PushableClauses(req.cond, term.project));
      out.push_back(std::move(child_req));
    }
    return out;
  }

  // Union / difference: terms project identical attribute lists C.
  for (const auto& term : def.terms()) {
    SQ_ASSIGN_OR_RETURN(const VdpNode* child, vdp_->Get(term.child));
    std::set<std::string> b;
    if (def.kind() == NodeDef::Kind::kDiff) {
      // Difference compares whole tuples: need all of C (paper case (4)).
      b.insert(term.project.begin(), term.project.end());
    } else {
      b.insert(req.attrs.begin(), req.attrs.end());
    }
    for (const auto& a : AttrsOf(req.cond)) b.insert(a);
    for (const auto& a : AttrsOf(term.select)) b.insert(a);
    TempRequest child_req;
    child_req.node = term.child;
    child_req.attrs = NormalizeAttrs(child->schema, b);
    // σ_f distributes over ∪ and − (both sides), so the request condition is
    // pushable in full; term.select composes with it.
    child_req.cond = Expr::And(term.SelectOrTrue(),
                               PushableClauses(req.cond, term.project));
    out.push_back(std::move(child_req));
  }
  return out;
}

Result<VapPlan> Vap::Plan(const std::vector<TempRequest>& input) const {
  // Most update transactions of a materialized view request nothing.
  if (input.empty()) return VapPlan{};
  // Topological index per node (children-first order in the VDP).
  std::map<std::string, size_t> topo_index;
  for (size_t i = 0; i < vdp_->TopoOrder().size(); ++i) {
    topo_index[vdp_->TopoOrder()[i]] = i;
  }

  // Pending requests keyed by topo index; processed highest (parents) first.
  std::map<size_t, TempRequest> pending;
  auto merge_into_pending = [&](TempRequest req) -> Status {
    SQ_ASSIGN_OR_RETURN(const VdpNode* node, vdp_->Get(req.node));
    // Normalize: cond attrs must be covered by attrs.
    std::set<std::string> attrs(req.attrs.begin(), req.attrs.end());
    for (const auto& a : AttrsOf(req.cond)) attrs.insert(a);
    req.attrs = NormalizeAttrs(node->schema, attrs);
    if (!req.cond) req.cond = Expr::True();
    size_t idx = topo_index.at(req.node);
    auto it = pending.find(idx);
    if (it == pending.end()) {
      pending.emplace(idx, std::move(req));
      return Status::OK();
    }
    // Merge: union attrs, OR conditions (paper step 2b).
    std::set<std::string> merged(it->second.attrs.begin(),
                                 it->second.attrs.end());
    merged.insert(req.attrs.begin(), req.attrs.end());
    it->second.attrs = NormalizeAttrs(node->schema, merged);
    it->second.cond = Expr::Or(it->second.cond, req.cond);
    return Status::OK();
  };

  for (const auto& req : input) {
    SQ_RETURN_IF_ERROR(merge_into_pending(req));
  }

  VapPlan plan;
  std::vector<TempRequest> processed;          // parents-first
  std::vector<int> processed_key_based;        // index into kb_choices or -1
  std::vector<KeyBasedChoice> kb_choices;

  while (!pending.empty()) {
    auto it = std::prev(pending.end());  // highest topo index = parent-most
    TempRequest req = std::move(it->second);
    pending.erase(it);
    SQ_ASSIGN_OR_RETURN(const VdpNode* node, vdp_->Get(req.node));

    if (node->is_leaf) {
      processed.push_back(std::move(req));
      processed_key_based.push_back(-1);
      continue;
    }
    if (RepoCovers(req.node, req.attrs)) {
      continue;  // served by the repository; no temp needed
    }

    int kb_index = -1;
    std::vector<TempRequest> children;
    if (strategy_ != VapStrategy::kChildBased) {
      auto kb = TryKeyBased(*node, req);
      if (kb.ok()) {
        const bool keyed = !kb->own_cond->IsTrueLiteral();
        bool use_kb = true;
        if (strategy_ == VapStrategy::kAuto) {
          // Benefit test: each construction needs a temp for every child
          // its repo does not cover. Key-based wins with fewer, and on a
          // tie when key sets restrict each of its temps to the selected
          // rows' keys.
          SQ_ASSIGN_OR_RETURN(std::vector<TempRequest> cb,
                              DerivedFrom(*node, req));
          size_t cb_cost = 0;
          for (const auto& c : cb) {
            if (!RepoCovers(c.node, c.attrs)) ++cb_cost;
          }
          size_t kb_cost = 0;
          for (const auto& g : kb->groups) {
            if (!RepoCovers(g.child, g.child_attrs)) ++kb_cost;
          }
          use_kb = kb_cost < cb_cost || (kb_cost == cb_cost && keyed);
        }
        if (use_kb) {
          for (auto& g : kb->groups) {
            if (RepoCovers(g.child, g.child_attrs)) continue;
            TempRequest child_req;
            child_req.node = g.child;
            child_req.attrs = g.child_attrs;
            child_req.cond = PushableClauses(req.cond, g.child_attrs);
            // Without a selection on the own part, the key set would be
            // every key of the node: no restriction worth its IN list.
            if (keyed) {
              for (const auto& k : g.key) {
                g.key_sets.push_back(Expr::In(k, {}));
                child_req.cond = Expr::And(child_req.cond, g.key_sets.back());
              }
              plan.bound = false;
            }
            children.push_back(std::move(child_req));
          }
          kb_choices.push_back(std::move(kb).value());
          kb_index = static_cast<int>(kb_choices.size()) - 1;
        }
      }
    }
    if (kb_index < 0) {
      SQ_ASSIGN_OR_RETURN(children, DerivedFrom(*node, req));
    }
    for (auto& c : children) {
      if (RepoCovers(c.node, c.attrs)) continue;
      SQ_RETURN_IF_ERROR(merge_into_pending(std::move(c)));
    }
    processed.push_back(std::move(req));
    processed_key_based.push_back(kb_index);
  }

  // Build order: children first.
  for (size_t i = processed.size(); i-- > 0;) {
    size_t out_idx = plan.build_order.size();
    const TempRequest& req = processed[i];
    const VdpNode* node = vdp_->Find(req.node);
    if (node->is_leaf) {
      VapPlan::LeafPoll poll;
      poll.request_index = out_idx;
      poll.source = node->source_db;
      poll.leaf_node = node->name;
      poll.spec.relation = node->source_relation;
      poll.spec.attrs = req.attrs;
      poll.spec.cond = req.cond;
      plan.polls.push_back(std::move(poll));
    } else if (processed_key_based[i] >= 0) {
      plan.key_based[out_idx] = kb_choices[processed_key_based[i]];
    }
    plan.build_order.push_back(req);
  }
  return plan;
}

Result<const Relation*> Vap::RepoAt(const std::string& node,
                                    const StoreSnapshot* snap) const {
  if (snap != nullptr) return snap->Repo(node);
  return store_->Repo(node);
}

Result<Relation> Vap::SelectRepo(const std::string& node,
                                 const Expr::Ptr& cond,
                                 const StoreSnapshot* snap) const {
  SQ_ASSIGN_OR_RETURN(const Relation* repo, RepoAt(node, snap));
  // A lookup clause on an indexed attribute narrows the scan to the rows
  // the index holds for its values. An equality would miss NaN keys, which
  // Value order makes equal to every number, so it scans while any exist.
  // Snapshot reads bypass the indexes, which track the live repositories.
  if (snap == nullptr) {
    for (const auto& clause : ConjunctiveClauses(cond)) {
      auto lookup = Lookup(*clause);
      if (!lookup) continue;
      const KeyIndex* index = store_->Index(node, {lookup->first});
      if (index == nullptr ||
          (clause->kind() != Expr::Kind::kIn && index->HasNanKey())) {
        continue;
      }
      return SelectByKeys(*index, lookup->second, cond,
                          repo->schema().AttributeNames());
    }
  }
  return OpSelect(*repo, cond);
}

Result<std::shared_ptr<const Relation>> Vap::ChildState(
    const std::string& child, const std::vector<std::string>& attrs,
    const TempStore& temps, const StoreSnapshot* snap) const {
  // Non-owning aliases: the store (or pinned snapshot) and the temp store
  // both outlive the assembly that consumes the handle.
  if (RepoCovers(child, attrs)) {
    SQ_ASSIGN_OR_RETURN(const Relation* repo, RepoAt(child, snap));
    return std::shared_ptr<const Relation>(std::shared_ptr<void>(), repo);
  }
  const TempStore::Entry* e = temps.Find(child);
  if (e == nullptr || !temps.Covers(child, attrs)) {
    return Status::Internal("VAP: no state for node " + child +
                            " covering [" + Join(attrs, ",") +
                            "] (planning bug)");
  }
  return std::shared_ptr<const Relation>(std::shared_ptr<void>(), &e->data);
}

Result<Relation> Vap::JoinGroup(const Relation& own,
                                const KeyBasedChoice::Group& group,
                                const TempStore& temps,
                                const StoreSnapshot* snap) const {
  // Join own x child on the key, dropping the child's duplicate key cols.
  // The probe key follows the index's attribute order (which may differ
  // from group.key for a persistent index found by attr *set*).
  auto probe_join = [&](const KeyIndex& index) -> Result<Relation> {
    const Schema& probed_schema = index.relation().schema();
    std::vector<size_t> own_key_pos;
    for (const auto& k : index.attrs()) {
      own_key_pos.push_back(*own.schema().IndexOf(k));
    }
    // Child attrs not already in `own`, by position in probed_schema.
    std::vector<size_t> extra_pos;
    for (const auto& a : group.child_attrs) {
      if (!own.schema().Contains(a)) {
        extra_pos.push_back(*probed_schema.IndexOf(a));
      }
    }
    std::vector<Attribute> out_attrs = own.schema().attrs();
    for (size_t p : extra_pos) out_attrs.push_back(probed_schema.attrs()[p]);
    Relation joined(Schema(std::move(out_attrs)), Semantics::kBag);
    Status st = Status::OK();
    own.ForEach([&](const Tuple& t, int64_t count) {
      if (!st.ok()) return;
      st = index.ForEachMatch(
          t, own_key_pos, [&](const Tuple& ct, int64_t cc) {
            Tuple row = t;
            for (size_t p : extra_pos) row.Append(ct.at(p));
            return joined.Insert(std::move(row), count * cc);
          });
    });
    if (!st.ok()) return st;
    return joined;
  };
  // Child part: prefer the store's persistent (child, key) index over
  // projecting the child state and indexing the projection. The persistent
  // index covers full repository tuples; probing it and summing per-tuple
  // counts is equivalent to probing the bag projection, because repository
  // tuples that agree on the projected attrs produce identical rows whose
  // counts Relation::Insert accumulates.
  // Snapshot reads bypass the persistent indexes: they track the LIVE
  // repositories, which may already have moved past this snapshot.
  if (snap == nullptr && RepoCovers(group.child, group.child_attrs)) {
    if (const KeyIndex* index = store_->Index(group.child, group.key)) {
      return probe_join(*index);
    }
  }
  SQ_ASSIGN_OR_RETURN(
      std::shared_ptr<const Relation> child,
      ChildState(group.child, group.child_attrs, temps, snap));
  SQ_ASSIGN_OR_RETURN(Relation child_proj,
                      OpProject(*child, group.child_attrs, Semantics::kBag));
  SQ_ASSIGN_OR_RETURN(KeyIndex index, KeyIndex::Build(child_proj, group.key));
  return probe_join(index);
}

Result<Relation> Vap::Assemble(const TempRequest& req, const TempStore& temps,
                               const KeyBasedChoice* key_based,
                               const StoreSnapshot* snap) const {
  SQ_ASSIGN_OR_RETURN(const VdpNode* node, vdp_->Get(req.node));
  const NodeDef& def = *node->def;
  Expr::Ptr req_cond = req.cond ? req.cond : Expr::True();

  if (key_based != nullptr) {
    // Own materialized part, selected by c before projecting: Bind kept it
    // when it read the key sets from it.
    const Relation* own_rows = key_based->own.get();
    Relation selected_own;
    if (own_rows == nullptr && key_based->own_cond->IsTrueLiteral()) {
      SQ_ASSIGN_OR_RETURN(own_rows, RepoAt(req.node, snap));
    } else if (own_rows == nullptr) {
      SQ_ASSIGN_OR_RETURN(selected_own,
                          SelectRepo(req.node, key_based->own_cond, snap));
      own_rows = &selected_own;
    }
    SQ_ASSIGN_OR_RETURN(
        Relation own,
        OpProject(*own_rows, key_based->own_attrs, Semantics::kBag));
    for (const auto& group : key_based->groups) {
      SQ_ASSIGN_OR_RETURN(own, JoinGroup(own, group, temps, snap));
    }
    SQ_ASSIGN_OR_RETURN(Relation selected, OpSelect(own, req_cond));
    return OpProject(selected, req.attrs, Semantics::kBag);
  }

  // Child-based assembly per def kind.
  if (def.kind() == NodeDef::Kind::kSpj) {
    std::set<std::string> cond_attrs = AttrsOf(req_cond);
    std::set<std::string> outer_attrs = AttrsOf(def.outer_select());
    std::set<std::string> join_attrs;
    for (const auto& jc : def.join_conds()) {
      for (const auto& a : AttrsOf(jc)) join_attrs.insert(a);
    }
    std::vector<Relation> term_rels;
    for (const auto& term : def.terms()) {
      std::set<std::string> p;
      for (const auto& a : req.attrs) {
        if (ContainsAttr(term.project, a)) p.insert(a);
      }
      for (const auto& a : join_attrs) {
        if (ContainsAttr(term.project, a)) p.insert(a);
      }
      for (const auto& a : outer_attrs) {
        if (ContainsAttr(term.project, a)) p.insert(a);
      }
      for (const auto& a : cond_attrs) {
        if (ContainsAttr(term.project, a)) p.insert(a);
      }
      if (p.empty() && !term.project.empty()) p.insert(term.project[0]);
      SQ_ASSIGN_OR_RETURN(const VdpNode* child, vdp_->Get(term.child));
      std::vector<std::string> proj = NormalizeAttrs(child->schema, p);
      std::set<std::string> b = p;
      for (const auto& a : AttrsOf(term.select)) b.insert(a);
      SQ_ASSIGN_OR_RETURN(
          std::shared_ptr<const Relation> state,
          ChildState(term.child, NormalizeAttrs(child->schema, b), temps,
                     snap));
      SQ_ASSIGN_OR_RETURN(Relation sel, OpSelect(*state, term.SelectOrTrue()));
      SQ_ASSIGN_OR_RETURN(Relation tr, OpProject(sel, proj, Semantics::kBag));
      term_rels.push_back(std::move(tr));
    }
    Relation acc = std::move(term_rels[0]);
    for (size_t i = 1; i < term_rels.size(); ++i) {
      SQ_ASSIGN_OR_RETURN(acc,
                          OpJoin(acc, term_rels[i], def.join_conds()[i - 1]));
    }
    SQ_ASSIGN_OR_RETURN(acc,
                        OpSelect(acc, Expr::And(def.outer_select(), req_cond)));
    return OpProject(acc, req.attrs, Semantics::kBag);
  }

  // Union / difference.
  std::vector<Relation> term_rels;
  for (const auto& term : def.terms()) {
    SQ_ASSIGN_OR_RETURN(const VdpNode* child, vdp_->Get(term.child));
    std::set<std::string> b;
    if (def.kind() == NodeDef::Kind::kDiff) {
      b.insert(term.project.begin(), term.project.end());
    } else {
      b.insert(req.attrs.begin(), req.attrs.end());
    }
    for (const auto& a : AttrsOf(req_cond)) b.insert(a);
    std::vector<std::string> proj = NormalizeAttrs(node->schema, b);
    std::set<std::string> needed = b;
    for (const auto& a : AttrsOf(term.select)) needed.insert(a);
    SQ_ASSIGN_OR_RETURN(
        std::shared_ptr<const Relation> state,
        ChildState(term.child, NormalizeAttrs(child->schema, needed), temps,
                   snap));
    SQ_ASSIGN_OR_RETURN(
        Relation sel,
        OpSelect(*state, Expr::And(term.SelectOrTrue(), req_cond)));
    SQ_ASSIGN_OR_RETURN(Relation tr, OpProject(sel, proj, Semantics::kBag));
    term_rels.push_back(std::move(tr));
  }
  if (def.kind() == NodeDef::Kind::kUnion) {
    SQ_ASSIGN_OR_RETURN(Relation u,
                        OpUnion(term_rels[0], term_rels[1], Semantics::kBag));
    return OpProject(u, req.attrs, Semantics::kBag);
  }
  SQ_ASSIGN_OR_RETURN(Relation d,
                      OpDiff(term_rels[0].ToSet(), term_rels[1].ToSet()));
  return OpProject(d, req.attrs, Semantics::kBag);
}

Result<VapPlan> Vap::Bind(VapPlan plan, const StoreSnapshot* snap) const {
  if (plan.bound) return plan;
  // Parents first (build_order holds children first): a key-based node's
  // own_cond can hold its key-based parent's placeholders, which must be
  // bound before the node's own part is selected by it, here or in
  // Assemble.
  std::map<const Expr*, Expr::Ptr> key_sets;
  for (auto it = plan.key_based.rbegin(); it != plan.key_based.rend(); ++it) {
    auto& [index, choice] = *it;
    choice.own_cond = Substitute(choice.own_cond, key_sets);
    if (std::none_of(choice.groups.begin(), choice.groups.end(),
                     [](const auto& g) { return !g.key_sets.empty(); })) {
      continue;
    }
    const std::string& node = plan.build_order[index].node;
    SQ_ASSIGN_OR_RETURN(Relation own, SelectRepo(node, choice.own_cond, snap));
    for (const auto& g : choice.groups) {
      for (size_t i = 0; i < g.key_sets.size(); ++i) {
        SQ_ASSIGN_OR_RETURN(key_sets[g.key_sets[i].get()],
                            KeySet(own, g.key[i]));
      }
    }
    choice.own = std::make_shared<const Relation>(std::move(own));
  }
  for (auto& req : plan.build_order) req.cond = Substitute(req.cond, key_sets);
  for (auto& poll : plan.polls) {
    poll.spec.cond = Substitute(poll.spec.cond, key_sets);
  }
  plan.bound = true;
  return plan;
}

Result<TempStore> Vap::Execute(const VapPlan& plan, const PollFn& poll,
                               const CompensationFn& comp,
                               const StoreSnapshot* snap) const {
  if (!plan.bound) {
    SQ_ASSIGN_OR_RETURN(VapPlan bound, Bind(plan, snap));
    return Execute(bound, poll, comp, snap);
  }
  TempStore temps;
  // Map from request index to its poll, if any.
  std::map<size_t, const VapPlan::LeafPoll*> poll_at;
  for (const auto& p : plan.polls) poll_at[p.request_index] = &p;

  for (size_t i = 0; i < plan.build_order.size(); ++i) {
    // Step-boundary cancellation: each build step is a bounded unit of
    // work, so a cancelled query (deadline or memory budget) stops before
    // assembling the next temporary instead of finishing the whole plan.
    SQ_RETURN_IF_ERROR(CheckCancel());
    const TempRequest& req = plan.build_order[i];
    auto pit = poll_at.find(i);
    if (pit != poll_at.end()) {
      const VapPlan::LeafPoll& lp = *pit->second;
      if (!poll) {
        return Status::FailedPrecondition(
            "VAP plan requires polling source " + lp.source +
            " but no poll function was provided");
      }
      SQ_ASSIGN_OR_RETURN(Relation answer, poll(lp.source, lp.spec));
      ++temps.polls;
      if (comp) {
        SQ_ASSIGN_OR_RETURN(const VdpNode* leaf, vdp_->Get(lp.leaf_node));
        SQ_ASSIGN_OR_RETURN(
            Delta pending,
            comp(lp.source, lp.spec.relation, leaf->schema));
        if (!pending.Empty()) {
          // Eager Compensation: roll the answer back to the reflected state
          // by removing the pending (unreflected) updates.
          SQ_ASSIGN_OR_RETURN(
              Delta filtered,
              FilterDeltaToLeafParent(pending, lp.spec.cond, lp.spec.attrs));
          SQ_RETURN_IF_ERROR(ApplyDelta(&answer, filtered.Inverse()));
        }
      }
      temps.polled_tuples += static_cast<uint64_t>(answer.TotalSize());
      TempStore::Entry entry;
      entry.data = std::move(answer);
      entry.attrs = req.attrs;
      entry.cond = req.cond;
      temps.Put(req.node, std::move(entry));
      continue;
    }
    const KeyBasedChoice* kb = nullptr;
    auto kit = plan.key_based.find(i);
    if (kit != plan.key_based.end()) kb = &kit->second;
    SQ_ASSIGN_OR_RETURN(Relation data, Assemble(req, temps, kb, snap));
    TempStore::Entry entry;
    entry.data = std::move(data);
    entry.attrs = req.attrs;
    entry.cond = req.cond;
    temps.Put(req.node, std::move(entry));
  }
  return temps;
}

}  // namespace squirrel
