#include "vdp/rules.h"

#include <algorithm>
#include <optional>

#include "delta/delta_algebra.h"
#include "relational/operators.h"

namespace squirrel {

namespace {

/// The relation of term \p j of \p parent's def, taken from the right state:
/// the firing child's occurrences at positions before \p firing_pos are in
/// their NEW state (old + delta), everything else in the current repository
/// state.
Result<Relation> TermRelation(const NodeDef& def, size_t j,
                              const std::string& firing_child,
                              size_t firing_pos, const Delta& child_delta,
                              const NodeStateFn& states) {
  const ChildTerm& term = def.terms()[j];
  SQ_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> state,
                      states(term.child, term.NeededAttrs()));
  SQ_ASSIGN_OR_RETURN(Relation term_rel, EvalTerm(*state, term));
  if (term.child == firing_child && j < firing_pos) {
    // New state of this occurrence: apply the (filtered) delta to the term.
    SQ_ASSIGN_OR_RETURN(
        Delta filtered,
        FilterDeltaToLeafParent(child_delta, term.SelectOrTrue(),
                                term.project));
    SQ_RETURN_IF_ERROR(ApplyDelta(&term_rel, filtered));
  }
  return term_rel;
}

Result<Delta> FireSpj(const VdpNode& parent, const std::string& child,
                      const Delta& child_delta, const NodeStateFn& states,
                      const IndexProbeFn& probes) {
  const NodeDef& def = *parent.def;
  Delta result(parent.schema);
  for (size_t i = 0; i < def.terms().size(); ++i) {
    const ChildTerm& term = def.terms()[i];
    if (term.child != child) continue;

    // Restrict the incoming delta to this term's view of the child. The
    // delta may be wider than the term's needed attrs (full child schema);
    // select first (the condition's attrs are in the delta), then project.
    SQ_ASSIGN_OR_RETURN(
        Delta term_delta,
        FilterDeltaToLeafParent(child_delta, term.SelectOrTrue(),
                                term.project));
    if (term_delta.Empty()) continue;

    Delta acc = std::move(term_delta);

    // Joins sibling term \p j into acc via a persistent repository index if
    // one covers the equi attributes; returns nullopt to request the
    // unindexed fallback. Occurrences of the firing child at positions
    // before i must be seen in their NEW state, which the (pre-delta)
    // repository index cannot serve.
    auto indexed_join = [&](size_t j, const Expr::Ptr& cond,
                            bool delta_left) -> Result<std::optional<Delta>> {
      if (!probes) return std::optional<Delta>();
      const ChildTerm& sibling = def.terms()[j];
      if (sibling.child == child && j < i) return std::optional<Delta>();
      std::vector<std::string> equi = EquiProbeAttrs(
          cond, acc.schema().AttributeNames(), sibling.project);
      if (equi.empty()) return std::optional<Delta>();
      const KeyIndex* index = probes(sibling.child, equi);
      if (index == nullptr) return std::optional<Delta>();
      // The repository must cover everything this term reads; otherwise the
      // unindexed path would have served a temp, not the repo (the index may
      // have been advised for a different term over the same child).
      if (!index->relation().schema().ContainsAll(sibling.NeededAttrs())) {
        return std::optional<Delta>();
      }
      auto joined = JoinDeltaWithIndexedTerm(acc, *index,
                                             sibling.SelectOrTrue(),
                                             sibling.project, cond, delta_left);
      if (!joined.ok()) {
        // Coverage mismatch between advisor and firing: fall back silently.
        if (joined.status().code() == StatusCode::kFailedPrecondition) {
          return std::optional<Delta>();
        }
        return joined.status();
      }
      return std::optional<Delta>(std::move(*joined));
    };

    // Left side: accumulated join of terms 0..i-1. The single-sibling case
    // (i == 1) can probe the sibling's index directly; longer accumulations
    // materialize intermediate joins and stay unindexed.
    if (i == 1) {
      SQ_ASSIGN_OR_RETURN(
          std::optional<Delta> joined,
          indexed_join(0, def.join_conds()[0], /*delta_left=*/false));
      if (joined) {
        acc = std::move(*joined);
      } else {
        SQ_ASSIGN_OR_RETURN(
            Relation tr, TermRelation(def, 0, child, i, child_delta, states));
        SQ_ASSIGN_OR_RETURN(acc,
                            RelationJoinDelta(tr, acc, def.join_conds()[0]));
      }
    } else if (i > 1) {
      std::optional<Relation> left;
      for (size_t j = 0; j < i; ++j) {
        SQ_ASSIGN_OR_RETURN(
            Relation tr, TermRelation(def, j, child, i, child_delta, states));
        if (!left) {
          left = std::move(tr);
        } else {
          SQ_ASSIGN_OR_RETURN(left,
                              OpJoin(*left, tr, def.join_conds()[j - 1]));
        }
      }
      SQ_ASSIGN_OR_RETURN(
          acc, RelationJoinDelta(*left, acc, def.join_conds()[i - 1]));
    }

    // Right side: terms i+1..n-1, one join at a time.
    for (size_t j = i + 1; j < def.terms().size(); ++j) {
      SQ_ASSIGN_OR_RETURN(
          std::optional<Delta> joined,
          indexed_join(j, def.join_conds()[j - 1], /*delta_left=*/true));
      if (joined) {
        acc = std::move(*joined);
        continue;
      }
      SQ_ASSIGN_OR_RETURN(
          Relation tr, TermRelation(def, j, child, i, child_delta, states));
      SQ_ASSIGN_OR_RETURN(acc,
                          DeltaJoinRelation(acc, tr, def.join_conds()[j - 1]));
    }
    SQ_ASSIGN_OR_RETURN(acc, DeltaSelect(acc, def.outer_select()));
    if (!def.outer_project().empty()) {
      SQ_ASSIGN_OR_RETURN(acc, DeltaProject(acc, def.outer_project()));
    }
    SQ_RETURN_IF_ERROR(result.SmashInPlace(acc));
  }
  return result;
}

Result<Delta> FireUnion(const VdpNode& parent, const std::string& child,
                        const Delta& child_delta, const NodeStateFn& states) {
  (void)states;  // union needs no sibling state
  const NodeDef& def = *parent.def;
  Delta result(parent.schema);
  for (const ChildTerm& term : def.terms()) {
    if (term.child != child) continue;
    SQ_ASSIGN_OR_RETURN(
        Delta term_delta,
        FilterDeltaToLeafParent(child_delta, term.SelectOrTrue(),
                                term.project));
    SQ_RETURN_IF_ERROR(result.SmashInPlace(term_delta));
  }
  return result;
}

/// Presence (set-level) delta the bag-level \p child_delta induces on term
/// \p j of the def, plus that term's new bag state.
Result<Delta> TermPresenceDelta(const NodeDef& def, size_t j,
                                const Delta& child_delta,
                                const NodeStateFn& states) {
  const ChildTerm& term = def.terms()[j];
  SQ_ASSIGN_OR_RETURN(
      Delta term_delta,
      FilterDeltaToLeafParent(child_delta, term.SelectOrTrue(),
                              term.project));
  if (term_delta.Empty()) return Delta(term_delta.schema());
  SQ_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> state,
                      states(term.child, term.NeededAttrs()));
  SQ_ASSIGN_OR_RETURN(Relation term_new, EvalTerm(*state, term));
  SQ_RETURN_IF_ERROR(ApplyDelta(&term_new, term_delta));
  return PresenceDelta(term_new, term_delta);
}

Result<Delta> FireDiff(const VdpNode& parent, const std::string& child,
                       const Delta& child_delta, const NodeStateFn& states) {
  const NodeDef& def = *parent.def;
  Delta result(parent.schema);

  // Left term firing (diff1). Corrected rule:
  //   (ΔT)⁺ = (Δ̂₁)⁺ − R₂ ;  (ΔT)⁻ = (Δ̂₁)⁻ − R₂
  if (def.terms()[0].child == child) {
    SQ_ASSIGN_OR_RETURN(Delta pres1,
                        TermPresenceDelta(def, 0, child_delta, states));
    if (!pres1.Empty()) {
      // Right term in its current (or, for self-diff, old) state.
      SQ_ASSIGN_OR_RETURN(
          Relation r2,
          TermRelation(def, 1, child, /*firing_pos=*/0, child_delta, states));
      SQ_RETURN_IF_ERROR(
          result.SmashInPlace(DeltaMinusRelation(pres1, r2.ToSet())));
    }
  }

  // Right term firing (diff2):
  //   (ΔT)⁺ = (Δ̂₂)⁻ ∩ R₁ ;  (ΔT)⁻ = (Δ̂₂)⁺ ∩ R₁   i.e.  (Δ̂₂)⁻¹ ∩ R₁
  if (def.terms()[1].child == child) {
    SQ_ASSIGN_OR_RETURN(Delta pres2,
                        TermPresenceDelta(def, 1, child_delta, states));
    if (!pres2.Empty()) {
      // Left term; for self-diff its occurrence (position 0) counts as
      // "before" the right firing, hence new state.
      SQ_ASSIGN_OR_RETURN(
          Relation r1,
          TermRelation(def, 0, child, /*firing_pos=*/1, child_delta, states));
      SQ_RETURN_IF_ERROR(result.SmashInPlace(
          DeltaIntersectRelation(pres2.Inverse(), r1.ToSet())));
    }
  }
  return result;
}

}  // namespace

Result<Delta> FireEdgeRules(const VdpNode& parent, const std::string& child,
                            const Delta& child_delta,
                            const NodeStateFn& states) {
  return FireEdgeRules(parent, child, child_delta, states, nullptr);
}

Result<Delta> FireEdgeRules(const VdpNode& parent, const std::string& child,
                            const Delta& child_delta,
                            const NodeStateFn& states,
                            const IndexProbeFn& probes) {
  if (!parent.def) {
    return Status::InvalidArgument("cannot fire rules into leaf node " +
                                   parent.name);
  }
  if (child_delta.Empty()) return Delta(parent.schema);
  switch (parent.def->kind()) {
    case NodeDef::Kind::kSpj:
      return FireSpj(parent, child, child_delta, states, probes);
    case NodeDef::Kind::kUnion:
      return FireUnion(parent, child, child_delta, states);
    case NodeDef::Kind::kDiff:
      return FireDiff(parent, child, child_delta, states);
  }
  return Status::Internal("unknown def kind");
}

namespace {

bool NamesCover(const std::vector<std::string>& haystack,
                const std::vector<std::string>& needles) {
  for (const auto& n : needles) {
    if (std::find(haystack.begin(), haystack.end(), n) == haystack.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

IndexSpecs AdviseIndexes(const Vdp& vdp, const Annotation& ann) {
  IndexSpecs specs;
  auto add = [&](const std::string& node, std::vector<std::string> attrs) {
    auto& node_specs = specs[node];
    for (const auto& existing : node_specs) {
      if (SameAttrSet(existing, attrs)) return;
    }
    node_specs.push_back(std::move(attrs));
  };
  for (const std::string& name : vdp.DerivedNames()) {
    const VdpNode* node = vdp.Find(name);
    if (!node || !node->def || node->def->kind() != NodeDef::Kind::kSpj) {
      continue;
    }
    const NodeDef& def = *node->def;
    if (def.terms().size() < 2) continue;
    // FireSpj joins sibling term j against a delta whose attrs accumulate
    // the projections of terms 0..j-1 (left-deep prefix). Term 0 itself is
    // probed when term 1 fires (delta attrs = term 1's projection).
    std::vector<std::string> prefix_attrs;
    for (size_t j = 0; j < def.terms().size(); ++j) {
      const ChildTerm& term = def.terms()[j];
      std::vector<std::string> probe_side =
          j == 0 ? def.terms()[1].project : prefix_attrs;
      const Expr::Ptr& cond =
          j == 0 ? def.join_conds()[0] : def.join_conds()[j - 1];
      std::vector<std::string> equi =
          EquiProbeAttrs(cond, probe_side, term.project);
      if (!equi.empty()) {
        std::vector<std::string> repo_attrs =
            ann.MaterializedAttrs(vdp, term.child);
        // Only usable when the repo alone can serve the term (rule firing
        // checks the same coverage before probing).
        if (NamesCover(repo_attrs, term.NeededAttrs())) {
          add(term.child, std::move(equi));
        }
      }
      prefix_attrs.insert(prefix_attrs.end(), term.project.begin(),
                          term.project.end());
    }
    // The VAP's key-based construction probes a materialized child by the
    // child's key to fetch a hybrid parent's virtual attributes. Vap::
    // TryKeyBased chooses it only for a parent with a repository and at
    // least one virtual attribute, and only for a term that projects the
    // key and some virtual attribute, with the key materialized in the
    // parent.
    const std::vector<std::string> mat = ann.MaterializedAttrs(vdp, name);
    if (mat.empty() || mat.size() == node->schema.size()) continue;
    for (const ChildTerm& term : def.terms()) {
      const VdpNode* child_node = vdp.Find(term.child);
      if (!child_node) continue;
      const std::vector<std::string>& key = child_node->schema.key();
      const bool supplies_virtual = std::any_of(
          term.project.begin(), term.project.end(),
          [&](const std::string& a) {
            return node->schema.Contains(a) && !NamesCover(mat, {a});
          });
      if (key.empty() || !supplies_virtual ||
          !NamesCover(term.project, key) || !NamesCover(mat, key)) {
        continue;
      }
      std::vector<std::string> repo_attrs =
          ann.MaterializedAttrs(vdp, term.child);
      if (!repo_attrs.empty() && NamesCover(repo_attrs, key)) {
        add(term.child, key);
      }
    }
  }
  return specs;
}

}  // namespace squirrel
