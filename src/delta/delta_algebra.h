// Pushing deltas through relational operators.
//
// The incremental-maintenance rules of paper §5.2 are built from these
// primitives: apply commutes with select and project (§6.2), deltas join
// with relations (the SPJ rule), and bag deltas induce presence (set-level)
// deltas for set nodes such as difference.

#ifndef SQUIRREL_DELTA_DELTA_ALGEBRA_H_
#define SQUIRREL_DELTA_DELTA_ALGEBRA_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "delta/delta.h"
#include "relational/expr.h"
#include "relational/index.h"
#include "relational/relation.h"

namespace squirrel {

/// σ_cond(Δ): keeps atoms whose tuples satisfy the condition. Implements the
/// commutation π_C σ_f apply(R,Δ) = apply(π_C σ_f R, π_C σ_f Δ) of §6.2.
Result<Delta> DeltaSelect(const Delta& delta, const Expr::Ptr& cond);

/// π_attrs(Δ): projects atoms, summing signed counts (bag semantics).
Result<Delta> DeltaProject(const Delta& delta,
                           const std::vector<std::string>& attrs);

/// Δ ⋈_cond R, result schema = delta schema ++ relation schema.
/// Multiplicities multiply; signs come from the delta.
Result<Delta> DeltaJoinRelation(const Delta& delta, const Relation& rel,
                                const Expr::Ptr& cond);

/// R ⋈_cond Δ, result schema = relation schema ++ delta schema.
Result<Delta> RelationJoinDelta(const Relation& rel, const Delta& delta,
                                const Expr::Ptr& cond);

/// The attribute names on the \p indexed_side of every equi-join conjunct
/// of \p cond linking \p probe_side to \p indexed_side. Mirrors
/// SplitJoinCondition's equi detection but works on attribute-name lists, so
/// the index advisor can run it without materialized schemas. Deduplicated,
/// in order of first appearance; empty when no such conjunct exists.
std::vector<std::string> EquiProbeAttrs(
    const Expr::Ptr& cond, const std::vector<std::string>& probe_side,
    const std::vector<std::string>& indexed_side);

/// Δ ⋈_cond (π_project σ_select(repo)) — resp. the mirror-image join when
/// \p delta_left is false — where repo is the relation \p index is built
/// on: probes the index instead of materializing the term relation and
/// hashing it per call. The index's attribute set must equal the term-side
/// equi attributes of \p cond (FailedPrecondition otherwise; callers fall
/// back to the unindexed path). Result schema is delta ++ term (or
/// term ++ delta) exactly as DeltaJoinRelation / RelationJoinDelta would
/// produce over the materialized term.
Result<Delta> JoinDeltaWithIndexedTerm(
    const Delta& delta, const KeyIndex& index, const Expr::Ptr& term_select,
    const std::vector<std::string>& term_project, const Expr::Ptr& join_cond,
    bool delta_left);

/// "Filters" a source-relation delta so it applies to a leaf-parent node
/// defined as π_attrs σ_cond(source relation) (§6.2): select then project.
Result<Delta> FilterDeltaToLeafParent(const Delta& source_delta,
                                      const Expr::Ptr& cond,
                                      const std::vector<std::string>& attrs);

/// Converts a bag delta into the presence (set-level) delta it induces,
/// given the relation state *after* the bag delta was applied: a tuple whose
/// multiplicity crossed 0 -> >0 yields +1; >0 -> 0 yields -1.
Result<Delta> PresenceDelta(const Relation& state_after,
                            const Delta& bag_delta);

/// Restricts \p delta to atoms of tuples present in \p rel (set
/// intersection used by the difference rules, e.g. (ΔR₂)⁻ ∩ R₁).
Delta DeltaIntersectRelation(const Delta& delta, const Relation& rel);

/// Restricts \p delta to atoms of tuples NOT present in \p rel (set minus
/// used by the difference rules, e.g. (ΔR₁)⁺ − R₂).
Delta DeltaMinusRelation(const Delta& delta, const Relation& rel);

}  // namespace squirrel

#endif  // SQUIRREL_DELTA_DELTA_ALGEBRA_H_
