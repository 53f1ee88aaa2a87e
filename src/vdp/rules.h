// Update-propagation rules along VDP edges (paper §5.2), fired under the
// sequential discipline of §6.4 that fixes Example 6.1's "missing
// contribution" problem: a node's delta is fired toward its parents using
// the *current* repositories of its siblings (already-processed siblings
// expose their new state, unprocessed ones their old state), and the node's
// own repository is updated only after firing.
//
// Implemented rule families:
//  - SPJ: ΔT = π_p σ_f(term_1 ⋈ ... Δterm_i ... ⋈ term_n), with the
//    occurrences of the firing child at positions before the firing one
//    taken in their new state (handles self-joins).
//  - Union: ΔT = filtered Δterm (bag).
//  - Difference (set node, presence deltas):
//      diff1 (firing left):  ΔT = Δ̂₁ − R₂  (both signs; the paper's
//        "(ΔR₁)⁻ ∩ R₂" deletion term is corrected to "−R₂" — see DESIGN.md)
//      diff2 (firing right): ΔT = (Δ̂₂)⁻¹ ∩ R₁
//    where Δ̂ is the presence delta the bag-level change induces on the term.

#ifndef SQUIRREL_VDP_RULES_H_
#define SQUIRREL_VDP_RULES_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "delta/delta.h"
#include "relational/index.h"
#include "vdp/annotation.h"
#include "vdp/vdp.h"

namespace squirrel {

/// Resolver the IUP hands to FireEdgeRules: given a sibling node and the
/// equi-join attributes a rule wants to probe, returns a maintained index
/// on the node's current repository keyed on exactly those attributes (as
/// a set), or null when there is none — firing then falls back to
/// materializing the term and hashing it per call.
using IndexProbeFn = std::function<const KeyIndex*(
    const std::string& node, const std::vector<std::string>& attrs)>;

/// Computes the contribution to parent's Δ repository from a change
/// \p child_delta (full-attribute bag delta, not yet applied to the child's
/// state) of node \p child.
///
/// \param parent the parent node whose def consumes \p child
/// \param child name of the changed node (a child of \p parent)
/// \param child_delta the child's pending delta, in the child's full schema
///        or any schema covering the attrs the parent's terms need
/// \param states resolver for current node states (see NodeStateFn); for the
///        firing child it must return the PRE-application state
Result<Delta> FireEdgeRules(const VdpNode& parent, const std::string& child,
                            const Delta& child_delta,
                            const NodeStateFn& states);

/// As above, but SPJ rule firing probes persistent repository indexes (via
/// \p probes) for sibling terms instead of rebuilding hash tables per
/// invocation. Passing a null \p probes is identical to the overload above;
/// the result is byte-identical either way. Self-join occurrences that must
/// be seen in their NEW state (firing child at an earlier position) always
/// take the unindexed path, because the repository index holds pre-delta
/// state.
Result<Delta> FireEdgeRules(const VdpNode& parent, const std::string& child,
                            const Delta& child_delta,
                            const NodeStateFn& states,
                            const IndexProbeFn& probes);

/// Index specs by node: the attribute lists to keep a repository indexed on.
using IndexSpecs = std::map<std::string, std::vector<std::vector<std::string>>>;

/// Index advisor: the (node, attrs) indexes that FireEdgeRules' SPJ rules
/// and the VAP's key-based construction will probe for this VDP +
/// annotation, each attribute set once. A rule's sibling probe counts only
/// when the sibling's repository covers the term's needed attrs (others are
/// served from VAP temps, which are transient); a key-based probe counts
/// only where Vap::TryKeyBased can choose it. Run once per VDP at build
/// time.
IndexSpecs AdviseIndexes(const Vdp& vdp, const Annotation& ann);

}  // namespace squirrel

#endif  // SQUIRREL_VDP_RULES_H_
