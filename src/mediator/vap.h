// The Virtual Attribute Processor (paper §6.3).
//
// When the QP or IUP needs data containing virtual attributes, the VAP
// materializes temporary relations equivalent to π_A σ_f (node). Execution
// has two phases exactly as in the paper:
//
//  phase 1 (Plan):   starting from the input request set, repeatedly expand
//    requests through derived_from — parents before children, merging
//    requests for the same node (attrs unioned, conditions OR-ed) — until
//    everything bottoms out in materialized repositories or source polls;
//  phase 2 (Execute): poll the sources (leaf-parent data), apply
//    Eager-Compensation so hybrid-contributor answers match the state
//    already reflected in materialized data, then assemble the temporaries
//    bottom-up through the VDP.
//
// The key-based construction of Example 2.3 is available as an alternative
// derivation when a node's virtual attributes all come from one child whose
// key is materialized in the node (strategy kKeyBased / kAuto).

#ifndef SQUIRREL_MEDIATOR_VAP_H_
#define SQUIRREL_MEDIATOR_VAP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "delta/delta.h"
#include "mediator/local_store.h"
#include "source/messages.h"
#include "vdp/annotation.h"
#include "vdp/vdp.h"

namespace squirrel {

/// A request for a temporary relation π_attrs σ_cond(node) — the paper's
/// (R, A, f) triple.
struct TempRequest {
  std::string node;
  std::vector<std::string> attrs;  ///< needed attrs (schema order)
  Expr::Ptr cond;                  ///< restriction; null means true

  std::string ToString() const;
};

/// \brief Holds materialized temporaries for the duration of one QP/IUP
/// transaction.
class TempStore {
 public:
  struct Entry {
    Relation data;                   ///< π_attrs σ_cond(node contents)
    std::vector<std::string> attrs;  ///< attrs covered
    Expr::Ptr cond;                  ///< condition applied (True = none)
  };

  /// Installs/overwrites the temp for \p node.
  void Put(const std::string& node, Entry entry);
  /// The temp for \p node, or nullptr.
  const Entry* Find(const std::string& node) const;
  /// True iff a temp for \p node exists and covers all of \p attrs.
  bool Covers(const std::string& node,
              const std::vector<std::string>& attrs) const;
  /// Applies a full-attribute node delta to \p node's temp (filtered through
  /// the temp's cond and attrs). No-op if no temp exists. Keeps temporaries
  /// current while the IUP kernel processes nodes.
  Status ApplyNodeDelta(const std::string& node, const Delta& full_delta);

  /// Number of temps held.
  size_t Count() const { return entries_.size(); }
  /// Approximate bytes across temps.
  size_t ApproxBytes() const;

  /// Polls performed while building this store (set by Vap::Execute).
  uint64_t polls = 0;
  /// Tuples fetched from sources (post-compensation).
  uint64_t polled_tuples = 0;

 private:
  std::map<std::string, Entry> entries_;
};

/// How the VAP derives hybrid nodes' virtual attributes.
enum class VapStrategy {
  kChildBased,  ///< always expand through derived_from (children)
  kKeyBased,    ///< use the key-based construction whenever applicable
  kAuto,        ///< key-based when it avoids polling extra children
};

/// The key-based derivation choice for one request (Example 2.3).
struct KeyBasedChoice {
  std::string child;                    ///< child supplying virtual attrs
  std::vector<std::string> key;         ///< join key (child's key)
  std::vector<std::string> child_attrs; ///< attrs fetched from the child
  std::vector<std::string> own_attrs;   ///< attrs taken from own repository
};

/// Output of planning: what to build, in what order, and what to poll.
struct VapPlan {
  /// Requests in build order (children before parents). Leaf-node requests
  /// are polls; non-leaf requests are assembly steps.
  std::vector<TempRequest> build_order;
  /// Indexes into build_order that are leaf polls, with their poll spec.
  struct LeafPoll {
    size_t request_index;
    std::string source;     ///< source database name
    std::string leaf_node;  ///< VDP leaf node name
    PollSpec spec;
  };
  std::vector<LeafPoll> polls;
  /// Requests (by index into build_order) assembled key-based.
  std::map<size_t, KeyBasedChoice> key_based;

  /// True iff nothing needs doing.
  bool Empty() const { return build_order.empty(); }
  /// Distinct source databases polled.
  std::vector<std::string> PolledSources() const;
};

/// \brief Plans and executes temporary-relation construction.
class Vap {
 public:
  /// Answers π_attrs σ_cond of a *source* relation (the poll). Routed
  /// through the simulator in full deployments or straight to a SourceDb in
  /// direct/library use.
  using PollFn =
      std::function<Result<Relation>(const std::string& source_db,
                                     const PollSpec& spec)>;

  /// Pending (announced but not yet reflected) delta of a source relation;
  /// the VAP subtracts it from poll answers (Eager Compensation). The
  /// schema parameter is the source relation's schema.
  using CompensationFn = std::function<Result<Delta>(
      const std::string& source_db, const std::string& relation,
      const Schema& schema)>;

  /// \param vdp, ann, store not owned; must outlive the Vap.
  Vap(const Vdp* vdp, const Annotation* ann, const LocalStore* store,
      VapStrategy strategy = VapStrategy::kAuto)
      : vdp_(vdp), ann_(ann), store_(store), strategy_(strategy) {}

  /// Phase 1: expands and merges \p input into a bottom-up plan.
  Result<VapPlan> Plan(const std::vector<TempRequest>& input) const;

  /// Phase 2: executes a plan. With \p snap set, every repository read is
  /// routed through that immutable snapshot instead of the live store
  /// (MVCC query path) — the live store may be mid-commit on another
  /// thread. Persistent repository indexes are bypassed in snapshot mode:
  /// they index the LIVE repositories.
  Result<TempStore> Execute(const VapPlan& plan, const PollFn& poll,
                            const CompensationFn& comp,
                            const StoreSnapshot* snap = nullptr) const;

  /// True iff π_attrs of \p node is answerable from the repository alone.
  bool RepoCovers(const std::string& node,
                  const std::vector<std::string>& attrs) const;

 private:
  Result<KeyBasedChoice> TryKeyBased(const VdpNode& node,
                                     const TempRequest& req) const;
  Result<std::vector<TempRequest>> DerivedFrom(const VdpNode& node,
                                               const TempRequest& req) const;
  Result<Relation> Assemble(const TempRequest& req, const TempStore& temps,
                            const KeyBasedChoice* key_based,
                            const StoreSnapshot* snap) const;
  /// Borrowed handle onto the child's repository or temp (no copy); valid
  /// while the store (or \p snap) and \p temps live.
  Result<std::shared_ptr<const Relation>> ChildState(
      const std::string& child, const std::vector<std::string>& attrs,
      const TempStore& temps, const StoreSnapshot* snap) const;
  /// The repository of \p node in \p snap when set, else the live store.
  Result<const Relation*> RepoAt(const std::string& node,
                                 const StoreSnapshot* snap) const;

  const Vdp* vdp_;
  const Annotation* ann_;
  const LocalStore* store_;
  VapStrategy strategy_;
};

}  // namespace squirrel

#endif  // SQUIRREL_MEDIATOR_VAP_H_
