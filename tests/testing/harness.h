// A direct (no-simulator) harness around LocalStore/Vap/Iup/QueryProcessor:
// polls hit the SourceDbs synchronously and Eager Compensation is driven by
// the in-flight batch (the source is committed before propagation, exactly
// the situation ECA exists for).

#ifndef SQUIRREL_TESTS_TESTING_HARNESS_H_
#define SQUIRREL_TESTS_TESTING_HARNESS_H_

#include <map>
#include <memory>
#include <string>

#include "delta/delta_algebra.h"
#include "mediator/iup.h"
#include "mediator/local_store.h"
#include "mediator/query_processor.h"
#include "mediator/vap.h"
#include "relational/operators.h"
#include "source/source_db.h"
#include "vdp/annotation.h"
#include "vdp/vdp.h"

namespace squirrel {
namespace testing {

class DirectHarness {
 public:
  DirectHarness(Vdp vdp, Annotation ann,
                std::map<std::string, SourceDb*> sources,
                VapStrategy strategy = VapStrategy::kAuto)
      : vdp_(std::move(vdp)),
        ann_(std::move(ann)),
        sources_(std::move(sources)),
        store_(&vdp_, &ann_),
        vap_(&vdp_, &ann_, &store_, strategy),
        iup_(&vdp_, &ann_, &store_, &vap_),
        qp_(&vdp_, &ann_, &store_, &vap_) {}

  const Vdp& vdp() const { return vdp_; }
  const Annotation& annotation() const { return ann_; }
  LocalStore& store() { return store_; }
  Vap& vap() { return vap_; }
  Iup& iup() { return iup_; }
  QueryProcessor& qp() { return qp_; }

  /// Recomputes a node's full contents from current source states.
  Result<Relation> RecomputeNode(const std::string& name) {
    SQ_ASSIGN_OR_RETURN(const VdpNode* node, vdp_.Get(name));
    if (node->is_leaf) {
      auto sit = sources_.find(node->source_db);
      if (sit == sources_.end()) {
        return Status::NotFound("no source " + node->source_db);
      }
      return sit->second->Query(node->source_relation,
                                node->schema.AttributeNames(), nullptr);
    }
    NodeStateFn states =
        [this](const std::string& child, const std::vector<std::string>&)
        -> Result<std::shared_ptr<const Relation>> {
      SQ_ASSIGN_OR_RETURN(Relation rel, RecomputeNode(child));
      return std::make_shared<const Relation>(std::move(rel));
    };
    return node->def->Evaluate(states);
  }

  /// Loads all repositories from the current source states.
  Status Load() {
    for (const auto& name : store_.MaterializedNodes()) {
      SQ_ASSIGN_OR_RETURN(Relation full, RecomputeNode(name));
      auto mat = ann_.MaterializedAttrs(vdp_, name);
      SQ_ASSIGN_OR_RETURN(Relation projected,
                          OpProject(full, mat, Semantics::kBag));
      if (vdp_.Find(name)->semantics() == Semantics::kSet) {
        projected = projected.ToSet();
      }
      SQ_RETURN_IF_ERROR(store_.SetRepo(name, std::move(projected)));
    }
    return Status::OK();
  }

  /// Synchronous poll function hitting the sources directly.
  Vap::PollFn DirectPoll() {
    return [this](const std::string& source,
                  const PollSpec& spec) -> Result<Relation> {
      ++polls_;
      auto sit = sources_.find(source);
      if (sit == sources_.end()) {
        return Status::NotFound("no source " + source);
      }
      return sit->second->Query(spec.relation, spec.attrs, spec.cond);
    };
  }

  /// Commits \p delta at \p source and propagates it (general IUP with
  /// in-flight compensation, since polls see the post-commit state): the
  /// Mediator's composition, Preparation → Vap::Plan → ProcessBatch.
  Result<IupStats> CommitAndPropagate(const std::string& source, Time now,
                                      const MultiDelta& delta) {
    auto sit = sources_.find(source);
    if (sit == sources_.end()) {
      return Status::NotFound("no source " + source);
    }
    SQ_RETURN_IF_ERROR(sit->second->Commit(now, delta));
    // Build leaf deltas.
    std::map<std::string, Delta> leaf_deltas;
    for (const auto& rel : delta.RelationNames()) {
      const VdpNode* leaf = vdp_.FindLeaf(source, rel);
      if (leaf == nullptr) continue;
      SQ_ASSIGN_OR_RETURN(
          Delta narrowed,
          DeltaProject(*delta.Find(rel), leaf->schema.AttributeNames()));
      auto [it, inserted] =
          leaf_deltas.try_emplace(leaf->name, Delta(leaf->schema));
      (void)inserted;
      SQ_RETURN_IF_ERROR(it->second.SmashInPlace(narrowed));
    }
    // In-flight compensation: polls reflect the already-committed delta.
    Vap::CompensationFn comp =
        [source, &delta](const std::string& poll_source,
                         const std::string& relation,
                         const Schema& schema) -> Result<Delta> {
      Delta out(schema);
      if (poll_source != source) return out;
      const Delta* d = delta.Find(relation);
      if (d != nullptr) SQ_RETURN_IF_ERROR(out.SmashInPlace(*d));
      return out;
    };
    SQ_ASSIGN_OR_RETURN(std::vector<TempRequest> requests,
                        iup_.PrepareTempRequests(leaf_deltas));
    SQ_ASSIGN_OR_RETURN(VapPlan plan, vap_.Plan(requests));
    return iup_.ProcessBatch(leaf_deltas, plan, DirectPoll(), comp);
  }

  /// Verifies every repository equals the materialized projection of a
  /// fresh recomputation; returns an error describing the first mismatch.
  Status VerifyRepos() {
    for (const auto& name : store_.MaterializedNodes()) {
      SQ_ASSIGN_OR_RETURN(Relation full, RecomputeNode(name));
      auto mat = ann_.MaterializedAttrs(vdp_, name);
      SQ_ASSIGN_OR_RETURN(Relation expect,
                          OpProject(full, mat, Semantics::kBag));
      SQ_ASSIGN_OR_RETURN(const Relation* repo, store_.Repo(name));
      if (!expect.EqualContents(*repo)) {
        return Status::Internal("repository drift at node " + name +
                                "\n got: " + repo->ToString(name) +
                                "\nwant: " + expect.ToString(name));
      }
    }
    return Status::OK();
  }

  uint64_t polls() const { return polls_; }
  void reset_polls() { polls_ = 0; }

 private:
  Vdp vdp_;
  Annotation ann_;
  std::map<std::string, SourceDb*> sources_;
  LocalStore store_;
  Vap vap_;
  Iup iup_;
  QueryProcessor qp_;
  uint64_t polls_ = 0;
};

}  // namespace testing
}  // namespace squirrel

#endif  // SQUIRREL_TESTS_TESTING_HARNESS_H_
