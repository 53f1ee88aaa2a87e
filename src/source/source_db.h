// Autonomous source databases (simulated substrate).
//
// The paper's sources are remote, autonomous DBMSs. This substrate provides
// exactly the capabilities the algorithms rely on — local transactions,
// answering select/project queries against a single state, and (for active
// sources) exposing net-change deltas to an announcer — plus one capability
// real deployments lack that the correctness checkers need: full state
// history, so state(DB_i, t) of paper §3 is reconstructible for any t.

#ifndef SQUIRREL_SOURCE_SOURCE_DB_H_
#define SQUIRREL_SOURCE_SOURCE_DB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "delta/delta.h"
#include "relational/expr.h"
#include "relational/index.h"
#include "relational/relation.h"
#include "sim/clock.h"

namespace squirrel {

/// \brief One autonomous source database: named set-relations, transactional
/// commits stamped with virtual time, and a commit log for history replay.
class SourceDb {
 public:
  /// Creates an empty database called \p name.
  explicit SourceDb(std::string name) : name_(std::move(name)) {}
  // A copy's key indexes would point into the original's relations. Moves
  // keep every relation (and so every row entry) at its address.
  SourceDb(const SourceDb&) = delete;
  SourceDb& operator=(const SourceDb&) = delete;
  SourceDb(SourceDb&&) = default;
  SourceDb& operator=(SourceDb&&) = default;

  /// The database name (unique within an integration environment).
  const std::string& name() const { return name_; }

  /// Declares a relation. Source relations are sets (real DBMS tables).
  Status AddRelation(const std::string& rel_name, Schema schema);

  /// Names of declared relations (sorted).
  std::vector<std::string> RelationNames() const;

  /// Schema of a declared relation.
  Result<Schema> RelationSchema(const std::string& rel_name) const;

  /// Commits \p delta as one transaction at time \p now. Commit times must
  /// be non-decreasing. The delta must be non-redundant (strict apply).
  Status Commit(Time now, const MultiDelta& delta);

  /// Convenience single-tuple insert committed at \p now.
  Status InsertTuple(Time now, const std::string& rel_name, const Tuple& t);
  /// Convenience single-tuple delete committed at \p now.
  Status DeleteTuple(Time now, const std::string& rel_name, const Tuple& t);

  /// Current contents of a relation.
  Result<const Relation*> Current(const std::string& rel_name) const;

  /// Reconstructs the contents of \p rel_name as of time \p t (commits with
  /// time <= t applied). Used by the consistency/freshness checkers.
  Result<Relation> StateAt(const std::string& rel_name, Time t) const;

  /// Evaluates π_attrs σ_cond(rel) against the *current* state (bag result,
  /// as projections may merge tuples). This is the query interface the
  /// mediator's VAP polls.
  ///
  /// A top-level `a IN (...)` conjunct of \p cond on one of the relation's
  /// attributes is served from a key index on `a` (built on first use, then
  /// maintained by Commit): only the rows whose `a` matches a member are
  /// evaluated against the whole \p cond. Any other condition scans. The
  /// answer is the scan's; only an evaluation error on a row outside the key
  /// set goes unnoticed, because that row is never evaluated.
  Result<Relation> Query(const std::string& rel_name,
                         const std::vector<std::string>& attrs,
                         const Expr::Ptr& cond) const;

  /// Names an installed listener, for removing it again.
  using ListenerId = uint64_t;

  /// Adds a listener invoked after every successful commit (the announcer
  /// of an active source). Sharded topologies attach several announcers to
  /// one db — each consuming mediator installs its own — so listeners
  /// accumulate; they fire in installation order. A listener that captures
  /// an object must be removed before that object dies.
  ListenerId AddCommitListener(
      std::function<void(Time, const MultiDelta&)> fn) {
    commit_listeners_.push_back({next_listener_id_, std::move(fn)});
    return next_listener_id_++;
  }
  /// Removes the commit listener \p id.
  void RemoveCommitListener(ListenerId id) {
    std::erase_if(commit_listeners_,
                  [id](const auto& l) { return l.id == id; });
  }

  /// Current incarnation number. Starts at 1 and bumps on every Restart().
  /// Stamped into every UpdateMessage/PollAnswer/SnapshotAnswer so the
  /// mediator can detect that a source came back with reset session state.
  uint64_t epoch() const { return epoch_; }

  /// Simulates the source process coming back after a crash: durable state
  /// (relations, commit log) survives, the incarnation number bumps, and the
  /// restart listener fires so volatile session state (the announcer's
  /// pending batch and sequence numbering) is wiped. Commits the old
  /// incarnation made but never announced are thereby lost to the mediator
  /// until anti-entropy resync pulls a snapshot.
  void Restart(Time now);

  /// Adds a listener invoked by Restart() after the epoch bump (the
  /// announcer of an active source). Listeners fire in installation order.
  ListenerId AddRestartListener(std::function<void(Time)> fn) {
    restart_listeners_.push_back({next_listener_id_, std::move(fn)});
    return next_listener_id_++;
  }
  /// Removes the restart listener \p id.
  void RemoveRestartListener(ListenerId id) {
    std::erase_if(restart_listeners_,
                  [id](const auto& l) { return l.id == id; });
  }

  /// Number of committed transactions.
  uint64_t CommitCount() const { return log_.size(); }
  /// Commit times of every transaction, in order.
  std::vector<Time> CommitTimes() const;
  /// Time of the last commit (-inf if none).
  Time LastCommitTime() const;

 private:
  struct LogEntry {
    Time time;
    MultiDelta delta;
  };

  /// The index of \p rel on attribute \p attr, built on first use.
  const KeyIndex& IndexFor(const std::string& rel_name, const Relation& rel,
                           const std::string& attr) const;

  std::string name_;
  std::map<std::string, Relation> relations_;
  /// Single-attribute key indexes by relation, kept exact by Commit through
  /// ApplyIndexed. Mutable: Query builds them lazily (SourceDb is
  /// single-threaded, like its relations).
  mutable std::map<std::string, std::vector<KeyIndex>> key_indexes_;
  std::vector<LogEntry> log_;
  template <typename Fn>
  struct Listener {
    ListenerId id;
    std::function<Fn> fn;
  };
  std::vector<Listener<void(Time, const MultiDelta&)>> commit_listeners_;
  std::vector<Listener<void(Time)>> restart_listeners_;
  ListenerId next_listener_id_ = 0;
  uint64_t epoch_ = 1;
};

}  // namespace squirrel

#endif  // SQUIRREL_SOURCE_SOURCE_DB_H_
