// Execution traces of a mediator: one entry per committed transaction, with
// the reflect vector the mediator claims (paper §6.1). The consistency and
// freshness checkers verify these claims against the source histories.

#ifndef SQUIRREL_MEDIATOR_TRACE_H_
#define SQUIRREL_MEDIATOR_TRACE_H_

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mediator/iup.h"
#include "mediator/query.h"
#include "relational/relation.h"
#include "sim/clock.h"

namespace squirrel {

/// Transaction kinds in a mediator's serial history (§6.1).
enum class TxnKind { kInit, kUpdate, kQuery };

/// One committed transaction.
struct TraceEntry {
  TxnKind kind = TxnKind::kUpdate;
  Time commit_time = 0;
  /// reflect(commit_time): one entry per source, mediator source order.
  TimeVector reflect;
  /// Update/init transactions: snapshot of every materialized repository
  /// (node -> contents). Present only when trace recording is enabled.
  std::map<std::string, Relation> repo_snapshot;
  /// Query transactions: the query and its (set-semantics) answer.
  std::optional<ViewQuery> query;
  std::optional<Relation> answer;
  /// Update transactions: propagation counters.
  IupStats iup_stats;
  /// Source polls performed by this transaction.
  uint64_t polls = 0;
};

/// \brief An append-only transaction log.
///
/// Appends are serialized by an internal mutex so callers that record from
/// several threads (MVCC reader threads, bench monitor threads) do not
/// race each other or the mediator's thread. Readers (entries(), notes(),
/// ToString()) are NOT synchronized against concurrent appends — they are
/// meant for after the run, or for callers who externally quiesce writers
/// first, exactly like the consistency/freshness checkers do.
class Trace {
 public:
  /// \param source_names the mediator's source order; reflect vectors in
  ///        entries are aligned with it.
  explicit Trace(std::vector<std::string> source_names)
      : source_names_(std::move(source_names)) {}
  Trace() = default;

  /// Appends an entry (commit times must be non-decreasing). Thread-safe.
  void Add(TraceEntry entry) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(std::move(entry));
  }

  /// Appends a free-form operational note (quarantines, aborted
  /// transactions, failed queries). Notes are not transactions — the
  /// consistency checker ignores them — but they are part of the replay
  /// identity a seeded fault schedule must reproduce. Thread-safe.
  void Note(Time t, std::string text) {
    std::lock_guard<std::mutex> lock(mu_);
    notes_.emplace_back(t, std::move(text));
  }

  const std::vector<TraceEntry>& entries() const { return entries_; }
  const std::vector<std::pair<Time, std::string>>& notes() const {
    return notes_;
  }
  const std::vector<std::string>& source_names() const {
    return source_names_;
  }

  /// Entries of one kind.
  std::vector<const TraceEntry*> OfKind(TxnKind kind) const;

  /// Deterministic rendering of the whole trace — every entry (with
  /// snapshots and answers when \p include_data) plus every note. Two runs
  /// of the same seeded simulation must produce byte-identical renderings;
  /// the fault harness's replay check compares these strings.
  std::string ToString(bool include_data = true) const;

 private:
  std::mutex mu_;  ///< serializes appends (Add/Note)
  std::vector<std::string> source_names_;
  std::vector<TraceEntry> entries_;
  std::vector<std::pair<Time, std::string>> notes_;
};

}  // namespace squirrel

#endif  // SQUIRREL_MEDIATOR_TRACE_H_
