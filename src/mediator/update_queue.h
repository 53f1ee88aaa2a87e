// The mediator's incremental update queue (paper §4, §6.1).
//
// Holds UpdateMessages from the sources in arrival order. The IUP flushes
// the whole queue at the start of each update transaction; between flushes
// the Eager-Compensation machinery reads (without removing) the pending
// deltas of a given source to roll poll answers back to the reflected state.

#ifndef SQUIRREL_MEDIATOR_UPDATE_QUEUE_H_
#define SQUIRREL_MEDIATOR_UPDATE_QUEUE_H_

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/memory_budget.h"
#include "common/status.h"
#include "source/messages.h"

namespace squirrel {

/// \brief FIFO of update announcements with ECA read access.
class UpdateQueue {
 public:
  UpdateQueue() = default;
  /// Returns whatever the queue still has charged to the memory budget.
  ~UpdateQueue();
  UpdateQueue(const UpdateQueue&) = delete;
  UpdateQueue& operator=(const UpdateQueue&) = delete;

  /// Appends a message (called by the mediator's channel receiver). When a
  /// coalesce window is set and WouldCoalesce(msg) holds, the message is
  /// merged into the tail instead: deltas smash, the tail takes the later
  /// seq and send_time. Because only consecutive same-source tail messages
  /// merge — messages that would be flushed in the same transaction anyway —
  /// transaction boundaries and PendingFrom are unaffected; the win is
  /// net-change cancellation and fewer per-message loops downstream.
  void Enqueue(UpdateMessage msg);

  /// The tail merge Enqueue applies when WouldCoalesce holds, shared with
  /// WAL replay so a logged coalesced enqueue reproduces the live merge
  /// byte for byte: the deltas smash, and the tail takes \p msg's seq,
  /// epoch and send_time.
  static void MergeIntoTail(UpdateMessage* tail, const UpdateMessage& msg);

  /// True iff Enqueue would merge \p msg into the current tail: a window is
  /// configured, the tail exists, comes from the same source IN THE SAME
  /// incarnation epoch, and \p msg's send_time is within the window of the
  /// tail's. Epochs never merge: coalescing across a restart would stamp
  /// pre-restart atoms with the post-restart epoch and poison the per-epoch
  /// seq dedup floor. The mediator consults this BEFORE writing the enqueue
  /// WAL record so replay can mirror the merge decision exactly.
  bool WouldCoalesce(const UpdateMessage& msg) const;

  /// Sets the coalescing batch window (0 disables, the default).
  void SetCoalesceWindow(Time window) { coalesce_window_ = window; }
  /// The configured coalescing window.
  Time coalesce_window() const { return coalesce_window_; }

  /// Backpressure shed: merges the oldest message that has a later message
  /// from the same source forward into that later message, freeing one
  /// queue slot without losing any net change (per-source FIFO order and
  /// PendingFrom are unaffected). Returns false when no
  /// two messages share a source, i.e. the queue cannot shrink losslessly.
  /// The mediator invokes this only while a source is resyncing and
  /// MediatorOptions::max_queue_depth is exceeded — never silently in
  /// normal operation.
  bool CoalesceOldest();

  /// True iff CoalesceOldest would succeed: some message has a later message
  /// from the same source. The mediator consults this BEFORE writing the
  /// shed WAL record so a logged shed always corresponds to a real merge —
  /// shed records and live merges stay in lockstep even when the log device
  /// rejects the write (the shed is then skipped, not left unlogged).
  bool CanCoalesceOldest() const;

  /// The shed algorithm on a raw deque, shared with WAL replay so a logged
  /// shed record reproduces the live queue's merge exactly. \p skip protects
  /// the first messages from the search: replay's queue still holds an open
  /// transaction's flushed messages at the front, which the live queue had
  /// already handed out when it shed.
  static bool CoalesceOldestIn(std::deque<UpdateMessage>* q, size_t skip = 0);

  /// True iff no messages are waiting.
  bool Empty() const { return messages_.empty(); }
  /// Number of waiting messages.
  size_t Size() const { return messages_.size(); }

  /// Removes and returns all waiting messages, in arrival order. This is
  /// the empty_queue(t) instant of paper §6.1.
  std::vector<UpdateMessage> Flush();

  /// Puts flushed-but-unprocessed messages back at the FRONT of the queue,
  /// preserving their order. Used when an update transaction aborts (poll
  /// timeout): the messages are older than anything that arrived since, so
  /// re-queueing at the front keeps every source's FIFO stream intact.
  void Requeue(std::vector<UpdateMessage> msgs);

  /// Copy of all waiting messages in queue order (front first). Used by the
  /// durability checkpointer; does not remove anything.
  std::vector<UpdateMessage> Snapshot() const;

  /// Replaces the queue contents with \p msgs (front first) without touching
  /// the lifetime counters. Crash recovery rebuilds the queue with this;
  /// Crash() wipes it with an empty vector.
  void Restore(std::vector<UpdateMessage> msgs);

  /// Smash of the deltas of all *waiting* messages from \p source (arrival
  /// order). Used by Eager Compensation; does not remove anything.
  Result<MultiDelta> PendingFrom(const std::string& source) const;

  /// Total messages ever enqueued.
  uint64_t TotalEnqueued() const { return total_enqueued_; }
  /// Total messages ever re-queued after an aborted transaction.
  uint64_t TotalRequeued() const { return total_requeued_; }
  /// Total messages merged into a tail message instead of appended.
  uint64_t TotalCoalesced() const { return total_coalesced_; }
  /// Total messages shed by CoalesceOldest (backpressure during resync).
  uint64_t TotalShed() const { return total_shed_; }

 private:
  /// Approximate bytes of the current contents (message + atom heuristic).
  size_t ApproxBytesOf() const;
  /// Re-syncs the memory-budget charge with the current contents: charges
  /// growth, releases shrinkage (DESIGN.md §15). Every mutator calls this.
  void Recharge();

  std::deque<UpdateMessage> messages_;
  Time coalesce_window_ = 0.0;
  uint64_t total_enqueued_ = 0;
  uint64_t total_requeued_ = 0;
  uint64_t total_coalesced_ = 0;
  uint64_t total_shed_ = 0;
  // Memory-budget accounting state (see Recharge).
  MemoryBudget* budget_ = nullptr;
  size_t charged_ = 0;
};

}  // namespace squirrel

#endif  // SQUIRREL_MEDIATOR_UPDATE_QUEUE_H_
