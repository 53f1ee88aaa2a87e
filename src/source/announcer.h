// Active-source machinery: update announcers and the poll responder.
//
// Announcer gives a source database the "active" capability paper §4
// requires of materialized- and hybrid-contributors: it batches committed
// deltas and ships them as single net-change messages, either immediately
// (period 0) or periodically (the paper's ann_delay policy knob).
//
// PollResponder answers VAP polls after a simulated processing delay; for
// hybrid contributors it flushes the announcer *before* answering on the
// same FIFO channel, which is the ordering Eager Compensation relies on.
//
// Both cooperate with an optional FaultInjector: a crashed source answers
// no polls (requests received or in flight during the window are lost) and
// holds announcements until recovery; slow-poll faults stretch response
// processing. The flush-before-answer ordering is preserved across all of
// it, so Eager Compensation stays correct under faults.

#ifndef SQUIRREL_SOURCE_ANNOUNCER_H_
#define SQUIRREL_SOURCE_ANNOUNCER_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "source/messages.h"
#include "source/source_db.h"

namespace squirrel {

/// \brief Batches a source's committed deltas into UpdateMessages.
class Announcer {
 public:
  /// \param db the source to announce for (installs its commit and restart
  ///        listeners; must outlive the announcer)
  /// \param scheduler event loop (not owned)
  /// \param channel FIFO link to the mediator (not owned)
  /// \param period announcement period; 0 announces on every commit
  /// \param faults optional fault injector (not owned; nullptr = no faults)
  Announcer(SourceDb* db, Scheduler* scheduler,
            Channel<SourceToMediatorMsg>* channel, Time period,
            FaultInjector* faults = nullptr);
  /// Removes both listeners from the source.
  ~Announcer();
  Announcer(const Announcer&) = delete;
  Announcer& operator=(const Announcer&) = delete;

  /// Begins periodic announcements (no-op for period 0, which is push-based).
  void Start();

  /// Sends any pending delta immediately (used before answering polls and by
  /// tests). No message is sent if nothing is pending; if the source is
  /// crashed the batch is held and re-probed until recovery.
  void FlushNow();

  /// Announcement period.
  Time period() const { return period_; }
  /// Sequence-number high water of the CURRENT incarnation (resets to 0
  /// when the source restarts).
  uint64_t AnnouncementCount() const { return seq_; }
  /// True iff commits since the last announcement are waiting.
  bool HasPending() const { return !pending_.Empty(); }
  /// Restarts observed (volatile state wiped + hello announcements sent).
  uint64_t RestartCount() const { return restarts_; }

 private:
  void OnCommit(Time now, const MultiDelta& delta);
  void OnRestart(Time now);
  void Tick();

  SourceDb* db_;
  Scheduler* scheduler_;
  Channel<SourceToMediatorMsg>* channel_;
  Time period_;
  FaultInjector* faults_;
  SourceDb::ListenerId commit_listener_;
  SourceDb::ListenerId restart_listener_;
  MultiDelta pending_;
  uint64_t seq_ = 0;
  uint64_t restarts_ = 0;
  bool started_ = false;
  bool crash_probe_pending_ = false;
};

/// \brief Answers PollRequests against a source's current state.
class PollResponder {
 public:
  /// \param db the source answering polls (not owned)
  /// \param scheduler event loop (not owned)
  /// \param out FIFO link to the mediator — the SAME channel the announcer
  ///        uses, so answers serialize after flushed updates (not owned)
  /// \param announcer flushed before answering (nullptr for pure
  ///        virtual-contributors, which have no announcer)
  /// \param q_proc_delay simulated per-request processing time
  /// \param faults optional fault injector (not owned; nullptr = no faults)
  PollResponder(SourceDb* db, Scheduler* scheduler,
                Channel<SourceToMediatorMsg>* out, Announcer* announcer,
                Time q_proc_delay, FaultInjector* faults = nullptr);

  /// Handles an incoming request: after q_proc_delay (plus any slow-poll
  /// fault), evaluates every poll against one state, flushes the announcer,
  /// then sends the answer. Requests hitting a crashed source are lost.
  /// A request received at or past its deadline is rejected immediately
  /// with an empty answer carrying retry_after (no evaluation, no flush).
  void OnRequest(PollRequest request);

  /// Handles an anti-entropy snapshot pull: after the same processing delay
  /// as a poll, flushes the announcer and then sends the full extents of the
  /// requested relations. The flush-before-answer ordering on the shared
  /// FIFO channel guarantees the snapshot covers every update message sent
  /// before it, so `announce_seq` is a safe dedup floor for the mediator.
  void OnSnapshotRequest(SnapshotRequest request);

  /// Dispatches a mediator->source message to the right handler.
  void OnMessage(MediatorToSourceMsg msg);

  /// Requests answered so far (polls and snapshots).
  uint64_t AnsweredCount() const { return answered_; }
  /// Requests lost to crash windows.
  uint64_t DroppedCount() const { return dropped_; }
  /// Snapshot requests answered so far.
  uint64_t SnapshotsAnswered() const { return snapshots_answered_; }
  /// Requests refused because they arrived at or past their deadline.
  uint64_t DeadlineRejects() const { return deadline_rejects_; }
  /// Simulated per-request processing time.
  Time q_proc_delay() const { return q_proc_delay_; }

 private:
  SourceDb* db_;
  Scheduler* scheduler_;
  Channel<SourceToMediatorMsg>* out_;
  Announcer* announcer_;
  Time q_proc_delay_;
  FaultInjector* faults_;
  uint64_t answered_ = 0;
  uint64_t dropped_ = 0;
  uint64_t snapshots_answered_ = 0;
  uint64_t deadline_rejects_ = 0;
};

/// Schedules SourceDb::Restart(end) for every restart window the fault plan
/// holds for \p db. Call once at simulation start (the mediator does this
/// when wiring a source with a fault injector). Safe for passive sources
/// too: the epoch bump then only shows up in poll answers.
void ScheduleSourceRestarts(SourceDb* db, Scheduler* scheduler,
                            FaultInjector* faults);

}  // namespace squirrel

#endif  // SQUIRREL_SOURCE_ANNOUNCER_H_
