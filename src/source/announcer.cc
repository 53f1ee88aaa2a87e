#include "source/announcer.h"

#include <functional>
#include <utility>

#include "common/logging.h"
#include "mediator/durability/serialize.h"

namespace squirrel {

namespace {

/// Schedules \p fn on \p scheduler after \p delay, to do nothing if \p alive
/// has expired by then: the scheduler outlives the mediator that owns the
/// announcers and responders, and so the events they leave queued.
void AfterWhileAlive(Scheduler* scheduler, Time delay,
                     const std::shared_ptr<const bool>& alive,
                     std::function<void()> fn) {
  scheduler->After(delay, [alive = std::weak_ptr<const bool>(alive),
                           fn = std::move(fn)]() {
    if (!alive.expired()) fn();
  });
}

}  // namespace

Announcer::Announcer(SourceDb* db, Scheduler* scheduler,
                     Channel<SourceToMediatorMsg>* channel, Time period,
                     FaultInjector* faults)
    : db_(db),
      scheduler_(scheduler),
      channel_(channel),
      period_(period),
      faults_(faults),
      commit_listener_(db_->AddCommitListener(
          [this](Time now, const MultiDelta& delta) { OnCommit(now, delta); })),
      restart_listener_(
          db_->AddRestartListener([this](Time now) { OnRestart(now); })) {}

Announcer::~Announcer() {
  db_->RemoveCommitListener(commit_listener_);
  db_->RemoveRestartListener(restart_listener_);
}

void Announcer::Start() {
  if (started_ || period_ <= 0) return;
  started_ = true;
  AfterWhileAlive(scheduler_, period_, alive_, [this]() { Tick(); });
}

void Announcer::OnCommit(Time now, const MultiDelta& delta) {
  (void)now;
  Status st = pending_.SmashInPlace(delta);
  if (!st.ok()) {
    SQ_LOG(kError) << "announcer smash failed: " << st.ToString();
    return;
  }
  if (period_ <= 0) FlushNow();
}

void Announcer::FlushNow() {
  if (pending_.Empty()) return;
  if (faults_ != nullptr &&
      (faults_->Crashed(db_->name(), scheduler_->Now()) ||
       faults_->MediatorCrashed(scheduler_->Now()))) {
    // Source or mediator is down: hold the batch and re-probe until the
    // crash window ends. Smashing keeps later commits folded into the held
    // net change; the restored dedup state at the mediator suppresses any
    // copy the ARQ layer delivers twice around the window.
    if (!crash_probe_pending_) {
      crash_probe_pending_ = true;
      AfterWhileAlive(scheduler_, faults_->plan().crash_probe_period, alive_,
                      [this]() {
                        crash_probe_pending_ = false;
                        FlushNow();
                      });
    }
    return;
  }
  UpdateMessage msg;
  msg.source = db_->name();
  msg.send_time = scheduler_->Now();
  msg.seq = ++seq_;
  msg.epoch = db_->epoch();
  msg.delta = std::move(pending_);
  pending_ = MultiDelta();
  msg.checksum = ChecksumUpdateMessage(msg);
  channel_->Send(SourceToMediatorMsg(std::move(msg)));
}

void Announcer::OnRestart(Time now) {
  (void)now;
  ++restarts_;
  // Volatile session state is gone: the batch the old incarnation never
  // shipped is lost (only resync can recover those commits) and sequence
  // numbering starts over under the new epoch.
  pending_ = MultiDelta();
  seq_ = 0;
  // Announce the new incarnation immediately with an empty "hello" message
  // so the mediator detects the epoch bump even if the source never commits
  // again. An ARQ hook defers the delivery past any mediator crash window.
  UpdateMessage hello;
  hello.source = db_->name();
  hello.send_time = scheduler_->Now();
  hello.seq = ++seq_;
  hello.epoch = db_->epoch();
  hello.checksum = ChecksumUpdateMessage(hello);
  channel_->Send(SourceToMediatorMsg(std::move(hello)));
}

void Announcer::Tick() {
  FlushNow();
  AfterWhileAlive(scheduler_, period_, alive_, [this]() { Tick(); });
}

PollResponder::PollResponder(SourceDb* db, Scheduler* scheduler,
                             Channel<SourceToMediatorMsg>* out,
                             Announcer* announcer, Time q_proc_delay,
                             FaultInjector* faults)
    : db_(db),
      scheduler_(scheduler),
      out_(out),
      announcer_(announcer),
      q_proc_delay_(q_proc_delay),
      faults_(faults) {}

void PollResponder::OnRequest(PollRequest request) {
  if (faults_ != nullptr && faults_->Crashed(db_->name(), scheduler_->Now())) {
    ++dropped_;  // the request reached a crashed source and is lost
    return;
  }
  if (request.deadline > 0 && scheduler_->Now() >= request.deadline) {
    // The querying tier's remaining budget is already spent: evaluating the
    // polls (and flushing the announcer) would produce an answer nobody can
    // use. Reject immediately with a retry-after hint instead — this is the
    // cross-tier half of deadline propagation.
    ++deadline_rejects_;
    PollAnswer reject;
    reject.id = request.id;
    reject.source = db_->name();
    reject.answered_at = scheduler_->Now();
    reject.epoch = db_->epoch();
    reject.retry_after = scheduler_->Now() + q_proc_delay_;
    out_->Send(SourceToMediatorMsg(std::move(reject)));
    return;
  }
  Time extra =
      faults_ != nullptr ? faults_->SlowPollExtra(scheduler_->Now()) : 0.0;
  AfterWhileAlive(scheduler_, q_proc_delay_ + extra, alive_,
                  [this, req = std::move(request)]() {
    if (faults_ != nullptr &&
        faults_->Crashed(db_->name(), scheduler_->Now())) {
      ++dropped_;  // crashed while processing: the answer never leaves
      return;
    }
    PollAnswer answer;
    answer.id = req.id;
    answer.source = db_->name();
    answer.answered_at = scheduler_->Now();
    answer.epoch = db_->epoch();
    answer.results.reserve(req.polls.size());
    for (const PollSpec& poll : req.polls) {
      auto result = db_->Query(poll.relation, poll.attrs, poll.cond);
      if (!result.ok()) {
        SQ_LOG(kError) << "poll of " << db_->name() << "." << poll.relation
                       << " failed: " << result.status().ToString();
        answer.results.emplace_back();  // empty marker; mediator validates
        continue;
      }
      answer.results.push_back(std::move(result).value());
    }
    ++answered_;
    // Flush pending updates BEFORE the answer so ECA sees everything the
    // source committed up to the answered_at state.
    if (announcer_ != nullptr) announcer_->FlushNow();
    out_->Send(SourceToMediatorMsg(std::move(answer)));
  });
}

void PollResponder::OnSnapshotRequest(SnapshotRequest request) {
  if (faults_ != nullptr && faults_->Crashed(db_->name(), scheduler_->Now())) {
    ++dropped_;  // the request reached a crashed source and is lost
    return;
  }
  Time extra =
      faults_ != nullptr ? faults_->SlowPollExtra(scheduler_->Now()) : 0.0;
  AfterWhileAlive(scheduler_, q_proc_delay_ + extra, alive_,
                  [this, req = std::move(request)]() {
    if (faults_ != nullptr &&
        faults_->Crashed(db_->name(), scheduler_->Now())) {
      ++dropped_;  // crashed while processing: the answer never leaves
      return;
    }
    // Flush BEFORE reading the state so every previously committed delta is
    // either already on the channel ahead of the snapshot (FIFO) or folded
    // into the snapshot itself; announce_seq is then a safe dedup floor.
    if (announcer_ != nullptr) announcer_->FlushNow();
    SnapshotAnswer answer;
    answer.id = req.id;
    answer.source = db_->name();
    answer.answered_at = scheduler_->Now();
    answer.epoch = db_->epoch();
    answer.announce_seq =
        announcer_ != nullptr ? announcer_->AnnouncementCount() : 0;
    for (const std::string& rel_name : req.relations) {
      auto rel = db_->Current(rel_name);
      if (!rel.ok()) {
        SQ_LOG(kError) << "snapshot of " << db_->name() << "." << rel_name
                       << " failed: " << rel.status().ToString();
        continue;  // mediator re-requests on timeout
      }
      answer.relations.emplace(rel_name, *rel.value());
    }
    answer.checksum = ChecksumSnapshotAnswer(answer);
    if (faults_ != nullptr &&
        faults_->CorruptSnapshotPayload(scheduler_->Now())) {
      // Injected payload corruption, modeled as a perturbed checksum: the
      // mediator's verification MUST catch it and re-request rather than
      // apply a poisoned snapshot.
      answer.checksum ^= 0x1u;
    }
    ++answered_;
    ++snapshots_answered_;
    out_->Send(SourceToMediatorMsg(std::move(answer)));
  });
}

void PollResponder::OnMessage(MediatorToSourceMsg msg) {
  if (std::holds_alternative<PollRequest>(msg)) {
    OnRequest(std::move(std::get<PollRequest>(msg)));
  } else {
    OnSnapshotRequest(std::move(std::get<SnapshotRequest>(msg)));
  }
}

void ScheduleSourceRestarts(SourceDb* db, Scheduler* scheduler,
                            FaultInjector* faults) {
  if (faults == nullptr) return;
  for (const CrashWindow& w : faults->RestartWindows(db->name())) {
    Time delay = w.end - scheduler->Now();
    if (delay < 0) continue;
    scheduler->After(delay, [db, scheduler]() {
      db->Restart(scheduler->Now());
    });
  }
}

}  // namespace squirrel
