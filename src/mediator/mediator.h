// Squirrel integration mediators (paper §4, Figure 3).
//
// A Mediator owns the five components of the paper's architecture — local
// store, query processor, virtual attribute processor, update queue, and
// incremental update processor — and wires them to simulated source
// databases through FIFO channels. Update and query transactions execute
// serially (paper §6.1); transactions that must poll sources span multiple
// simulation events and commit when the last answer has arrived.

#ifndef SQUIRREL_MEDIATOR_MEDIATOR_H_
#define SQUIRREL_MEDIATOR_MEDIATOR_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/query_class.h"
#include "common/status.h"
#include "mediator/admission.h"
#include "mediator/contributor.h"
#include "mediator/durability/durability.h"
#include "mediator/freshness.h"
#include "mediator/iup.h"
#include "mediator/local_store.h"
#include "mediator/query.h"
#include "mediator/query_processor.h"
#include "mediator/resync.h"
#include "mediator/trace.h"
#include "mediator/update_queue.h"
#include "mediator/vap.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "source/announcer.h"
#include "source/source_db.h"
#include "vdp/annotation.h"
#include "vdp/vdp.h"

namespace squirrel {

/// How one source database connects to the mediator.
struct SourceSetup {
  SourceDb* db = nullptr;     ///< not owned; must outlive the mediator
  Time comm_delay = 0.0;      ///< one-way channel latency
  Time q_proc_delay = 0.0;    ///< source-side poll processing time
  Time announce_period = 0.0; ///< 0 = announce on every commit
  /// Optional fault injector wired into this source's channels, announcer,
  /// and poll responder (not owned; nullptr = ideal network).
  FaultInjector* faults = nullptr;
  /// Whether Start() schedules the injector's planned source restarts. When
  /// one db feeds several mediators (sharded topologies), exactly one of the
  /// consumers may own the restart schedule or the db would restart twice
  /// per window; the others still share the injector's crash windows.
  bool schedule_restarts = true;
};

/// Mediator policy knobs.
struct MediatorOptions {
  VapStrategy strategy = VapStrategy::kAuto;
  /// 0 = start an update transaction as soon as a message arrives;
  /// > 0 = flush the queue periodically (the paper's u_hold policy).
  Time update_period = 0.0;
  Time u_proc_delay = 0.0;  ///< simulated per-update-transaction cost
  Time q_proc_delay = 0.0;  ///< simulated per-query-transaction cost
  bool record_trace = true;
  /// Snapshot every repository into the trace at update commits (needed by
  /// the consistency checker's validity test; costly on big stores).
  bool snapshot_repos = true;
  /// 0 disables poll supervision (a transaction waits forever, the paper's
  /// idealized network). > 0 = deadline for one polling round; sources that
  /// miss it are re-polled under fresh request ids, the deadline doubling
  /// per round. When the third re-poll round times out too, the transaction
  /// gives up and the silent sources are quarantined: update transactions
  /// re-queue their messages and retry later, query transactions fail over
  /// to the caller with kUnavailable.
  Time poll_timeout = 0.0;
  /// Delay before an aborted update transaction is retried.
  Time txn_retry_delay = 1.0;
  /// Durability of the mediator's hard state (checkpoint + write-ahead
  /// log). Default-constructed options have no log device and disable
  /// durability entirely; see mediator/durability/durability.h.
  DurabilityOptions durability;
  /// Update-queue delta batching: consecutive announcements from the same
  /// source whose send times are within this window are merged into one
  /// queue entry (see UpdateQueue::Enqueue). 0 disables coalescing.
  Time coalesce_window = 0.0;
  /// Serve queries over suspect/resyncing/quarantined sources from the
  /// materialized repositories with per-source staleness annotations
  /// (ViewAnswer::degraded) instead of failing with kUnavailable. Off =
  /// the pre-existing behavior: such queries poll, time out, and fail.
  bool degraded_reads = false;
  /// Backpressure: while any source is resyncing, cap the update queue at
  /// this many messages by losslessly merging the oldest same-source pair
  /// (UpdateQueue::CoalesceOldest). 0 disables the cap. Normal-operation
  /// queues are never shed.
  size_t max_queue_depth = 0;
  // ---- concurrency (MVCC reads) ----
  /// MVCC reads: serve poll-free queries from the latest committed store
  /// snapshot instead of enqueueing them behind the transaction queue —
  /// queries never block on (or behind) an in-flight update transaction
  /// and never observe a half-committed one. Queries that must poll
  /// sources still serialize as transactions. Off = every query is a
  /// serialized transaction (the pre-existing behavior and the oracle).
  bool mvcc_reads = false;
  // ---- overload protection (DESIGN.md §15) ----
  /// Per-class admission limits. All-zero (the default) disables the gate.
  AdmissionOptions admission;
  /// Ceiling on the backed-off poll deadline (applied after jitter);
  /// 0 = uncapped (the pre-existing unbounded exponential backoff).
  Time poll_backoff_cap = 0.0;
  /// Max fractional jitter added to each armed poll deadline: the delay is
  /// multiplied by a deterministic factor in [1, 1 + poll_jitter] drawn
  /// from (poll_jitter_seed, generation, attempt). 0 = no jitter.
  double poll_jitter = 0.0;
  uint64_t poll_jitter_seed = 0;
};

/// The (deterministic) delay ArmPollTimeout arms for re-poll round
/// \p attempt of polling round \p generation: poll_timeout doubled per
/// attempt, jittered, then capped at poll_backoff_cap.
/// Exposed as a free function so tests can assert cap and determinism.
Time PollBackoffDelay(const MediatorOptions& options, int attempt,
                      uint64_t generation);

/// Aggregate counters over a mediator's lifetime.
struct MediatorStats {
  uint64_t update_txns = 0;
  uint64_t query_txns = 0;
  uint64_t polls = 0;
  uint64_t polled_tuples = 0;
  uint64_t messages_received = 0;
  IupStats iup;
  // ---- robustness counters (all zero on an ideal network) ----
  uint64_t duplicate_updates_dropped = 0;  ///< seq-suppressed retransmits
  uint64_t stale_poll_answers = 0;  ///< answers to superseded/absent polls
  uint64_t poll_timeouts = 0;       ///< polling rounds that hit a deadline
  uint64_t poll_retries = 0;        ///< per-source re-polls issued
  uint64_t update_txn_aborts = 0;   ///< update txns re-queued after timeout
  uint64_t failed_queries = 0;      ///< queries failed over with kUnavailable
  uint64_t quarantines = 0;         ///< sources marked stale after retries
  /// Quarantines of a source that had already been quarantined and cleared
  /// before — distinct from `quarantines` so rejoin-then-fail cycling is
  /// visible (every requarantine also counts in `quarantines`).
  uint64_t requarantines = 0;
  // ---- source restart / resync counters ----
  uint64_t epoch_bumps = 0;         ///< new source incarnations observed
  uint64_t seq_gap_resyncs = 0;     ///< resyncs triggered by a sequence gap
  uint64_t resyncs_started = 0;     ///< healthy -> resyncing transitions
  uint64_t resyncs_completed = 0;   ///< corrective deltas enqueued
  uint64_t snapshots_requested = 0; ///< SnapshotRequests sent (incl. retries)
  uint64_t updates_dropped_resync = 0;  ///< updates dropped while resyncing
  uint64_t stale_epoch_msgs = 0;    ///< messages from a dead incarnation
  uint64_t updates_shed = 0;        ///< backpressure merges (CoalesceOldest)
  uint64_t degraded_queries = 0;    ///< queries answered in degraded mode
  // ---- crash/recovery counters (zero unless Crash/Recover were used) ----
  uint64_t mediator_crashes = 0;    ///< Crash() calls that took effect
  uint64_t recoveries = 0;          ///< successful Recover() calls
  uint64_t recovery_txns_rolled_back = 0;  ///< dangling txns undone at recovery
  uint64_t recovery_msgs_requeued = 0;  ///< messages re-queued by rollbacks
  uint64_t recovery_txns_replayed = 0;  ///< committed txns redone at recovery
  uint64_t msgs_dropped_at_crash = 0;  ///< deliveries into a crashed mediator
  // ---- MVCC counters (zero unless mvcc_reads is on) ----
  uint64_t snapshot_queries = 0;     ///< queries served from a snapshot
  uint64_t snapshots_published = 0;  ///< store versions published
  uint64_t snapshot_copies = 0;  ///< whole-repository copies those made
  // ---- storage integrity counters (zero on a healthy disk) ----
  uint64_t wal_append_failures = 0;  ///< Log* calls the device rejected
  uint64_t updates_dropped_wal = 0;  ///< announcements dropped because their
                                     ///< enqueue record never became durable
  uint64_t checkpoint_failures = 0;  ///< checkpoint writes that failed
  uint64_t recovery_tail_repairs = 0;       ///< damaged tail records dropped
  uint64_t recovery_checkpoint_fallbacks = 0;  ///< generations fallen back
  uint64_t resyncs_after_recovery = 0;  ///< paranoid/anomaly resyncs issued
  uint64_t update_checksum_failures = 0;    ///< corrupt updates dropped
  uint64_t snapshot_checksum_failures = 0;  ///< corrupt snapshots re-requested
  // ---- overload-protection counters (zero unless deadlines/admission/
  // ---- memory budgets are configured) ----
  uint64_t deadline_exceeded_queries = 0;  ///< queries resolved past deadline
  uint64_t queries_rejected_overload = 0;  ///< admission-gate rejections
  uint64_t queries_shed_soft_budget = 0;   ///< kBatch sheds (soft mem limit)
  uint64_t queries_cancelled_memory = 0;   ///< hard-limit budget cancellations
  uint64_t poll_rejects = 0;  ///< PollAnswers refused with retry_after set

  /// Renders EVERY counter (including the IUP block), one `name=value` per
  /// line. The implementation static_asserts on sizeof(MediatorStats), so a
  /// newly added counter cannot dodge the crash/recovery determinism sweeps
  /// that byte-compare this rendering between a run and its replay.
  std::string ToString() const;
};

/// \brief A generated Squirrel integration mediator.
class Mediator {
 public:
  /// Builds a mediator for \p vdp with \p ann over \p sources. Validates
  /// that every VDP leaf maps to a declared relation of a given source.
  static Result<std::unique_ptr<Mediator>> Create(
      Vdp vdp, Annotation ann, std::vector<SourceSetup> sources,
      Scheduler* scheduler, MediatorOptions options = {});

  /// Initializes the view from the sources' current states (t_view_init),
  /// installs channel receivers, starts announcers and the update policy.
  Status Start();

  /// Submits a query; the callback fires at the query transaction's commit
  /// (same event when no polling is needed). Transactions serialize. While
  /// the mediator is crashed the callback fires immediately with
  /// kUnavailable.
  void SubmitQuery(const ViewQuery& q,
                   std::function<void(Result<ViewAnswer>)> callback);

  // ---- crash/recovery (paper has no story here; see DESIGN.md) ----

  /// Kills the mediator in place: all volatile state — repositories, update
  /// queue, per-source dedup/reflect state, in-flight transactions, pending
  /// timers — is wiped, exactly as a process crash would. The trace and the
  /// stats counters survive (they model external observability, not process
  /// memory). No-op if not started or already crashed.
  void Crash();

  /// Restarts a crashed mediator from its durable state: loads the latest
  /// checkpoint, replays committed transactions from the write-ahead log,
  /// re-queues the messages of uncommitted ones (UpdateQueue::Requeue
  /// ordering), restores dedup state so redelivered announcements are
  /// suppressed, and re-arms the update policy. Fails if durability is
  /// disabled (the state is simply gone).
  Status Recover();

  /// Crash() immediately followed by Recover(), as one atomic simulation
  /// step — no deliveries can land in between. Used by the crash-point
  /// sweep, where the crash instant is chosen by WAL position rather than
  /// by a pre-planned fault window.
  Status CrashAndRecover();

  /// True between Crash() and a successful Recover().
  bool crashed() const { return crashed_; }

  // ---- introspection ----
  const Vdp& vdp() const { return vdp_; }
  const Annotation& annotation() const { return ann_; }
  const LocalStore& store() const { return *store_; }
  const Trace& trace() const { return *trace_; }
  const MediatorStats& stats() const { return stats_; }
  Scheduler& scheduler() { return *scheduler_; }

  /// Contributor classification per source, in source order.
  std::vector<ContributorKind> ContributorKinds() const;
  /// Source names in mediator order (the reflect-vector order).
  std::vector<std::string> SourceNames() const;
  /// Delay profiles from the setups (for Theorem 7.2 bounds).
  std::vector<DelayProfile> DelayProfiles() const;
  /// The mediator-side delays (for Theorem 7.2 bounds).
  MediatorDelays Delays() const;
  /// Approximate bytes held in materialized repositories.
  size_t StoreBytes() const { return store_->ApproxBytes(); }
  /// True iff a transaction is executing (between start and commit).
  bool busy() const { return busy_; }
  /// Number of update messages waiting in the queue.
  size_t QueueSize() const { return queue_.Size(); }
  /// Sources currently quarantined as stale (exceeded their poll retries
  /// without answering; cleared by the next message they deliver).
  std::vector<std::string> QuarantinedSources() const;
  /// Per-source epoch/health/mirror state (the resync lifecycle).
  const ResyncManager& resync() const { return resync_; }
  /// Admission gate state (in-flight per class, rejection counters).
  const AdmissionGate& admission() const { return admission_; }
  /// Durability manager (WAL/checkpoint counters; disabled() if no device).
  const DurabilityManager& durability() const { return durability_; }
  /// Adds a listener invoked after every committed update transaction with
  /// the commit time and the exact narrowed per-node deltas the repositories
  /// absorbed (the same capture the WAL commit record carries). This is the
  /// composition hook: an ExportAnnouncer mirrors the exported nodes of this
  /// mediator into a SourceDb a parent mediator consumes. Listeners fire
  /// inside the commit event, after the new store version is published and
  /// before the commit record is logged; they accumulate in installation
  /// order and survive Crash()/Recover() (the listener belongs to the
  /// deployment wiring, not to the incarnation).
  void AddCommitListener(
      std::function<void(Time, const std::map<std::string, Delta>&)> fn) {
    commit_listeners_.push_back(std::move(fn));
  }

  /// Messages merged into a queue tail by delta coalescing (0 when the
  /// coalesce window is disabled). Not part of MediatorStats: the trace
  /// renderer's output must stay byte-comparable across batching configs.
  uint64_t CoalescedMessages() const { return queue_.TotalCoalesced(); }

 private:
  struct SourceRuntime {
    SourceSetup setup;
    ContributorKind kind = ContributorKind::kMaterialized;
    size_t index = 0;
    std::unique_ptr<Channel<SourceToMediatorMsg>> inbound;
    std::unique_ptr<Channel<MediatorToSourceMsg>> outbound;
    std::unique_ptr<Announcer> announcer;
    std::unique_ptr<PollResponder> responder;
    Time last_reflected_send = 0;
    /// Highest announcement sequence number accepted within the source's
    /// current epoch; retransmits at or below it are duplicates and must
    /// not be applied twice.
    uint64_t last_update_seq = 0;
    /// True while the source is considered stale (poll retries exhausted).
    bool quarantined = false;
    /// True once the source has ever been quarantined (drives the
    /// `requarantines` counter; survives ClearQuarantine).
    bool ever_quarantined = false;
    /// Timed-out polling rounds this source stayed silent for since it last
    /// proved alive (reset by ClearQuarantine).
    int poll_failures = 0;
  };

  /// Shared lifecycle state of one submitted query, from admission to its
  /// single resolution. Shared (not owned by the transaction queue) because
  /// three parties can race to resolve it across events: the normal
  /// completion path, the deadline timer, and a memory-budget cancellation
  /// surfacing through a check site. `resolved` makes resolution
  /// first-wins; ResolveQuery() is the only place the callback fires.
  struct QueryRun {
    /// The query, prepared and planned once at submission. Both read only
    /// the query and the static annotation, so snapshot eligibility, the
    /// transaction and a deadline-degraded answer all reuse them.
    PreparedQuery prepared;
    /// The VAP plan the query needs; empty when the materialized data
    /// suffices. RunQueryTxn binds its key sets as the transaction starts.
    VapPlan plan;
    std::function<void(Result<ViewAnswer>)> cb;
    /// Cancelled by the deadline timer or the memory budget's hard limit;
    /// installed thread-locally (ScopedCancelScope) around execution.
    CancelToken cancel;
    /// Set once the callback has fired; later resolution attempts no-op.
    bool resolved = false;
    /// Set once the query holds the transaction slot or took the snapshot
    /// path. Only a started query is served its materialized fraction at
    /// its deadline; a still-queued one expires with kDeadlineExceeded.
    bool started = false;
  };

  struct PollWait {
    size_t remaining = 0;
    std::map<std::string, std::deque<Relation>> ready;
    std::map<std::string, Time> answered_at;
    /// Queue contents from each source snapshotted the instant its answer
    /// arrived: FIFO guarantees exactly these updates are reflected in the
    /// answer, so they are what Eager Compensation must subtract. Updates
    /// arriving later (while other sources' answers are still in flight)
    /// are NOT in the answer and must not be compensated.
    std::map<std::string, MultiDelta> pending_at_answer;
    std::function<void()> on_complete;
    /// Distinguishes this wait from earlier ones so backed-off timeout
    /// events scheduled for a finished round become no-ops.
    uint64_t generation = 0;
    /// Re-poll rounds performed so far.
    int attempt = 0;
    /// Per-source resends issued (recorded into IupStats::poll_retries).
    uint64_t resends = 0;
    /// Requests not yet answered, keyed by source. An answer is accepted
    /// only if its id matches — late answers to superseded requests and
    /// duplicate deliveries are dropped as stale.
    std::map<std::string, PollRequest> outstanding;
    /// Invoked instead of on_complete when retries are exhausted.
    std::function<void(const Status&)> on_failure;
  };

  Mediator() = default;

  void OnSourceMessage(SourceToMediatorMsg msg);
  void EnqueueTxn(std::function<void()> txn);
  void StartNextTxn();
  void FinishTxn();
  void ScheduleUpdateTxn();
  void PeriodicTick();
  void RunUpdateTxn();
  void RunQueryTxn(std::shared_ptr<QueryRun> run);
  /// Executes \p run's plan and answers its query inside the query's cancel
  /// scope. \p snap set = the MVCC path, reading that snapshot.
  Result<QueryProcessor::LocalAnswer> ComputeQuery(
      QueryRun& run, const Vap::PollFn& poll, const Vap::CompensationFn& comp,
      const StoreSnapshot* snap) const;
  /// The query commit step shared by the snapshot, serialized and polling
  /// paths: stamps the commit time, records the kQuery trace entry, counts
  /// the query and its polls, and resolves it.
  void CommitQuery(const std::shared_ptr<QueryRun>& run, ViewAnswer answer);
  /// The single resolution point for a query: fires the callback exactly
  /// once (first caller wins), releases the admission slot and, when the
  /// query holds it, the transaction slot, and counts the new typed failure
  /// codes. Completion, deadline, and memory-cancel paths all funnel
  /// through here.
  void ResolveQuery(const std::shared_ptr<QueryRun>& run,
                    Result<ViewAnswer> answer);
  /// Deadline timer handler: cancels and resolves \p run if it is still
  /// unresolved — typed kDeadlineExceeded, or (with degraded_reads and a
  /// prepared query) the materialized fraction with staleness annotations.
  void OnQueryDeadline(std::shared_ptr<QueryRun> run);
  /// Sends grouped poll requests; invokes \p done when all answers arrived,
  /// or \p on_failure once the last of kPollMaxRetries re-poll rounds
  /// timed out.
  void IssuePolls(const VapPlan& plan, std::function<void()> done,
                  std::function<void(const Status&)> on_failure);
  /// Arms the (backed-off) deadline for the current polling round.
  void ArmPollTimeout();
  /// Deadline handler: re-polls silent sources or fails the transaction.
  void OnPollTimeout(uint64_t generation);
  /// Marks \p source stale after exhausted retries (idempotent).
  void Quarantine(const std::string& source);
  /// Clears a quarantine once the source proves alive again; also resets
  /// the poll-retry failure accounting so the rejoined source starts clean.
  void ClearQuarantine(SourceRuntime* rt);
  // ---- source resync (anti-entropy; see mediator/resync.h) ----
  /// Transitions \p rt to resyncing for \p new_epoch: logs the WAL begin,
  /// counts the transition, and requests a snapshot.
  void BeginResync(SourceRuntime* rt, uint64_t new_epoch);
  /// Sends a SnapshotRequest for every mirrored relation under a fresh id
  /// and arms the re-request deadline.
  void RequestSnapshot(SourceRuntime* rt);
  /// Handles a snapshot answer: synthesizes the corrective delta against
  /// believed state and enqueues it as an ordinary update message.
  void OnSnapshotAnswer(SnapshotAnswer ans);
  /// Backpressure: shed (lossless-merge) queue entries while a source is
  /// resyncing and the queue exceeds max_queue_depth.
  void MaybeShed();
  /// True iff \p appended is OK. Otherwise logs the rejected \p record and
  /// counts it in wal_append_failures: every Log* status passes through.
  bool WalAppended(const Status& appended, const char* record);
  /// Answers \p run's query from the repositories with staleness
  /// annotations (degraded mode). Fails over with kUnavailable when nothing
  /// is materialized for the query. \p immediate skips the q_proc_delay
  /// deferral — the deadline handler serves the materialized fraction in
  /// the deadline event itself, never after it.
  void ServeDegraded(std::shared_ptr<QueryRun> run, bool immediate);
  /// True iff \p rt's epoch/health state or quarantine makes polling it
  /// hopeless right now.
  bool SourceDown(const SourceRuntime& rt) const;
  /// Poll function serving answers collected by IssuePolls, in plan order.
  Vap::PollFn ReadyPollFn();
  /// Compensation against the queue and (for updates) the in-flight batch.
  Vap::CompensationFn MakeCompensation(
      const std::map<std::string, MultiDelta>* inflight) const;
  TimeVector QueryReflect(const std::vector<std::string>& polled) const;
  TimeVector UpdateReflect() const;
  void RecordUpdateCommit(const IupStats& stats, uint64_t polls);
  SourceRuntime* FindSource(const std::string& name);
  // ---- MVCC helpers ----
  /// Publishes the committed repositories as a new store version tagged
  /// with the current reflect vector. Called after init, every update
  /// commit, and recovery (only when mvcc_reads is on).
  void PublishStoreSnapshot();
  /// The MVCC fast path for a poll-free plan: answers \p run from the
  /// latest snapshot after q_proc_delay, without occupying the transaction
  /// queue.
  void ServeSnapshotQuery(std::shared_ptr<QueryRun> run);

  // ---- durability helpers ----
  /// Schedules \p fn after \p delay, but only runs it if the mediator has
  /// not crashed in between: a crash bumps epoch_, turning every timer of
  /// the dead incarnation into a no-op (a real crash loses its timers).
  void AfterGuarded(Time delay, std::function<void()> fn);
  /// Snapshot of the hard state for a checkpoint record.
  HardState BuildHardState() const;
  /// Writes a checkpoint if the policy says one is due (called post-commit).
  void MaybeCheckpoint();

  Vdp vdp_;
  Annotation ann_;
  MediatorOptions options_;
  Scheduler* scheduler_ = nullptr;
  std::vector<std::unique_ptr<SourceRuntime>> sources_;
  std::map<std::string, size_t> source_index_;

  std::unique_ptr<LocalStore> store_;
  std::unique_ptr<Vap> vap_;
  std::unique_ptr<Iup> iup_;
  std::unique_ptr<QueryProcessor> qp_;
  UpdateQueue queue_;
  std::unique_ptr<Trace> trace_;
  MediatorStats stats_;
  ResyncManager resync_;
  /// Id for the next SnapshotRequest. Persisted in checkpoints so a
  /// recovered mediator never accepts a snapshot answered to the dead
  /// incarnation.
  uint64_t next_resync_id_ = 1;
  /// The in-flight per-source batch of the currently committing update
  /// transaction (set for Eager Compensation AND the snapshot-answer path,
  /// whose corrective diff must count these not-yet-mirrored deltas as
  /// believed state). Null outside an update transaction.
  const std::map<std::string, MultiDelta>* current_inflight_ = nullptr;

  bool started_ = false;
  bool busy_ = false;
  bool update_txn_scheduled_ = false;
  std::deque<std::function<void()>> pending_txns_;
  /// Per-class admission gate (limits from options_.admission).
  AdmissionGate admission_;
  /// The query transaction currently executing (null between query txns and
  /// during update txns). ResolveQuery uses it to tell a running query
  /// (whose resolution also releases the slot and abandons the poll round)
  /// from a queued one; IssuePolls uses it to stamp deadlines/classes into
  /// PollRequests.
  std::shared_ptr<QueryRun> active_query_run_;
  std::optional<PollWait> poll_wait_;
  uint64_t next_poll_id_ = 1;
  uint64_t next_poll_generation_ = 1;

  // ---- durability state ----
  DurabilityManager durability_;
  bool crashed_ = false;
  /// Incarnation counter; bumped by Crash() so stale timers become no-ops.
  uint64_t epoch_ = 0;
  /// Id of the next update transaction (logged in WAL begin records).
  uint64_t next_txn_id_ = 1;
  /// Update commits since the last checkpoint (drives the checkpoint policy).
  uint64_t commits_since_checkpoint_ = 0;
  /// While an update transaction commits, the store's apply listener
  /// collects the exact narrowed per-node deltas here for the WAL commit
  /// record; replaying them with plain ApplyDelta reproduces the store
  /// byte-for-byte.
  std::map<std::string, Delta> txn_delta_capture_;
  bool capturing_deltas_ = false;
  /// Commit listeners (see AddCommitListener). Deployment wiring: NOT
  /// cleared by Crash().
  std::vector<std::function<void(Time, const std::map<std::string, Delta>&)>>
      commit_listeners_;
};

}  // namespace squirrel

#endif  // SQUIRREL_MEDIATOR_MEDIATOR_H_
