// Mediator durability: write-ahead log, checkpoints, and crash recovery.
//
// The mediator's hard state — the pieces a crash must not lose — is:
//   - the LocalStore repositories (materialized view fragments),
//   - the UpdateQueue contents (announcements received but not yet applied),
//   - per-source announcement sequence numbers (dedup of at-least-once
//     redelivery), last-reflected send times (the reflect vector of §6.1),
//     and quarantine flags,
//   - the update-transaction id counter.
//
// WAL record types and the commit invariant:
//   kEnqueue(msg)            logged before the message enters the queue; an
//                            announcement is only "received" once durable.
//   kTxnBegin(id, n)         the update transaction flushed the first n
//                            queue messages. Effects are NOT yet durable.
//   kTxnCommit(id, n,        the transaction's effects: the narrowed per-
//     node_deltas, reflect)  node deltas applied to the repositories and the
//                            per-source reflect advances. A transaction's
//                            effects reach recovered state only if this
//                            record is durable (redo-only logging; there is
//                            nothing to undo because uncommitted effects
//                            live purely in volatile memory).
//   kTxnAbort(id, requeued)  the transaction gave up (poll retries
//                            exhausted); its messages went back to the queue
//                            front (UpdateQueue::Requeue semantics).
//   kCheckpoint(hard state)  full serialized hard state; every earlier
//                            record is then truncated.
//
// Recovery = load the newest checkpoint, then replay the log suffix:
// enqueues append to the queue (and raise the dedup high-water marks so
// still-retransmitting sources are suppressed), commits pop their messages
// and re-apply their node deltas, and a begin without commit/abort rolls
// back by simply leaving the flushed messages at the queue front — exactly
// the order Requeue would restore.

#ifndef SQUIRREL_MEDIATOR_DURABILITY_DURABILITY_H_
#define SQUIRREL_MEDIATOR_DURABILITY_DURABILITY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "delta/delta.h"
#include "mediator/durability/log_device.h"
#include "relational/relation.h"
#include "sim/clock.h"
#include "source/messages.h"

namespace squirrel {

/// Durability policy knobs (part of MediatorOptions).
struct DurabilityOptions {
  /// Durable storage; nullptr disables durability entirely (a crashed
  /// mediator then cannot recover). Not owned; must outlive the mediator.
  LogDevice* device = nullptr;
  /// False = checkpoint-only mode: no WAL records are written, so recovery
  /// falls back to the last checkpoint and loses everything after it. Exists
  /// to demonstrate (in tests) that the WAL is load-bearing.
  bool wal = true;
  /// Update commits between periodic checkpoints; 0 = only the initial
  /// checkpoint written at Start().
  uint64_t checkpoint_every = 16;
  /// Paranoid recovery: re-initiate anti-entropy resync for every mirrored
  /// source after ANY recovery, not just when integrity anomalies were
  /// observed. Deployments on storage that may ack-then-lose writes (lying
  /// fsync) need this — a dropped log TAIL leaves no detectable trace, so
  /// only a snapshot pull can rule out silent divergence.
  bool resync_on_recovery = false;
};

/// Everything a checkpoint captures and recovery restores.
struct HardState {
  /// Per-source durable state, keyed by source name.
  struct SourceState {
    uint64_t last_update_seq = 0;  ///< dedup high-water mark
    Time last_reflected_send = 0;  ///< reflect-vector entry
    bool quarantined = false;
    uint64_t epoch = 1;  ///< source incarnation the mediator believes in
    uint8_t health = 0;  ///< SourceHealth as stored (0=healthy, 1=suspect,
                         ///< 2=resyncing); a non-healthy value makes
                         ///< recovery re-initiate the resync
  };

  std::map<std::string, Relation> repos;  ///< node -> repository contents
  std::vector<UpdateMessage> queue;       ///< update queue, front first
  std::map<std::string, SourceState> sources;
  uint64_t next_txn_id = 1;
  /// Per-source believed-state mirrors of the resync manager
  /// (source -> relation -> full extent); empty for virtual contributors.
  std::map<std::string, std::map<std::string, Relation>> mirrors;
  /// Snapshot-request id counter (never reused across incarnations, so a
  /// pre-crash snapshot answer can never satisfy a post-crash request).
  uint64_t next_resync_id = 1;
  /// MVCC publish counter (LocalStore::SnapshotVersion) at checkpoint time.
  /// Recovery fast-forwards the store's counter past it, so post-recovery
  /// snapshot versions never collide with pre-crash ones a reader may still
  /// be pinning.
  uint64_t snapshot_version = 0;

  /// Deterministic serialization (byte-identical for equal states).
  std::string Encode() const;
  static Result<HardState> Decode(const std::string& bytes);
};

/// The payload of one committed update transaction's WAL record.
struct CommitPayload {
  uint64_t txn_id = 0;
  uint64_t consumed = 0;  ///< messages this transaction flushed
  /// Narrowed per-node deltas exactly as applied to the repositories.
  std::map<std::string, Delta> node_deltas;
  /// Per-source send-time advances (reflect candidates).
  std::map<std::string, Time> reflect;
  /// Per-source full-relation net changes this transaction consumed (the
  /// in-flight smash); replay advances the resync mirrors with these so
  /// mirror and repositories stay in lockstep.
  std::map<std::string, MultiDelta> source_deltas;
};

/// What Recover() reconstructed, plus counters for stats/trace.
struct RecoveredState {
  HardState state;
  uint64_t checkpoint_lsn = 0;      ///< LSN of the checkpoint restored
  uint64_t records_replayed = 0;    ///< WAL records after the checkpoint
  uint64_t txns_replayed = 0;       ///< commits re-applied
  uint64_t txns_rolled_back = 0;    ///< begins without commit/abort
  uint64_t msgs_requeued = 0;       ///< messages returned by rollbacks
  // ---- integrity triage ----
  /// Damaged trailing records dropped as repairable tail damage (torn or
  /// partially persisted final appends).
  uint64_t tail_records_dropped = 0;
  /// Damaged checkpoint generations skipped before a good one verified
  /// (recovery then replays the longer WAL suffix behind the older one).
  uint64_t checkpoint_fallbacks = 0;
  /// True iff recovery observed any integrity anomaly. The recovered state
  /// is internally consistent, but records lost with the damaged tail were
  /// acknowledged to sources — the mediator re-initiates resync for every
  /// mirrored source so the repaired state provably reconverges.
  bool anomalies() const {
    return tail_records_dropped > 0 || checkpoint_fallbacks > 0;
  }
};

/// \brief Writes the mediator's WAL and checkpoints; replays them on demand.
///
/// The manager is pure logging/recovery logic: it never touches live
/// mediator components. The mediator calls Log* at the corresponding points
/// of its update path and rebuilds itself from Recover()'s result.
///
/// Every WAL record and checkpoint image is wrapped in a CRC32C frame
/// (magic + checksum + length + log epoch; see integrity.h), which is what
/// lets recovery tell repairable tail damage from interior corruption.
class DurabilityManager {
 public:
  /// Default = disabled (no device).
  DurabilityManager() = default;
  explicit DurabilityManager(DurabilityOptions opts) : opts_(opts) {}

  bool enabled() const { return opts_.device != nullptr; }
  bool wal_enabled() const { return enabled() && opts_.wal; }
  const DurabilityOptions& options() const { return opts_; }

  // ---- logging (no-ops when the WAL is disabled) ----
  /// Logs an enqueue. \p coalesced records that the live queue merged this
  /// message into its tail (same source, within the batch window) so that
  /// replay mirrors the merge instead of appending; the flag must reflect
  /// UpdateQueue::WouldCoalesce evaluated BEFORE the actual enqueue.
  Status LogEnqueue(const UpdateMessage& msg, bool coalesced = false);
  Status LogTxnBegin(uint64_t txn_id, uint64_t consumed);
  Status LogTxnCommit(const CommitPayload& payload);
  Status LogTxnAbort(uint64_t txn_id, bool requeued);
  /// Logs the start of a source resync (epoch observed, updates now being
  /// dropped). Recovery re-initiates the snapshot pull for any source whose
  /// resync began but never finished.
  Status LogResyncBegin(const std::string& source, uint64_t epoch);
  /// Logs a completed resync: the corrective enqueue record precedes this,
  /// so a crash in between replays into a state that simply resyncs again
  /// (the corrective diff is computed against believed state, making it
  /// idempotent). \p last_update_seq is the post-resync dedup floor.
  Status LogResyncDone(const std::string& source, uint64_t epoch,
                       uint64_t last_update_seq);
  /// Logs one backpressure shed (UpdateQueue::CoalesceOldest) so replay
  /// mirrors the live queue's merge.
  Status LogShed();

  /// Writes a checkpoint record and truncates everything before it.
  /// Enabled-mode only (checkpoints are written even when the WAL is off).
  Status WriteCheckpoint(const HardState& state);

  /// True iff \p commits_since_checkpoint has reached the policy period.
  bool CheckpointDue(uint64_t commits_since_checkpoint) const {
    return enabled() && opts_.checkpoint_every > 0 &&
           commits_since_checkpoint >= opts_.checkpoint_every;
  }

  /// Rebuilds hard state from the device: newest checkpoint generation that
  /// verifies + the log suffix behind it. Damaged trailing records are
  /// dropped (tail repair); interior corruption or an unrecoverable
  /// checkpoint pair returns StatusCode::kCorrupted with LSN diagnostics.
  /// Non-const: recovery re-anchors the generation pointer and bumps the
  /// log epoch (a new log incarnation).
  Result<RecoveredState> Recover();

  // ---- observability ----
  uint64_t records_logged() const { return records_logged_; }
  uint64_t checkpoints_written() const { return checkpoints_written_; }
  uint64_t bytes_logged() const { return bytes_logged_; }
  /// Current log incarnation stamped into every frame (bumped by Recover).
  uint64_t log_epoch() const { return log_epoch_; }

 private:
  Status Append(std::string record);

  DurabilityOptions opts_;
  uint64_t records_logged_ = 0;
  uint64_t checkpoints_written_ = 0;
  uint64_t bytes_logged_ = 0;
  /// Log incarnation stamped into frames; starts at 1, +1 per recovery.
  uint64_t log_epoch_ = 1;
  /// Dual-generation retention: WriteCheckpoint truncates only up to the
  /// PREVIOUS checkpoint's LSN, so the log always holds two generations and
  /// recovery can fall back when the newest fails verification.
  uint64_t prev_checkpoint_lsn_ = 0;
  bool have_prev_checkpoint_ = false;
};

}  // namespace squirrel

#endif  // SQUIRREL_MEDIATOR_DURABILITY_DURABILITY_H_
