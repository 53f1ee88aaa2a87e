// Reusable fault-injection simulation harness.
//
// RunFaultSim derives everything — a Figure-1-shaped VDP with random
// structural variations, a safe random annotation, per-source fault plans
// (delay jitter, drop/retransmit, duplicates, crash windows, slow polls),
// delay configuration, and a keyed update/query workload — from one seed,
// deploys it as a tree of mediator tiers (one tier for kSingle, a shard tree
// otherwise; one runner wires, crashes and checks every topology), runs the
// deployment to quiescence, and then checks that
//   (1) every export relation equals a from-scratch recomputation over the
//       final source states,
//   (2) every tier's trace passes the independent consistency checker, and
//   (3) the run produced a deterministic rendering (trace_dump: every tier's
//       trace and MediatorStats counters plus the deployment's counters)
//       that a replay of the same seed must reproduce byte for byte.
// Every error message names the seed so a failing schedule can be replayed
// in isolation (see DESIGN.md "Fault model & determinism").

#ifndef SQUIRREL_TESTS_TESTING_SIM_HARNESS_H_
#define SQUIRREL_TESTS_TESTING_SIM_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "mediator/mediator.h"

namespace squirrel {
namespace testing {

struct FaultSimOptions {
  int steps = 30;  ///< workload events (commits + queries)
  // ---- mediator durability & crash/restart (PR: crash recovery) ----
  /// Give every mediator an in-memory log device (WAL, with a checkpoint
  /// every 4 update commits).
  bool durability = false;
  /// Seeded mediator crash/recover windows inside the workload horizon:
  /// the mediator is killed at each window's start and recovered at its
  /// end. Requires durability. The windows are shared with every source's
  /// fault injector so source->mediator traffic is ARQ-deferred past them.
  int mediator_crashes = 0;
  /// >= 0: one atomic Crash()+Recover() right after the WAL record with
  /// this LSN is appended (the crash-point sweep). Requires durability.
  int64_t crash_at_wal_record = -1;
  // ---- delta batching (PR: index/batch layer) ----
  /// Update-queue coalescing window (MediatorOptions::coalesce_window).
  Time coalesce_window = 0.0;
  /// Scales the gaps between workload events; < 1 packs commits tightly so
  /// same-source announcements can land inside the coalescing window while
  /// earlier ones still sit in the queue.
  double event_gap_scale = 1.0;
  // ---- source crash/restart & resync (PR: source epochs + anti-entropy) --
  /// Up to this many crash/restart windows per source: the source is dead
  /// for the window and restarts (epoch bump, announcer state lost) at its
  /// end. Drawn from a DEDICATED rng stream so turning restarts on does not
  /// perturb the channel/mediator fault schedules or the workload of the
  /// same seed (pinned by a harness test).
  int source_restarts = 0;
  /// MediatorOptions::degraded_reads — serve stale annotated answers while
  /// a needed source is down instead of failing with kUnavailable.
  bool degraded_reads = false;
  /// MediatorOptions::max_queue_depth (backpressure cap during resync).
  size_t max_queue_depth = 0;
  /// Fail the run if any source ends quarantined or not healthy after the
  /// drain + final queries (the resync sweep's no-permanent-outage check).
  bool require_all_healthy = false;
  // ---- concurrent mediator (PR: MVCC reads) ----
  /// MediatorOptions::mvcc_reads — poll-free queries served lock-free from
  /// the latest committed store snapshot instead of the transaction queue.
  /// Changes query scheduling (trace dumps are NOT comparable to the
  /// serialized baseline) but never update outcomes or final exports.
  bool mvcc_reads = false;
  // ---- storage integrity & disk faults (PR: storage integrity layer) ----
  /// Which lying-disk fault the WAL device injects (see FaultyLogDevice).
  /// Anything but kNone wraps the in-memory device in a seeded
  /// FaultyLogDevice and turns on paranoid resync-on-recovery (a dropped
  /// log tail is undetectable, so only a snapshot pull rules out silent
  /// divergence). Requires durability.
  enum class StorageFault {
    kNone = 0,
    kTornAppend,        ///< a prefix of one record reaches the platter
    kBitFlip,           ///< one stored bit inverts
    kFsyncDrop,         ///< acked append never persisted
    kEnospc,            ///< a window of appends fails honestly
    kCheckpointCorrupt  ///< bit flip targeted at checkpoint frames
  };
  StorageFault storage_fault = StorageFault::kNone;
  /// Fault-event budget of the lying disk (an ENOSPC window counts once).
  int storage_max_faults = 2;
  /// Schedule one atomic Crash()+Recover() mid-drain, after all workload
  /// events: the recovery that actually READS the damaged log. Requires
  /// durability. Without it a lying disk is only exercised if the seed
  /// also schedules mediator crash windows.
  bool final_crash_recover = false;
  /// FaultPlan::snapshot_corrupt_prob — in-transit snapshot payload
  /// corruption the mediator must detect by checksum and re-request.
  double snapshot_corrupt_prob = 0;
  // ---- sharded deployment (PR: mediator-as-a-source composition) ----
  /// How the seed's scenario is deployed. kSingle is one mediator over the
  /// whole VDP (a tree of one tier, named "top"). kTwoShard splits the VDP
  /// into a child shard plus a root consuming the child's exports through an
  /// ExportAnnouncer mirror; kThreeTier adds a pass-through middle tier. The
  /// SCENARIO (sources, VDP, annotation, fault schedules, workload) is drawn
  /// identically for every topology — only the deployment differs — so
  /// final_exports must be byte-identical across topologies of the same
  /// seed. Sharded-only randomness (mirror-link faults, child crash windows)
  /// draws from a dedicated rng stream.
  enum class Topology { kSingle = 0, kTwoShard, kThreeTier };
  Topology topology = Topology::kSingle;
  // ---- overload protection (PR: deadlines/admission/memory budgets) ----
  /// > 0: inject this many EXTRA storm queries against the root mediator,
  /// drawn from a DEDICATED rng stream so the baseline workload and fault
  /// schedules are byte-identical with the storm off (the no-overload
  /// oracle of the overload sweep). Storm outcomes are tallied separately
  /// (storm_* result fields) and never count as workload failures.
  int query_storm = 0;
  /// Relative deadline stamped on every storm query (absolute deadline =
  /// submit time + this); 0 = none. Workload queries stay deadline-free.
  Time query_deadline = 0;
  /// Per-class admission limits for kInteractive and kBatch on EVERY
  /// mediator of the deployment (0 = unlimited). kInternal is never capped:
  /// the harness's final correctness queries must always run.
  uint32_t admit_max_active = 0;
  uint32_t admit_max_queued = 0;
  /// Soft limit of a process-global memory budget for the run (bytes;
  /// 0 = no budget). The budget has no hard limit.
  size_t memory_soft_limit = 0;
  /// Poll-timeout backoff ceiling and seeded jitter (MediatorOptions
  /// passthrough; jitter seed = the run seed, so replays agree).
  Time poll_backoff_cap = 0;
  double poll_jitter = 0;
};

/// What one seeded schedule produced (for assertions and reporting).
struct FaultSimResult {
  uint64_t seed = 0;
  /// Deterministic rendering of every tier's trace and MediatorStats
  /// counters plus the deployment's summary counters; the replay-identity
  /// check compares these strings.
  std::string trace_dump;
  MediatorStats stats;  ///< the root mediator's counters
  uint64_t exports_checked = 0;
  // Summed fault-injector counters across every link.
  uint64_t transmissions_lost = 0;
  uint64_t duplicates = 0;
  uint64_t blackholed = 0;
  uint64_t slow_polls = 0;
  uint64_t mediator_retransmits = 0;  ///< deliveries pushed past a dead mediator
  // Durability / crash-recovery observability, summed across tiers.
  uint64_t mediator_crashes = 0;
  uint64_t recoveries = 0;
  uint64_t recovery_txns_replayed = 0;
  uint64_t recovery_txns_rolled_back = 0;
  uint64_t recovery_msgs_requeued = 0;
  uint64_t wal_records = 0;  ///< records ever appended (= exclusive max LSN)
  uint64_t checkpoints = 0;
  /// Update messages merged into a queue tail (delta batching).
  uint64_t coalesced_msgs = 0;
  /// Deterministic rendering of the final export relations; a crash-point
  /// run must produce exactly the crash-free baseline's string.
  std::string final_exports;
  // Source restart / resync observability.
  uint64_t source_restarts = 0;   ///< epoch bumps across all sources
  uint64_t epoch_bumps = 0;       ///< new incarnations the mediator observed
  uint64_t resyncs_started = 0;
  uint64_t resyncs_completed = 0;
  uint64_t snapshots_requested = 0;
  uint64_t requarantines = 0;
  /// Deterministic rendering of the NON-restart fault schedule (jitter,
  /// drop/dup probabilities, source crash windows, mediator windows) plus
  /// the workload horizon. Must be byte-identical between a run with
  /// source_restarts = 0 and one with restarts on (dedicated-rng pin).
  std::string fault_plan_dump;
  // Storage integrity observability.
  /// True iff a recovery refused the log as unrecoverable (kCorrupted).
  /// The run then ends early — corrupted_diag and trace_dump are filled,
  /// the quiescence/export checks are skipped (there is no mediator state
  /// left to check) — and the CALLER decides whether corruption was legal
  /// for the fault plan. Silent divergence is never an outcome.
  bool corrupted = false;
  /// The kCorrupted status message (names the damaged LSN / slot).
  std::string corrupted_diag;
  uint64_t storage_faults_injected = 0;  ///< lying-disk events that fired
  uint64_t wal_append_failures = 0;
  uint64_t recovery_tail_repairs = 0;
  uint64_t recovery_checkpoint_fallbacks = 0;
  uint64_t snapshot_checksum_failures = 0;
  uint64_t payloads_corrupted = 0;  ///< injector-corrupted snapshot payloads
  // Deployment shape and mirror traffic.
  uint64_t shards = 0;  ///< mediators in the deployment (1 for kSingle)
  uint64_t commits_mirrored = 0;    ///< child commits re-announced by mirrors
  uint64_t corrective_commits = 0;  ///< mirror re-bases after child recovery
  /// Every MediatorStats counter of every mediator, rendered name=value per
  /// line in one "== shard <name> ==" section per tier (trace_dump carries
  /// the same sections). Compared byte-for-byte by the replay-identity
  /// checks: a counter that silently drifts between a run and its replay —
  /// e.g. one reset by Recover() instead of preserved — shows up here even
  /// if no export diverges.
  std::string stats_dump;
  // Overload-protection observability (zero without query_storm / budgets).
  uint64_t storm_queries = 0;            ///< storm queries injected
  uint64_t storm_ok = 0;                 ///< answered fresh
  uint64_t storm_degraded = 0;           ///< answered stale + annotated
  uint64_t storm_deadline_exceeded = 0;  ///< typed kDeadlineExceeded
  uint64_t storm_rejected_overload = 0;  ///< typed kOverloaded (admission/mem)
  uint64_t storm_unavailable = 0;        ///< typed kUnavailable (faults)
  /// Storm queries resolved AFTER their deadline passed (sweep invariant:
  /// always 0 — a deadline is resolved the event-loop step it expires).
  uint64_t storm_late = 0;
  /// Storm queries that terminated with a status outside the typed overload
  /// / fault set (sweep invariant: always 0 — no silent failures).
  uint64_t storm_untyped = 0;
  /// Per-storm-query latency (resolution time - submit time), resolution
  /// order. RunFaultSim fails the run unless every storm query resolved,
  /// i.e. unless there is one entry per storm query.
  std::vector<Time> storm_latencies;
};

/// Runs one seeded fault schedule end to end. Returns an error naming the
/// seed on any inconsistency.
Result<FaultSimResult> RunFaultSim(uint64_t seed,
                                   const FaultSimOptions& opts = {});

}  // namespace testing
}  // namespace squirrel

#endif  // SQUIRREL_TESTS_TESTING_SIM_HARNESS_H_
