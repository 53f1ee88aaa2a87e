// The untraced run: the Figure 1 deployment driven closed-loop through the
// public API, with its correctness gates.

#include <algorithm>
#include <optional>

#include "driver/bench.h"
#include "mediator/consistency.h"

namespace perfbench {

using squirrel::Mediator;
using squirrel::MediatorStats;
using squirrel::Scheduler;
using squirrel::SourceDb;
using squirrel::ViewAnswer;
using squirrel::ViewQuery;

std::string Counts::ToString() const {
  return "polls=" + std::to_string(polls) +
         " polled_tuples=" + std::to_string(polled_tuples) +
         " atoms_in=" + std::to_string(atoms_in) +
         " atoms_propagated=" + std::to_string(atoms_propagated) +
         " rules_fired=" + std::to_string(rules_fired) +
         " temps_built=" + std::to_string(temps_built) +
         " wal_records=" + std::to_string(wal_records) +
         " checkpoints=" + std::to_string(checkpoints) +
         " wal_bytes=" + std::to_string(wal_bytes);
}

squirrel::MediatorOptions DeploymentOptions(squirrel::LogDevice* log) {
  squirrel::MediatorOptions options;
  options.mvcc_reads = true;
  options.snapshot_repos = false;
  options.durability.device = log;  // default policy: every 16, framed
  return options;
}

std::unique_ptr<Deployment> Deploy(const WorkloadSpec& spec,
                                   const Stream& stream) {
  auto d = std::make_unique<Deployment>();
  d->scheduler = std::make_unique<Scheduler>();
  d->db1 = std::make_unique<SourceDb>("DB1");
  d->db2 = std::make_unique<SourceDb>("DB2");
  SeedSources(stream, d->db1.get(), d->db2.get());
  d->log = std::make_unique<squirrel::MemLogDevice>();
  squirrel::Vdp vdp = Figure1();
  squirrel::Annotation ann = AnnotationFor(spec, vdp);
  std::vector<squirrel::SourceSetup> setups = {
      {d->db1.get(), kCommDelay, kQueryProcDelay, /*announce_period=*/0.0},
      {d->db2.get(), kCommDelay, kQueryProcDelay, /*announce_period=*/0.0},
  };
  d->mediator = Unwrap(
      Mediator::Create(std::move(vdp), std::move(ann), setups,
                       d->scheduler.get(), DeploymentOptions(d->log.get())),
      "create mediator");
  Check(d->mediator->Start(), "start mediator");
  return d;
}

namespace {

Counts CountsOf(const Mediator& med) {
  const MediatorStats& s = med.stats();
  Counts c;
  c.polls = s.polls;
  c.polled_tuples = s.polled_tuples;
  c.atoms_in = s.iup.atoms_in;
  c.atoms_propagated = s.iup.atoms_propagated;
  c.rules_fired = s.iup.rules_fired;
  c.temps_built = s.iup.temps_built;
  c.wal_records = med.durability().records_logged();
  c.checkpoints = med.durability().checkpoints_written();
  c.wal_bytes = med.durability().bytes_logged();
  return c;
}

// Every MediatorStats counter that is zero on a healthy deployment.
std::vector<std::string> NonzeroRobustnessCounters(const MediatorStats& s) {
  const std::pair<const char*, uint64_t> counters[] = {
      {"iup.poll_retries", s.iup.poll_retries},
      {"duplicate_updates_dropped", s.duplicate_updates_dropped},
      {"stale_poll_answers", s.stale_poll_answers},
      {"poll_timeouts", s.poll_timeouts},
      {"poll_retries", s.poll_retries},
      {"update_txn_aborts", s.update_txn_aborts},
      {"failed_queries", s.failed_queries},
      {"quarantines", s.quarantines},
      {"requarantines", s.requarantines},
      {"epoch_bumps", s.epoch_bumps},
      {"seq_gap_resyncs", s.seq_gap_resyncs},
      {"resyncs_started", s.resyncs_started},
      {"resyncs_completed", s.resyncs_completed},
      {"snapshots_requested", s.snapshots_requested},
      {"updates_dropped_resync", s.updates_dropped_resync},
      {"stale_epoch_msgs", s.stale_epoch_msgs},
      {"updates_shed", s.updates_shed},
      {"degraded_queries", s.degraded_queries},
      {"recovery_txns_rolled_back", s.recovery_txns_rolled_back},
      {"recovery_msgs_requeued", s.recovery_msgs_requeued},
      {"msgs_dropped_at_crash", s.msgs_dropped_at_crash},
      {"wal_append_failures", s.wal_append_failures},
      {"updates_dropped_wal", s.updates_dropped_wal},
      {"checkpoint_failures", s.checkpoint_failures},
      {"recovery_tail_repairs", s.recovery_tail_repairs},
      {"recovery_checkpoint_fallbacks", s.recovery_checkpoint_fallbacks},
      {"resyncs_after_recovery", s.resyncs_after_recovery},
      {"update_checksum_failures", s.update_checksum_failures},
      {"snapshot_checksum_failures", s.snapshot_checksum_failures},
      {"deadline_exceeded_queries", s.deadline_exceeded_queries},
      {"queries_rejected_overload", s.queries_rejected_overload},
      {"queries_shed_soft_budget", s.queries_shed_soft_budget},
      {"queries_cancelled_memory", s.queries_cancelled_memory},
      {"poll_rejects", s.poll_rejects},
  };
  std::vector<std::string> out;
  for (const auto& [name, value] : counters) {
    if (value != 0) out.push_back(std::string(name) + "=" + std::to_string(value));
  }
  return out;
}

// Submits \p q, drains the event loop, and returns the answer; \p wall_ms
// receives the SubmitQuery-to-callback wall time.
Result<ViewAnswer> AskAndDrain(Deployment* d, const ViewQuery& q,
                               double* wall_ms) {
  std::optional<Result<ViewAnswer>> answer;
  double done = 0;
  const double start = WallNow();
  d->mediator->SubmitQuery(q, [&answer, &done](Result<ViewAnswer> a) {
    done = WallNow();
    answer = std::move(a);
  });
  d->scheduler->Run();
  if (!answer.has_value()) {
    return Status::Internal("query callback never fired");
  }
  if (wall_ms != nullptr) *wall_ms = (done - start) * 1e3;
  return std::move(*answer);
}

}  // namespace

DeployedRun::DeployedRun(const WorkloadSpec& spec, const Stream& stream,
                         HostSpeed* host)
    : stream_(stream), host_(host) {
  setup_at_ = WallNow();
  d_ = Deploy(spec, stream);
  r_.setup_s = WallNow() - setup_at_;
  // Freshness: virtual time from the source commit of the update in flight
  // to the mediator commit that reflects it.
  d_->mediator->AddCommitListener(
      [this](Time commit_at, const std::map<std::string, squirrel::Delta>&) {
        r_.freshness_lag_max =
            std::max(r_.freshness_lag_max, commit_at - source_commit_at_);
      });
}

bool DeployedRun::CommitUpdate(Time t, const Op& op, double* ms) {
  Mediator* med = d_->mediator.get();
  const bool on_r = op.kind == OpKind::kInsertR || op.kind == OpKind::kDeleteR;
  SourceDb* db = on_r ? d_->db1.get() : d_->db2.get();
  const uint64_t txns = med->stats().update_txns;
  squirrel::MultiDelta delta = DeltaOf(op);
  source_commit_at_ = t;
  const double start = WallNow();
  Status st = db->Commit(t, delta);
  d_->scheduler->Run();
  *ms = (WallNow() - start) * 1e3;
  return st.ok() && med->stats().update_txns == txns + 1 &&
         med->QueueSize() == 0 && !med->busy();
}

void DeployedRun::OpFailed(const std::string& which, OpKind kind) {
  if (failed_ops_++ == 0) first_failure_ = which + " (" + OpKindName(kind) + ")";
}

void DeployedRun::Step(size_t i) {
  Mediator* med = d_->mediator.get();
  const Op& op = stream_.ops[i];
  const bool timed = i >= stream_.warmup;
  if (i == stream_.warmup) {
    wal_bytes_at_timed_start_ = med->durability().bytes_logged();
  }
  const Time t = OpTime(i);
  d_->scheduler->RunUntil(t);
  Tick();
  const double at = WallNow();
  bool ok = false;
  bool checkpointed = false;
  double ms = 0;
  if (IsUpdate(op.kind)) {
    const uint64_t ckpts = med->durability().checkpoints_written();
    ok = CommitUpdate(t, op, &ms);
    checkpointed = med->durability().checkpoints_written() != ckpts;
    if (timed) ++r_.timed_updates;
  } else {
    ok = AskAndDrain(d_.get(), QueryOf(op), &ms).ok();
  }
  if (!ok) OpFailed("op " + std::to_string(i), op.kind);
  if (timed) {
    r_.op_ms.push_back(ms);
    op_at_.push_back(at);
    r_.checkpointed.push_back(checkpointed);
    ++r_.timed_ops[static_cast<int>(op.kind)];
    if (ok) ++r_.ops_ok;
  }
}

RoundResult DeployedRun::Finish() {
  Mediator* med = d_->mediator.get();
  Scheduler* sched = d_->scheduler.get();
  r_.counts = CountsOf(*med);
  r_.timed_wal_bytes = r_.counts.wal_bytes - wal_bytes_at_timed_start_;
  r_.source_rows_read = stream_.r_seed.size() + stream_.s_seed.size() +
                        med->stats().polled_tuples;
  r_.final_r = Unwrap(d_->db1->Current("R"), "R")->DistinctSize();
  r_.final_s = Unwrap(d_->db2->Current("S"), "S")->DistinctSize();

  // Gate 1: the final export equals a from-scratch recomputation over the
  // final source states.
  Result<ViewAnswer> before = AskAndDrain(d_.get(), ExportQuery(), nullptr);
  if (!before.ok()) {
    r_.gate_failures.push_back("final export query: " +
                               before.status().ToString());
  } else {
    const Time now = sched->Now();
    squirrel::ConsistencyChecker checker(&med->vdp(), &med->annotation(),
                                         {d_->db1.get(), d_->db2.get()});
    Result<squirrel::Relation> want = checker.EvalNodeAt("T", {now, now});
    r_.final_export = RowsOf(before->data);
    if (!want.ok() || RowsOf(want->ToSet()) != r_.final_export) {
      r_.gate_failures.push_back("final export differs from recomputation");
    }
  }

  // recovery_s, then gate 2: the export survives Crash() + Recover(). The
  // untimed first cycle recovers whatever suffix the stream left behind the
  // last periodic checkpoint, and Recover() then writes a checkpoint of its
  // own. Each timed cycle first commits the stream's recovery ops, so its
  // Recover() decodes that checkpoint and replays exactly those commits.
  Status recovered = Status::OK();
  Time t = sched->Now();
  for (int cycle = -1; cycle < kRecoveryCycles && recovered.ok(); ++cycle) {
    if (cycle >= 0) {
      for (size_t j = 0; j < stream_.recovery_ops.size(); ++j) {
        t = std::max(t, sched->Now()) + 3.0;
        sched->RunUntil(t);
        const Op& op = stream_.recovery_ops[j];
        double ms = 0;
        if (!CommitUpdate(t, op, &ms)) {
          OpFailed("recovery op " + std::to_string(j), op.kind);
        }
      }
    }
    const uint64_t replayed = med->stats().recovery_txns_replayed;
    Tick();
    const double recovery_start = WallNow();
    med->Crash();
    recovered = med->Recover();
    const double s = WallNow() - recovery_start;
    sched->Run();
    if (cycle < 0) continue;
    r_.recovery_s.push_back(s);
    recovery_at_.push_back(recovery_start);
    const uint64_t n = med->stats().recovery_txns_replayed - replayed;
    if (recovered.ok() && n != stream_.recovery_ops.size()) {
      r_.gate_failures.push_back("recovery cycle replayed " + std::to_string(n) +
                                 " txns, not " +
                                 std::to_string(stream_.recovery_ops.size()));
    }
  }
  if (!recovered.ok()) {
    r_.gate_failures.push_back("recover: " + recovered.ToString());
  } else {
    Result<ViewAnswer> after = AskAndDrain(d_.get(), ExportQuery(), nullptr);
    if (!after.ok() || RowsOf(after->data) != r_.final_export) {
      r_.gate_failures.push_back("export changed across crash/recover");
    }
  }

  // Gate 3: every op completed OK.
  if (failed_ops_ > 0) {
    r_.gate_failures.push_back(std::to_string(failed_ops_) +
                               " ops failed, the first " + first_failure_);
  }

  // Gate 4: every robustness counter stayed zero.
  for (const std::string& c : NonzeroRobustnessCounters(med->stats())) {
    r_.gate_failures.push_back("robustness counter " + c);
  }

  if (host_ != nullptr) {
    host_->Tick();  // a probe after the last sample, too
    r_.setup_s *= host_->ScaleAt(setup_at_);
    for (size_t j = 0; j < r_.op_ms.size(); ++j) {
      r_.op_ms[j] *= host_->ScaleAt(op_at_[j]);
    }
    for (size_t c = 0; c < r_.recovery_s.size(); ++c) {
      r_.recovery_s[c] *= host_->ScaleAt(recovery_at_[c]);
    }
  }
  return std::move(r_);
}

double TimeSetup(const WorkloadSpec& spec, const Stream& stream, double* at) {
  *at = WallNow();
  std::unique_ptr<Deployment> d = Deploy(spec, stream);
  const double s = WallNow() - *at;
  d.reset();
  return s;
}

}  // namespace perfbench
