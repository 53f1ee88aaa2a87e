#include "mediator/mediator.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/memory_budget.h"
#include "common/strings.h"
#include "delta/delta_algebra.h"
#include "mediator/durability/serialize.h"
#include "relational/operators.h"

namespace squirrel {

namespace {

/// Re-request deadline for an unanswered SnapshotRequest: the request or its
/// answer may be lost to a crash window.
constexpr Time kSnapshotRetryDelay = 2.0;
/// Delay before an update transaction whose WAL begin record the device
/// rejected is retried.
constexpr Time kWalBeginRetryDelay = 2.0;
/// Subtracted from a query's deadline when it is forwarded in PollRequests,
/// so the responder gives up before this mediator does and the rejection
/// has time to travel back.
constexpr Time kDeadlineMargin = 1.0;

}  // namespace

Result<std::unique_ptr<Mediator>> Mediator::Create(
    Vdp vdp, Annotation ann, std::vector<SourceSetup> sources,
    Scheduler* scheduler, MediatorOptions options) {
  SQ_RETURN_IF_ERROR(vdp.Validate());
  SQ_RETURN_IF_ERROR(ann.Validate(vdp));
  if (scheduler == nullptr) {
    return Status::InvalidArgument("mediator needs a scheduler");
  }
  auto med = std::unique_ptr<Mediator>(new Mediator());
  med->vdp_ = std::move(vdp);
  med->ann_ = std::move(ann);
  med->options_ = options;
  med->scheduler_ = scheduler;

  std::vector<std::string> names;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].db == nullptr) {
      return Status::InvalidArgument("null source database");
    }
    auto rt = std::make_unique<SourceRuntime>();
    rt->setup = sources[i];
    rt->index = i;
    rt->kind =
        ClassifyContributor(med->vdp_, med->ann_, sources[i].db->name());
    med->source_index_[sources[i].db->name()] = i;
    names.push_back(sources[i].db->name());
    med->sources_.push_back(std::move(rt));
  }
  // Every leaf must resolve to a declared relation of a registered source.
  // Along the way, collect the leaf-referenced relations (at FULL source
  // schema — announcements carry source-schema deltas) for resync mirroring.
  std::map<std::string, std::map<std::string, Schema>> mirrored;
  for (const auto& leaf_name : med->vdp_.LeafNames()) {
    const VdpNode* leaf = med->vdp_.Find(leaf_name);
    auto it = med->source_index_.find(leaf->source_db);
    if (it == med->source_index_.end()) {
      return Status::NotFound("VDP leaf " + leaf_name +
                              " references unregistered source " +
                              leaf->source_db);
    }
    SQ_ASSIGN_OR_RETURN(
        Schema src_schema,
        med->sources_[it->second]->setup.db->RelationSchema(
            leaf->source_relation));
    if (!src_schema.ContainsAll(leaf->schema.AttributeNames())) {
      return Status::InvalidArgument(
          "leaf " + leaf_name + " schema is not a subset of source relation " +
          leaf->source_relation);
    }
    mirrored[leaf->source_db].emplace(leaf->source_relation, src_schema);
  }
  // Announcing sources get believed-state mirrors of every leaf-referenced
  // relation; virtual-only contributors get epoch tracking alone (their
  // poll answers always reflect live state, so a restart needs no resync).
  for (const auto& rt : med->sources_) {
    const std::string& name = rt->setup.db->name();
    med->resync_.Register(name, MustAnnounce(rt->kind)
                                    ? std::move(mirrored[name])
                                    : std::map<std::string, Schema>{});
  }

  med->store_ = std::make_unique<LocalStore>(&med->vdp_, &med->ann_);
  med->queue_.SetCoalesceWindow(options.coalesce_window);
  med->vap_ = std::make_unique<Vap>(&med->vdp_, &med->ann_,
                                    med->store_.get(), options.strategy);
  med->iup_ = std::make_unique<Iup>(&med->vdp_, &med->ann_,
                                    med->store_.get(), med->vap_.get());
  med->qp_ = std::make_unique<QueryProcessor>(&med->vdp_, &med->ann_,
                                              med->store_.get(),
                                              med->vap_.get());
  med->trace_ = std::make_unique<Trace>(names);
  med->durability_ = DurabilityManager(options.durability);
  med->admission_.set_options(options.admission);
  return med;
}

std::string MediatorStats::ToString() const {
  // Every counter below must appear exactly once. The assert fires when a
  // counter is added to MediatorStats or IupStats without extending this
  // rendering — the crash/recovery sweeps byte-compare it between a run and
  // its deterministic replay, so an unrendered counter would silently skip
  // that check.
  static_assert(sizeof(MediatorStats) == 52 * sizeof(uint64_t),
                "new counter: extend MediatorStats::ToString too");
  std::string out;
  auto emit = [&out](const char* name, uint64_t v) {
    out += name;
    out += '=';
    out += std::to_string(v);
    out += '\n';
  };
  emit("update_txns", update_txns);
  emit("query_txns", query_txns);
  emit("polls", polls);
  emit("polled_tuples", polled_tuples);
  emit("messages_received", messages_received);
  emit("iup.rules_fired", iup.rules_fired);
  emit("iup.atoms_in", iup.atoms_in);
  emit("iup.atoms_propagated", iup.atoms_propagated);
  emit("iup.nodes_processed", iup.nodes_processed);
  emit("iup.polls", iup.polls);
  emit("iup.polled_tuples", iup.polled_tuples);
  emit("iup.temps_built", iup.temps_built);
  emit("iup.poll_retries", iup.poll_retries);
  emit("duplicate_updates_dropped", duplicate_updates_dropped);
  emit("stale_poll_answers", stale_poll_answers);
  emit("poll_timeouts", poll_timeouts);
  emit("poll_retries", poll_retries);
  emit("update_txn_aborts", update_txn_aborts);
  emit("failed_queries", failed_queries);
  emit("quarantines", quarantines);
  emit("requarantines", requarantines);
  emit("epoch_bumps", epoch_bumps);
  emit("seq_gap_resyncs", seq_gap_resyncs);
  emit("resyncs_started", resyncs_started);
  emit("resyncs_completed", resyncs_completed);
  emit("snapshots_requested", snapshots_requested);
  emit("updates_dropped_resync", updates_dropped_resync);
  emit("stale_epoch_msgs", stale_epoch_msgs);
  emit("updates_shed", updates_shed);
  emit("degraded_queries", degraded_queries);
  emit("mediator_crashes", mediator_crashes);
  emit("recoveries", recoveries);
  emit("recovery_txns_rolled_back", recovery_txns_rolled_back);
  emit("recovery_msgs_requeued", recovery_msgs_requeued);
  emit("recovery_txns_replayed", recovery_txns_replayed);
  emit("msgs_dropped_at_crash", msgs_dropped_at_crash);
  emit("snapshot_queries", snapshot_queries);
  emit("snapshots_published", snapshots_published);
  emit("snapshot_copies", snapshot_copies);
  emit("wal_append_failures", wal_append_failures);
  emit("updates_dropped_wal", updates_dropped_wal);
  emit("checkpoint_failures", checkpoint_failures);
  emit("recovery_tail_repairs", recovery_tail_repairs);
  emit("recovery_checkpoint_fallbacks", recovery_checkpoint_fallbacks);
  emit("resyncs_after_recovery", resyncs_after_recovery);
  emit("update_checksum_failures", update_checksum_failures);
  emit("snapshot_checksum_failures", snapshot_checksum_failures);
  emit("deadline_exceeded_queries", deadline_exceeded_queries);
  emit("queries_rejected_overload", queries_rejected_overload);
  emit("queries_shed_soft_budget", queries_shed_soft_budget);
  emit("queries_cancelled_memory", queries_cancelled_memory);
  emit("poll_rejects", poll_rejects);
  return out;
}

Mediator::SourceRuntime* Mediator::FindSource(const std::string& name) {
  auto it = source_index_.find(name);
  return it == source_index_.end() ? nullptr : sources_[it->second].get();
}

Status Mediator::Start() {
  if (started_) return Status::FailedPrecondition("mediator already started");
  started_ = true;
  const Time view_init_time = scheduler_->Now();

  // Wire channels, announcers (active sources), and poll responders.
  for (auto& rt : sources_) {
    rt->inbound = std::make_unique<Channel<SourceToMediatorMsg>>(
        scheduler_, rt->setup.comm_delay);
    rt->inbound->SetReceiver(
        [this](SourceToMediatorMsg msg) { OnSourceMessage(std::move(msg)); });
    rt->outbound = std::make_unique<Channel<MediatorToSourceMsg>>(
        scheduler_, rt->setup.comm_delay);
    if (FaultInjector* f = rt->setup.faults; f != nullptr) {
      std::string name = rt->setup.db->name();
      rt->inbound->SetFaultHook([f, name](Time now, Time base_delay) {
        return f->OnSend(now, base_delay, FaultInjector::Dir::kToMediator,
                         name);
      });
      rt->outbound->SetFaultHook([f, name](Time now, Time base_delay) {
        return f->OnSend(now, base_delay, FaultInjector::Dir::kToSource, name);
      });
    }
    if (MustAnnounce(rt->kind)) {
      rt->announcer = std::make_unique<Announcer>(
          rt->setup.db, scheduler_, rt->inbound.get(),
          rt->setup.announce_period, rt->setup.faults);
      rt->announcer->Start();
    }
    rt->responder = std::make_unique<PollResponder>(
        rt->setup.db, scheduler_, rt->inbound.get(), rt->announcer.get(),
        rt->setup.q_proc_delay, rt->setup.faults);
    auto* responder = rt->responder.get();
    rt->outbound->SetReceiver([responder](MediatorToSourceMsg msg) {
      responder->OnMessage(std::move(msg));
    });
    rt->last_reflected_send = view_init_time;
    // Believed-state mirrors start as copies of the live extents — the same
    // instant the initial load below reads, so mirror and view agree.
    const std::string& name = rt->setup.db->name();
    for (const auto& rel_name : resync_.Relations(name)) {
      SQ_ASSIGN_OR_RETURN(const Relation* rel,
                          rt->setup.db->Current(rel_name));
      SQ_RETURN_IF_ERROR(resync_.SetMirror(name, rel_name, *rel));
    }
    // Planned source restarts (epoch bumps at crash-window ends). In
    // sharded topologies a db shared by several mediators must restart
    // once per window, so only the designated consumer schedules them.
    if (rt->setup.faults != nullptr && rt->setup.schedule_restarts) {
      ScheduleSourceRestarts(rt->setup.db, scheduler_, rt->setup.faults);
    }
  }

  // Initial load: full recomputation of every derived node from the current
  // source states, materialized projections into the repositories.
  std::map<std::string, Relation> full;  // node -> full contents
  for (const auto& name : vdp_.TopoOrder()) {
    const VdpNode* node = vdp_.Find(name);
    if (node->is_leaf) {
      SourceRuntime* rt = FindSource(node->source_db);
      SQ_ASSIGN_OR_RETURN(const Relation* rel,
                          rt->setup.db->Current(node->source_relation));
      // Leaf contents narrowed to the leaf schema (the VDP may declare a
      // subset of the source relation's attributes).
      SQ_ASSIGN_OR_RETURN(
          Relation narrowed,
          OpProject(*rel, node->schema.AttributeNames(), Semantics::kBag));
      full.emplace(name, std::move(narrowed));
      continue;
    }
    NodeStateFn states =
        [&full](const std::string& child, const std::vector<std::string>&)
        -> Result<std::shared_ptr<const Relation>> {
      auto it = full.find(child);
      if (it == full.end()) {
        return Status::Internal("initial load: missing child " + child);
      }
      return std::shared_ptr<const Relation>(std::shared_ptr<void>(),
                                             &it->second);
    };
    SQ_ASSIGN_OR_RETURN(Relation contents, node->def->Evaluate(states));
    if (store_->HasRepo(name)) {
      auto mat = ann_.MaterializedAttrs(vdp_, name);
      SQ_ASSIGN_OR_RETURN(Relation projected,
                          OpProject(contents, mat, Semantics::kBag));
      // Preserve the node's storage semantics.
      if (node->semantics() == Semantics::kSet) {
        projected = projected.ToSet();
      }
      SQ_RETURN_IF_ERROR(store_->SetRepo(name, std::move(projected)));
    }
    full.emplace(name, std::move(contents));
  }

  if (options_.record_trace) {
    TraceEntry entry;
    entry.kind = TxnKind::kInit;
    entry.commit_time = view_init_time;
    entry.reflect = UpdateReflect();
    if (options_.snapshot_repos) {
      for (const auto& node : store_->MaterializedNodes()) {
        entry.repo_snapshot.emplace(node, **store_->Repo(node));
      }
    }
    trace_->Add(std::move(entry));
  }

  // MVCC: version 1 is the freshly initialized view.
  PublishStoreSnapshot();

  // The WAL's commit records carry the narrowed per-node deltas exactly as
  // the repositories absorbed them; the store's apply listener is how they
  // are captured while an update transaction commits.
  store_->SetApplyListener(
      [this](const std::string& node, const Delta& narrowed) {
        if (!capturing_deltas_) return;
        auto [it, inserted] = txn_delta_capture_.try_emplace(node, narrowed);
        if (!inserted) {
          Status s = it->second.SmashInPlace(narrowed);
          if (!s.ok()) {
            SQ_LOG(kError) << "WAL delta capture failed: " << s.ToString();
          }
        }
      });

  // The initial checkpoint makes the freshly loaded view durable; without
  // it a crash before the first periodic checkpoint could not recover.
  if (durability_.enabled()) {
    SQ_RETURN_IF_ERROR(durability_.WriteCheckpoint(BuildHardState()));
  }

  // Periodic update policy (the u_hold knob).
  if (options_.update_period > 0) {
    AfterGuarded(options_.update_period, [this]() { PeriodicTick(); });
  }
  return Status::OK();
}

void Mediator::PeriodicTick() {
  if (!queue_.Empty()) ScheduleUpdateTxn();
  AfterGuarded(options_.update_period, [this]() { PeriodicTick(); });
}

void Mediator::AfterGuarded(Time delay, std::function<void()> fn) {
  // A crash bumps epoch_, so every timer armed by the dead incarnation
  // becomes a no-op — a real crash loses its timers with its memory.
  scheduler_->After(delay, [this, e = epoch_, fn = std::move(fn)]() {
    if (epoch_ == e && !crashed_) fn();
  });
}

namespace {

/// Checks an answer against the request it answers: one result per poll,
/// each carrying exactly the polled attributes.
Status ValidatePollAnswer(const PollRequest& request,
                          const PollAnswer& answer) {
  if (answer.results.size() != request.polls.size()) {
    return Status::Unavailable(
        "poll answer from " + answer.source + " carries " +
        std::to_string(answer.results.size()) + " results for " +
        std::to_string(request.polls.size()) + " polls");
  }
  for (size_t i = 0; i < request.polls.size(); ++i) {
    const PollSpec& spec = request.polls[i];
    if (answer.results[i].schema().AttributeNames() != spec.attrs) {
      return Status::Unavailable("poll of " + answer.source + "." +
                                 spec.relation +
                                 " failed at the source: the answer lacks [" +
                                 Join(spec.attrs, ",") + "]");
    }
  }
  return Status::OK();
}

}  // namespace

void Mediator::OnSourceMessage(SourceToMediatorMsg msg) {
  if (crashed_) {
    // Safety net: planned fault windows retransmit around the downtime (see
    // FaultInjector::OnSend), so this only triggers for unplanned crashes.
    ++stats_.msgs_dropped_at_crash;
    return;
  }
  ++stats_.messages_received;
  if (std::holds_alternative<UpdateMessage>(msg)) {
    UpdateMessage upd = std::get<UpdateMessage>(std::move(msg));
    if (!ChecksumVerifies(upd)) {
      // Payload corrupted in transit. Drop WITHOUT touching the dedup
      // floor: the seq gap the loss opens is healed by ARQ redelivery or,
      // failing that, the seq-gap resync below — never silently applied.
      ++stats_.update_checksum_failures;
      return;
    }
    SourceRuntime* rt = FindSource(upd.source);
    if (rt != nullptr) {
      ClearQuarantine(rt);  // any delivery proves the source alive
      const uint64_t cur_epoch = resync_.Epoch(upd.source);
      if (upd.epoch < cur_epoch) {
        // Delayed message from a dead incarnation: the resync snapshot of
        // the current incarnation covers (or supersedes) its effects.
        ++stats_.stale_epoch_msgs;
        return;
      }
      if (upd.epoch > cur_epoch) {
        // New incarnation: the source restarted and lost its session state
        // (unannounced batch, sequence numbering). Its messages are dropped
        // until a full snapshot re-bases the believed state — this very
        // message is covered by that snapshot (FIFO + flush-before-answer).
        ++stats_.epoch_bumps;
        BeginResync(rt, upd.epoch);
        ++stats_.updates_dropped_resync;
        return;
      }
      if (resync_.Health(upd.source) != SourceHealth::kHealthy) {
        ++stats_.updates_dropped_resync;
        return;
      }
      if (upd.seq != 0 && upd.seq <= rt->last_update_seq) {
        // At-least-once retransmit of an announcement already applied;
        // applying it again would double-count the delta.
        ++stats_.duplicate_updates_dropped;
        return;
      }
      if (upd.seq != 0 && rt->last_update_seq != 0 &&
          upd.seq > rt->last_update_seq + 1 &&
          resync_.NeedsResync(upd.source)) {
        // Sequence gap within one epoch: an announcement was lost for good.
        // The ARQ fault model should make this unreachable; the protocol
        // heals it via a snapshot anyway rather than silently diverging.
        ++stats_.seq_gap_resyncs;
        BeginResync(rt, upd.epoch);
        ++stats_.updates_dropped_resync;
        return;
      }
    }
    // WAL: an announcement is "received" only once its enqueue record is
    // durable; recovery re-queues it and restores the dedup high-water mark.
    // The coalesce decision is taken BEFORE the record is written so replay
    // can mirror the live queue's tail-merge exactly.
    if (!WalAppended(durability_.LogEnqueue(upd, queue_.WouldCoalesce(upd)),
                     "enqueue")) {
      ++stats_.updates_dropped_wal;
      // The announcement is NOT received: without a durable enqueue record
      // a post-crash replay would lose it while the source believes it was
      // acked. Drop it, leave the dedup floor untouched, and pull a
      // snapshot to re-cover the content — the pull's retry loop converges
      // once the device accepts writes again.
      if (rt != nullptr && resync_.NeedsResync(upd.source) &&
          resync_.Health(upd.source) == SourceHealth::kHealthy) {
        BeginResync(rt, upd.epoch);
      }
      return;
    }
    // The dedup floor advances only once the record is durable (or the WAL
    // is off): a floor ahead of the log would suppress the very retransmits
    // recovery depends on.
    if (rt != nullptr && upd.seq != 0) rt->last_update_seq = upd.seq;
    queue_.Enqueue(std::move(upd));
    MaybeShed();
    if (options_.update_period <= 0) ScheduleUpdateTxn();
    return;
  }
  if (std::holds_alternative<SnapshotAnswer>(msg)) {
    OnSnapshotAnswer(std::get<SnapshotAnswer>(std::move(msg)));
    return;
  }
  // Poll answer: route to the waiting transaction.
  PollAnswer answer = std::get<PollAnswer>(std::move(msg));
  if (answer.retry_after != 0) {
    // Responder-side deadline rejection: the polls were never evaluated, so
    // there is nothing to consume. The querying transaction's own deadline
    // timer (which fires before the forwarded deadline plus margin) resolves
    // the query; here the rejection is only counted.
    ++stats_.poll_rejects;
    return;
  }
  if (SourceRuntime* art = FindSource(answer.source); art != nullptr) {
    ClearQuarantine(art);
    const uint64_t cur_epoch = resync_.Epoch(answer.source);
    if (answer.epoch > cur_epoch) {
      ++stats_.epoch_bumps;
      if (resync_.NeedsResync(answer.source)) {
        // An announcing source restarted: its poll answer reflects a state
        // the believed mirrors have not been re-based onto yet, so Eager
        // Compensation against it would be wrong. Drop it (the transaction
        // re-polls or aborts) and pull a snapshot.
        BeginResync(art, answer.epoch);
        ++stats_.stale_poll_answers;
        return;
      }
      // Virtual contributor: poll answers always reflect live state; the
      // epoch bump needs tracking only.
      resync_.SetEpoch(answer.source, answer.epoch);
    } else if (answer.epoch < cur_epoch) {
      ++stats_.stale_epoch_msgs;
      return;
    } else if (resync_.Health(answer.source) != SourceHealth::kHealthy) {
      ++stats_.stale_poll_answers;
      return;
    }
  }
  if (!poll_wait_.has_value()) {
    ++stats_.stale_poll_answers;
    SQ_LOG(kWarn) << "poll answer from " << answer.source
                  << " with no transaction waiting";
    return;
  }
  PollWait& wait = *poll_wait_;
  auto oit = wait.outstanding.find(answer.source);
  if (oit == wait.outstanding.end() || oit->second.id != answer.id) {
    // Duplicate delivery of an answer already consumed, or an answer to a
    // request superseded by a re-poll round.
    ++stats_.stale_poll_answers;
    return;
  }
  if (Status valid = ValidatePollAnswer(oit->second, answer); !valid.ok()) {
    // A poll the source failed to evaluate comes back as a schema-less
    // marker; consuming it as data would corrupt the transaction. Fail the
    // wait instead: an update requeues its batch, a query fails over.
    auto fail = std::move(wait.on_failure);
    if (fail) {
      fail(valid);
    } else {
      SQ_LOG(kError) << valid.ToString();
      FinishTxn();
    }
    return;
  }
  wait.outstanding.erase(oit);
  auto& ready = wait.ready[answer.source];
  for (auto& rel : answer.results) ready.push_back(std::move(rel));
  wait.answered_at[answer.source] = answer.answered_at;
  auto pending = queue_.PendingFrom(answer.source);
  if (pending.ok()) {
    wait.pending_at_answer[answer.source] = std::move(pending).value();
  } else {
    SQ_LOG(kError) << "pending snapshot failed: "
                   << pending.status().ToString();
  }
  if (wait.remaining == 0) {
    SQ_LOG(kError) << "more poll answers than requests";
    return;
  }
  if (--wait.remaining == 0) {
    auto done = std::move(wait.on_complete);
    done();
  }
}

void Mediator::EnqueueTxn(std::function<void()> txn) {
  pending_txns_.push_back(std::move(txn));
  StartNextTxn();
}

void Mediator::StartNextTxn() {
  if (busy_ || pending_txns_.empty()) return;
  busy_ = true;
  auto txn = std::move(pending_txns_.front());
  pending_txns_.pop_front();
  txn();
}

void Mediator::FinishTxn() {
  busy_ = false;
  poll_wait_.reset();
  current_inflight_ = nullptr;
  active_query_run_ = nullptr;
  // Run the next queued transaction, if any, as a fresh event.
  if (!pending_txns_.empty()) {
    AfterGuarded(0, [this]() { StartNextTxn(); });
  }
}

void Mediator::ScheduleUpdateTxn() {
  if (update_txn_scheduled_) return;
  update_txn_scheduled_ = true;
  EnqueueTxn([this]() {
    update_txn_scheduled_ = false;
    RunUpdateTxn();
  });
}

void Mediator::IssuePolls(const VapPlan& plan, std::function<void()> done,
                          std::function<void(const Status&)> on_failure) {
  // Package all polls of one source into a single request transaction
  // (paper §6.3), preserving per-source plan order.
  std::map<std::string, PollRequest> grouped;
  for (const auto& lp : plan.polls) {
    PollRequest& req = grouped[lp.source];
    if (req.polls.empty()) {
      req.id = next_poll_id_++;
      // Deadline propagation across tiers: the responder (a raw source or a
      // child mediator's export mirror) gets the query's remaining budget
      // minus a margin, so the far side gives up before this side's own
      // deadline timer fires and the rejection has time to travel back.
      if (active_query_run_ != nullptr) {
        const ViewQuery& q = active_query_run_->prepared.query;
        req.qclass = q.qclass;
        if (Time d = q.deadline; d > 0) {
          Time fwd = d - kDeadlineMargin;
          req.deadline = fwd > 0 ? fwd : d;
        }
      }
    }
    req.polls.push_back(lp.spec);
  }
  PollWait wait;
  wait.remaining = grouped.size();
  wait.on_complete = std::move(done);
  wait.on_failure = std::move(on_failure);
  wait.generation = next_poll_generation_++;
  wait.outstanding = grouped;
  poll_wait_ = std::move(wait);
  for (auto& [source, req] : grouped) {
    SourceRuntime* rt = FindSource(source);
    rt->outbound->Send(std::move(req));
  }
  ArmPollTimeout();
}

Time PollBackoffDelay(const MediatorOptions& options, int attempt,
                      uint64_t generation) {
  // Exponential backoff by round; a multiply loop keeps the double exactly
  // reproducible (std::pow may differ across libms).
  Time delay = options.poll_timeout;
  for (int i = 0; i < attempt; ++i) {
    delay *= options.poll_backoff;
  }
  if (options.poll_jitter > 0) {
    // Seeded jitter (splitmix64 finalizer over seed/generation/attempt)
    // de-synchronizes re-poll rounds across mediators sharing a source
    // while staying byte-reproducible: a replay re-arms identical delays.
    uint64_t x = options.poll_jitter_seed +
                 generation * 0x9E3779B97F4A7C15ULL +
                 (static_cast<uint64_t>(attempt) + 1) * 0xD1B54A32D192ED03ULL;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    const double unit = static_cast<double>(x >> 11) * 0x1.0p-53;
    delay *= 1.0 + options.poll_jitter * unit;
  }
  // The cap bounds the final armed delay, jitter included: however many
  // rounds have failed, a silent source is re-checked at least this often.
  if (options.poll_backoff_cap > 0 && delay > options.poll_backoff_cap) {
    delay = options.poll_backoff_cap;
  }
  return delay;
}

void Mediator::ArmPollTimeout() {
  if (options_.poll_timeout <= 0 || !poll_wait_.has_value()) return;
  Time deadline =
      PollBackoffDelay(options_, poll_wait_->attempt, poll_wait_->generation);
  uint64_t gen = poll_wait_->generation;
  AfterGuarded(deadline, [this, gen]() { OnPollTimeout(gen); });
}

void Mediator::OnPollTimeout(uint64_t generation) {
  if (!poll_wait_.has_value() || poll_wait_->generation != generation ||
      poll_wait_->remaining == 0) {
    return;  // that polling round already completed or was superseded
  }
  PollWait& wait = *poll_wait_;
  ++stats_.poll_timeouts;
  for (const auto& [source, req] : wait.outstanding) {
    if (SourceRuntime* rt = FindSource(source); rt != nullptr) {
      ++rt->poll_failures;
    }
  }
  if (wait.attempt >= options_.poll_max_retries) {
    std::vector<std::string> silent;
    for (const auto& [source, req] : wait.outstanding) {
      silent.push_back(source);
    }
    for (const auto& source : silent) Quarantine(source);
    auto fail = std::move(wait.on_failure);
    Status st = Status::Unavailable(
        "poll timed out after " + std::to_string(wait.attempt + 1) +
        " rounds; silent sources: " + Join(silent, ","));
    if (fail) {
      fail(st);
    } else {
      SQ_LOG(kError) << st.ToString();
      FinishTxn();
    }
    return;
  }
  // Re-poll every silent source under a fresh request id. A late answer to
  // the old id is dropped as stale, so a re-polled source can never be
  // counted twice toward `remaining`.
  ++wait.attempt;
  for (auto& [source, req] : wait.outstanding) {
    req.id = next_poll_id_++;
    ++wait.resends;
    ++stats_.poll_retries;
    if (options_.record_trace) {
      trace_->Note(scheduler_->Now(), "re-poll " + source + " round " +
                                          std::to_string(wait.attempt));
    }
    SourceRuntime* rt = FindSource(source);
    PollRequest copy = req;
    rt->outbound->Send(std::move(copy));
  }
  ArmPollTimeout();
}

void Mediator::Quarantine(const std::string& source) {
  SourceRuntime* rt = FindSource(source);
  if (rt == nullptr || rt->quarantined) return;
  rt->quarantined = true;
  ++stats_.quarantines;
  // A re-quarantine (the source rejoined and failed again) counts twice:
  // once here and once in the cycling-specific counter.
  if (rt->ever_quarantined) ++stats_.requarantines;
  rt->ever_quarantined = true;
  if (options_.record_trace) {
    trace_->Note(scheduler_->Now(), "quarantine " + source + " after " +
                                        std::to_string(rt->poll_failures) +
                                        " silent rounds");
  }
}

void Mediator::ClearQuarantine(SourceRuntime* rt) {
  if (rt == nullptr) return;
  // Any delivery proves the source alive: the rejoined source starts with a
  // clean retry record, so its next quarantine needs a full fresh round of
  // failures rather than inheriting pre-rejoin ones.
  rt->poll_failures = 0;
  if (!rt->quarantined) return;
  rt->quarantined = false;
  if (options_.record_trace) {
    trace_->Note(scheduler_->Now(),
                 "quarantine cleared " + rt->setup.db->name());
  }
}

std::vector<std::string> Mediator::QuarantinedSources() const {
  std::vector<std::string> out;
  for (const auto& rt : sources_) {
    if (rt->quarantined) out.push_back(rt->setup.db->name());
  }
  return out;
}

bool Mediator::SourceDown(const SourceRuntime& rt) const {
  return rt.quarantined ||
         resync_.Health(rt.setup.db->name()) != SourceHealth::kHealthy;
}

void Mediator::BeginResync(SourceRuntime* rt, uint64_t new_epoch) {
  const std::string& name = rt->setup.db->name();
  resync_.SetEpoch(name, new_epoch);
  if (!resync_.NeedsResync(name)) return;  // virtual: epoch tracking only
  resync_.SetHealth(name, SourceHealth::kSuspect);
  ++stats_.resyncs_started;
  // WAL: recovery re-initiates the snapshot pull for any source whose
  // resync began but never logged its done record.
  WalAppended(durability_.LogResyncBegin(name, new_epoch), "resync-begin");
  if (options_.record_trace) {
    trace_->Note(scheduler_->Now(), "resync begin " + name + " epoch " +
                                        std::to_string(new_epoch));
  }
  RequestSnapshot(rt);
}

void Mediator::RequestSnapshot(SourceRuntime* rt) {
  const std::string& name = rt->setup.db->name();
  SnapshotRequest req;
  req.id = next_resync_id_++;
  req.relations = resync_.Relations(name);
  resync_.SetOutstandingRequest(name, req.id);
  resync_.SetHealth(name, SourceHealth::kResyncing);
  ++stats_.snapshots_requested;
  rt->outbound->Send(std::move(req));
  // The request or its answer can be lost to a crash window; re-request
  // under a fresh id (a late answer to this one is then dropped as stale)
  // until one lands.
  AfterGuarded(kSnapshotRetryDelay, [this, rt, id = req.id]() {
    if (resync_.OutstandingRequest(rt->setup.db->name()) == id) {
      if (options_.record_trace) {
        trace_->Note(scheduler_->Now(),
                     "snapshot re-request " + rt->setup.db->name());
      }
      RequestSnapshot(rt);
    }
  });
}

void Mediator::OnSnapshotAnswer(SnapshotAnswer ans) {
  SourceRuntime* rt = FindSource(ans.source);
  if (rt == nullptr) return;
  ClearQuarantine(rt);
  const std::string& name = ans.source;
  if (ans.epoch != resync_.Epoch(name) ||
      resync_.OutstandingRequest(name) != ans.id) {
    // Answer to a superseded request, or the source restarted AGAIN after
    // answering — a newer hello already re-began the resync.
    ++stats_.stale_poll_answers;
    return;
  }
  if (!ChecksumVerifies(ans)) {
    // A poisoned snapshot would not merely lose an update — Corrective()
    // would compute a wrong diff and OVERWRITE good mirror state with it.
    // Drop the answer and pull again under a fresh id; corruption is
    // transient (see FaultPlan::snapshot_corrupt_prob), so a retry lands.
    ++stats_.snapshot_checksum_failures;
    if (options_.record_trace) {
      trace_->Note(scheduler_->Now(), "snapshot checksum mismatch " + name);
    }
    RequestSnapshot(rt);
    return;
  }
  // Believed in-transit state: messages still queued, plus the batch of an
  // update transaction that flushed them but has not advanced the mirrors
  // yet. Both are "received and will be applied", so the corrective diff
  // must treat them as part of what the mediator already has.
  MultiDelta in_transit;
  if (current_inflight_ != nullptr) {
    auto iit = current_inflight_->find(name);
    if (iit != current_inflight_->end()) in_transit = iit->second;
  }
  // A partial in-transit delta would make the corrective re-apply or drop
  // changes, so failing to assemble it takes the corrective-failure path.
  auto pending = queue_.PendingFrom(name);
  Status merged = pending.status();
  if (merged.ok()) merged = in_transit.SmashInPlace(pending.value());
  if (!merged.ok()) {
    SQ_LOG(kError) << "in-transit delta failed: " << merged.ToString();
    RequestSnapshot(rt);  // retry from scratch under a fresh id
    return;
  }
  auto corrective = resync_.Corrective(name, in_transit, ans.relations);
  if (!corrective.ok()) {
    SQ_LOG(kError) << "corrective diff failed: "
                   << corrective.status().ToString();
    RequestSnapshot(rt);  // retry from scratch under a fresh id
    return;
  }
  // The corrective rides the normal update path as an ordinary message:
  // WAL enqueue, queue, IUP kernel, reflect advance to the instant the
  // snapshot was taken. Enqueued even when empty — the reflect advance to
  // answered_at is the proof the view caught up.
  UpdateMessage fix;
  fix.source = name;
  fix.send_time = ans.answered_at;
  fix.seq = ans.announce_seq;
  fix.epoch = ans.epoch;
  fix.delta = std::move(corrective).value();
  const uint64_t atoms = fix.delta.AtomCount();
  if (!WalAppended(durability_.LogEnqueue(fix, queue_.WouldCoalesce(fix)),
                   "enqueue")) {
    // An unlogged corrective would vanish at the next crash while the dedup
    // floor below had already advanced past it. Abandon this answer and
    // pull again; the retry loop spans the device outage.
    RequestSnapshot(rt);
    return;
  }
  queue_.Enqueue(std::move(fix));
  // The snapshot covers every announcement the source ever sent before it
  // (same FIFO channel, announcer flushed before answering), so the
  // source's announcement count at answer time is a safe dedup floor.
  rt->last_update_seq = ans.announce_seq;
  resync_.SetOutstandingRequest(name, 0);
  resync_.SetHealth(name, SourceHealth::kHealthy);
  ++stats_.resyncs_completed;
  WalAppended(durability_.LogResyncDone(name, ans.epoch, ans.announce_seq),
              "resync-done");
  if (options_.record_trace) {
    trace_->Note(scheduler_->Now(),
                 "resync done " + name + " epoch " +
                     std::to_string(ans.epoch) + " corrective atoms " +
                     std::to_string(atoms));
  }
  MaybeShed();
  if (options_.update_period <= 0) ScheduleUpdateTxn();
}

void Mediator::MaybeShed() {
  if (options_.max_queue_depth == 0) return;
  // Shedding is gated on a resync being in progress: normal-operation
  // queues are never silently compacted, however deep.
  while (queue_.Size() > options_.max_queue_depth && resync_.AnyUnhealthy()) {
    if (!queue_.CanCoalesceOldest()) break;
    // Log BEFORE merging: replay re-runs the identical pair search, so a
    // shed record must exist iff the live merge happened. If the device
    // rejects the record, skip the shed (the queue stays deep — safe, just
    // unshed) rather than diverge from the log.
    if (!WalAppended(durability_.LogShed(), "shed")) break;
    queue_.CoalesceOldest();
    ++stats_.updates_shed;
  }
}

bool Mediator::WalAppended(const Status& appended, const char* record) {
  if (appended.ok()) return true;
  SQ_LOG(kError) << "WAL " << record << " failed: " << appended.ToString();
  ++stats_.wal_append_failures;
  return false;
}

Vap::PollFn Mediator::ReadyPollFn() {
  return [this](const std::string& source,
                const PollSpec& spec) -> Result<Relation> {
    (void)spec;  // answers are consumed in plan order per source
    if (!poll_wait_.has_value()) {
      return Status::Internal("poll requested outside a poll wait");
    }
    auto& ready = poll_wait_->ready[source];
    if (ready.empty()) {
      return Status::Internal("no buffered poll answer from " + source);
    }
    Relation out = std::move(ready.front());
    ready.pop_front();
    return out;
  };
}

Vap::CompensationFn Mediator::MakeCompensation(
    const std::map<std::string, MultiDelta>* inflight) const {
  return [this, inflight](const std::string& source,
                          const std::string& relation,
                          const Schema& schema) -> Result<Delta> {
    Delta total(schema);
    if (inflight != nullptr) {
      auto it = inflight->find(source);
      if (it != inflight->end()) {
        const Delta* d = it->second.Find(relation);
        if (d != nullptr) SQ_RETURN_IF_ERROR(total.SmashInPlace(*d));
      }
    }
    // Pending updates as of the instant this source's answer arrived (the
    // per-channel FIFO makes exactly those visible in the answer).
    if (poll_wait_.has_value()) {
      auto pit = poll_wait_->pending_at_answer.find(source);
      if (pit != poll_wait_->pending_at_answer.end()) {
        const Delta* d = pit->second.Find(relation);
        if (d != nullptr) SQ_RETURN_IF_ERROR(total.SmashInPlace(*d));
      }
      return total;
    }
    SQ_ASSIGN_OR_RETURN(MultiDelta pending, queue_.PendingFrom(source));
    const Delta* d = pending.Find(relation);
    if (d != nullptr) SQ_RETURN_IF_ERROR(total.SmashInPlace(*d));
    return total;
  };
}

TimeVector Mediator::UpdateReflect() const {
  TimeVector out(sources_.size(), 0);
  for (size_t i = 0; i < sources_.size(); ++i) {
    out[i] = sources_[i]->kind == ContributorKind::kVirtual
                 ? scheduler_->Now()
                 : sources_[i]->last_reflected_send;
  }
  return out;
}

TimeVector Mediator::QueryReflect(
    const std::vector<std::string>& polled) const {
  TimeVector out(sources_.size(), 0);
  for (size_t i = 0; i < sources_.size(); ++i) {
    const SourceRuntime& rt = *sources_[i];
    if (rt.kind != ContributorKind::kVirtual) {
      out[i] = rt.last_reflected_send;
      continue;
    }
    // Virtual contributor: polled -> the source-side answer time; untouched
    // by this query -> the current time (its state is simply irrelevant).
    auto pit = std::find(polled.begin(), polled.end(), rt.setup.db->name());
    if (pit != polled.end() && poll_wait_.has_value()) {
      auto ait = poll_wait_->answered_at.find(rt.setup.db->name());
      out[i] = ait != poll_wait_->answered_at.end() ? ait->second
                                                    : scheduler_->Now();
    } else {
      out[i] = scheduler_->Now();
    }
  }
  return out;
}

void Mediator::RecordUpdateCommit(const IupStats& stats, uint64_t polls) {
  ++stats_.update_txns;
  stats_.polls += polls;
  stats_.iup.Merge(stats);
  if (!options_.record_trace) return;
  TraceEntry entry;
  entry.kind = TxnKind::kUpdate;
  entry.commit_time = scheduler_->Now();
  entry.reflect = UpdateReflect();
  entry.iup_stats = stats;
  entry.polls = polls;
  if (options_.snapshot_repos) {
    for (const auto& node : store_->MaterializedNodes()) {
      entry.repo_snapshot.emplace(node, **store_->Repo(node));
    }
  }
  trace_->Add(std::move(entry));
}

void Mediator::RunUpdateTxn() {
  auto msgs_shared =
      std::make_shared<std::vector<UpdateMessage>>(queue_.Flush());
  const std::vector<UpdateMessage>& msgs = *msgs_shared;
  if (msgs.empty()) {
    FinishTxn();
    return;
  }
  // WAL: begin record. Recovery treats a begin without a matching commit or
  // abort as a crash mid-transaction and leaves its messages at the queue
  // front (the Requeue ordering) — volatile effects simply never happened.
  const uint64_t txn_id = next_txn_id_++;
  if (!WalAppended(durability_.LogTxnBegin(txn_id, msgs.size()), "begin")) {
    // Applying a batch the log never saw begin would let a crash replay it
    // a second time from the surviving enqueue records. Put the flush back
    // untouched and retry the whole transaction later.
    queue_.Requeue(std::move(*msgs_shared));
    if (options_.update_period <= 0) {
      AfterGuarded(kWalBeginRetryDelay, [this]() { ScheduleUpdateTxn(); });
    }
    FinishTxn();
    return;
  }
  // Messages that fail assembly below are dropped, not re-queued; the abort
  // record's `requeued` flag tells recovery which of the two happened.
  auto log_abort = [this, txn_id](bool requeued) {
    WalAppended(durability_.LogTxnAbort(txn_id, requeued), "abort");
  };
  // Assemble (a) the per-leaf deltas for the kernel, (b) the per-source
  // in-flight batch for Eager Compensation, and (c) the reflect candidates.
  auto leaf_deltas = std::make_shared<std::map<std::string, Delta>>();
  auto inflight = std::make_shared<std::map<std::string, MultiDelta>>();
  auto reflect_candidates = std::make_shared<std::map<std::string, Time>>();
  Status st = Status::OK();
  for (const auto& msg : msgs) {
    (*reflect_candidates)[msg.source] = msg.send_time;
    SQ_LOG(kDebug) << "IUP consuming update from " << msg.source << " sent at "
                   << msg.send_time;
    if (!(*inflight)[msg.source].SmashInPlace(msg.delta).ok()) {
      st = Status::Internal("in-flight smash failed");
    }
    for (const auto& rel : msg.delta.RelationNames()) {
      const VdpNode* leaf = vdp_.FindLeaf(msg.source, rel);
      if (leaf == nullptr) continue;  // irrelevant relation
      const Delta* d = msg.delta.Find(rel);
      // Narrow to the leaf's declared attributes (paper §6.2's filtering).
      auto narrowed = DeltaProject(*d, leaf->schema.AttributeNames());
      if (!narrowed.ok()) {
        st = narrowed.status();
        break;
      }
      auto [it, inserted] =
          leaf_deltas->try_emplace(leaf->name, Delta(leaf->schema));
      (void)inserted;
      Status s = it->second.SmashInPlace(*narrowed);
      if (!s.ok()) st = s;
    }
  }
  // IUP Preparation and VAP planning, once per transaction (paper §6.4
  // phase a, §6.3 phase 1). The plan reads the batch's deltas and the
  // static annotation; its key sets are bound to the repositories as they
  // stand now, which the commit below reads too, because this transaction
  // holds the slot however long the polls take. No temp requests make an
  // empty plan: pure local propagation.
  Result<VapPlan> planned = [&]() -> Result<VapPlan> {
    SQ_RETURN_IF_ERROR(st);
    SQ_ASSIGN_OR_RETURN(std::vector<TempRequest> requests,
                        iup_->PrepareTempRequests(*leaf_deltas));
    SQ_ASSIGN_OR_RETURN(VapPlan plan, vap_->Plan(requests));
    return vap_->Bind(std::move(plan));
  }();
  if (!planned.ok()) {
    SQ_LOG(kError) << "update transaction failed: "
                   << planned.status().ToString();
    log_abort(/*requeued=*/false);
    FinishTxn();
    return;
  }
  auto plan = std::make_shared<const VapPlan>(std::move(planned).value());
  // From flush until the mirrors advance at commit, the batch is in flight:
  // a snapshot answer arriving in this window must count it as believed
  // state (it left the queue but is not in the mirrors yet). Cleared at
  // commit, and by FinishTxn/Crash on every abort path.
  current_inflight_ = inflight.get();

  auto commit = [this, txn_id, log_abort, msgs_shared, leaf_deltas, inflight,
                 reflect_candidates, plan]() {
    txn_delta_capture_.clear();
    capturing_deltas_ = true;
    Result<IupStats> stats =
        iup_->ProcessBatch(*leaf_deltas, *plan, ReadyPollFn(),
                           MakeCompensation(inflight.get()));
    capturing_deltas_ = false;
    if (!stats.ok()) {
      SQ_LOG(kError) << "IUP failed: " << stats.status().ToString();
      log_abort(/*requeued=*/false);
      FinishTxn();
      return;
    }
    if (poll_wait_.has_value()) {
      stats->poll_retries = poll_wait_->resends;
    }
    for (const auto& [source, send_time] : *reflect_candidates) {
      SourceRuntime* rt = FindSource(source);
      if (rt != nullptr) {
        rt->last_reflected_send = std::max(rt->last_reflected_send, send_time);
      }
    }
    // The believed-state mirrors absorb the committed batch the same
    // instant the repositories do; the in-flight window is over.
    for (const auto& [source, md] : *inflight) {
      Status ms = resync_.Advance(source, md);
      if (!ms.ok()) {
        SQ_LOG(kError) << "mirror advance failed: " << ms.ToString();
      }
    }
    current_inflight_ = nullptr;
    // MVCC: expose the committed state as a new immutable version. Apply
    // and publish happen in this same event, so readers either see the
    // whole transaction or none of it — never a half-committed store.
    PublishStoreSnapshot();
    // Composition hook: hand the committed per-node deltas to any export
    // announcers before the capture is moved into the WAL record below.
    if (!commit_listeners_.empty() && !txn_delta_capture_.empty()) {
      for (const auto& fn : commit_listeners_) {
        fn(scheduler_->Now(), txn_delta_capture_);
      }
    }
    // WAL: commit record. Only now are the transaction's effects — the
    // narrowed node deltas just applied, the reflect advances, and the
    // mirror advances — durable; a crash any earlier rolls the whole
    // transaction back at recovery.
    if (durability_.wal_enabled()) {
      CommitPayload payload;
      payload.txn_id = txn_id;
      payload.consumed = msgs_shared->size();
      payload.node_deltas = std::move(txn_delta_capture_);
      payload.reflect = *reflect_candidates;
      payload.source_deltas = *inflight;
      Status ds = durability_.LogTxnCommit(payload);
      if (!ds.ok()) {
        // Tolerable: a missing commit record rolls this transaction back at
        // recovery, and the front-requeued messages replay it from scratch.
        // State after the replay matches state after the live commit.
        SQ_LOG(kError) << "WAL commit failed: " << ds.ToString();
        ++stats_.wal_append_failures;
      }
    }
    txn_delta_capture_.clear();
    stats_.polled_tuples += stats->polled_tuples;
    auto finalize = [this, s = *stats]() {
      RecordUpdateCommit(s, s.polls);
      ++commits_since_checkpoint_;
      MaybeCheckpoint();
      FinishTxn();
    };
    if (options_.u_proc_delay > 0) {
      AfterGuarded(options_.u_proc_delay, finalize);
    } else {
      finalize();
    }
  };

  if (plan->polls.empty()) {
    commit();  // no source to wait for: commit in this very event
    return;
  }
  // Abort path (exhausted poll retries): put the flushed messages back at
  // the queue front — nothing has been applied yet, so the view still
  // reflects the state before this batch — and retry once the quarantined
  // source has had time to recover.
  auto abort = [this, msgs_shared, log_abort](const Status& st) {
    ++stats_.update_txn_aborts;
    if (options_.record_trace) {
      trace_->Note(scheduler_->Now(),
                   "update txn aborted: " + st.ToString());
    }
    log_abort(/*requeued=*/true);
    queue_.Requeue(std::move(*msgs_shared));
    FinishTxn();
    AfterGuarded(options_.txn_retry_delay, [this]() {
      if (!queue_.Empty()) ScheduleUpdateTxn();
    });
  };
  // Fast-abort when the plan needs a poll of a resyncing source: its
  // answers would be dropped anyway (believed state is being re-based), so
  // skip the timeout rounds and retry after the resync has had time to
  // finish.
  for (const auto& src : plan->PolledSources()) {
    if (resync_.Health(src) != SourceHealth::kHealthy) {
      abort(Status::Unavailable("update txn needs a poll of resyncing " +
                                src));
      return;
    }
  }
  IssuePolls(*plan, commit, abort);
}

void Mediator::SubmitQuery(const ViewQuery& q,
                           std::function<void(Result<ViewAnswer>)> callback) {
  if (crashed_) {
    ++stats_.failed_queries;
    callback(Status::Unavailable("mediator is down"));
    return;
  }
  const Time now = scheduler_->Now();
  if (q.deadline > 0 && now >= q.deadline) {
    // Dead on arrival: reject before spending an admission slot on it.
    ++stats_.deadline_exceeded_queries;
    callback(Status::DeadlineExceeded("query deadline " +
                                      std::to_string(q.deadline) +
                                      " already passed at submit"));
    return;
  }
  // Prepare and plan once. Both read only the query and the static
  // annotation — never data or time — so snapshot eligibility below, the
  // transaction and a deadline-degraded answer all reuse them. The plan's
  // key sets, which do read data, are bound when the answer's state is
  // fixed: as the transaction starts, or from the pinned snapshot. An
  // invalid query is refused here with its typed error, before it spends
  // an admission slot.
  auto run = std::make_shared<QueryRun>();
  Status planned = [&]() -> Status {
    SQ_ASSIGN_OR_RETURN(run->prepared, qp_->Prepare(q));
    SQ_ASSIGN_OR_RETURN(std::optional<VapPlan> plan,
                        qp_->PlanFor(run->prepared));
    if (plan.has_value()) run->plan = std::move(*plan);
    return Status::OK();
  }();
  if (!planned.ok()) {
    callback(std::move(planned));
    return;
  }
  // Admission gate: over-limit or soft-budget-shed queries are refused in
  // this very event with a typed error and a retry-after hint — fast
  // rejection is the whole point, they must not queue first.
  MemoryBudget* budget = GlobalMemoryBudget();
  const uint64_t shed_before = admission_.shed_soft_budget();
  Status admit = admission_.Admit(
      q.qclass, budget != nullptr && budget->SoftBreached());
  if (!admit.ok()) {
    if (admission_.shed_soft_budget() > shed_before) {
      ++stats_.queries_shed_soft_budget;
    } else {
      ++stats_.queries_rejected_overload;
    }
    if (options_.record_trace) {
      trace_->Note(now, "query rejected: " + admit.ToString());
    }
    callback(std::move(admit));
    return;
  }
  run->cb = std::move(callback);
  if (q.deadline > 0) {
    AfterGuarded(q.deadline - now, [this, run]() { OnQueryDeadline(run); });
  }
  // MVCC: a poll-free plan takes the lock-free snapshot path instead of
  // serializing behind the transaction queue.
  if (options_.mvcc_reads && run->plan.polls.empty() &&
      store_->Snapshot() != nullptr) {
    ServeSnapshotQuery(std::move(run));
    return;
  }
  EnqueueTxn([this, run = std::move(run)]() { RunQueryTxn(run); });
}

void Mediator::ResolveQuery(const std::shared_ptr<QueryRun>& run,
                            Result<ViewAnswer> answer) {
  if (run == nullptr || run->resolved) return;
  run->resolved = true;
  const bool holds_slot = run == active_query_run_;
  admission_.Release(run->prepared.query.qclass);
  if (!answer.ok()) {
    switch (answer.status().code()) {
      case StatusCode::kDeadlineExceeded:
        ++stats_.deadline_exceeded_queries;
        break;
      case StatusCode::kOverloaded:
        // The only kOverloaded source past admission is the memory budget's
        // hard limit (admission rejections never reach ResolveQuery).
        ++stats_.queries_cancelled_memory;
        break;
      default:
        break;  // kUnavailable etc. keep their pre-existing counters
    }
  }
  auto cb = std::move(run->cb);
  if (cb) cb(std::move(answer));
  // A running query also holds the transaction slot (and possibly a poll
  // round): release both so the next transaction starts and late answers
  // are dropped as stale.
  if (holds_slot) FinishTxn();
}

void Mediator::OnQueryDeadline(std::shared_ptr<QueryRun> run) {
  if (run == nullptr || run->resolved) return;
  Status expired = Status::DeadlineExceeded(
      "query deadline " + std::to_string(run->prepared.query.deadline) +
      " exceeded at " + std::to_string(scheduler_->Now()));
  run->cancel.Cancel(expired);
  if (options_.degraded_reads && run->started) {
    // Deadline-expiry degradation: abandon the poll round and serve the
    // materialized fraction with staleness annotations, in this very event
    // (no q_proc_delay — the answer must not outlive the deadline further).
    if (options_.record_trace) {
      trace_->Note(scheduler_->Now(),
                   "query degraded at deadline: " + expired.ToString());
    }
    ServeDegraded(std::move(run), /*immediate=*/true);
    return;
  }
  // ResolveQuery releases a running query's transaction slot; a queued
  // query's closure finds `resolved` set and releases its slot itself when
  // its turn comes.
  ResolveQuery(run, std::move(expired));
}

void Mediator::PublishStoreSnapshot() {
  if (!options_.mvcc_reads) return;
  store_->PublishSnapshot(UpdateReflect());
  ++stats_.snapshots_published;
  stats_.snapshot_copies = store_->SnapshotCopies();
}

Result<QueryProcessor::LocalAnswer> Mediator::ComputeQuery(
    QueryRun& run, const Vap::PollFn& poll, const Vap::CompensationFn& comp,
    const StoreSnapshot* snap) const {
  // Cancellable region: the VAP assembly loop checks between build steps,
  // the kernels every kCancelCheckRows rows, so a deadline or the memory
  // budget's hard limit stops the computation at the next check site.
  ScopedCancelScope scope(&run.cancel);
  SQ_ASSIGN_OR_RETURN(TempStore temps,
                      vap_->Execute(run.plan, poll, comp, snap));
  SQ_ASSIGN_OR_RETURN(QueryProcessor::LocalAnswer local,
                      qp_->AnswerWithTemps(run.prepared, temps, snap));
  local.polls = temps.polls;
  local.polled_tuples = temps.polled_tuples;
  return local;
}

void Mediator::CommitQuery(const std::shared_ptr<QueryRun>& run,
                           ViewAnswer answer) {
  answer.commit_time = scheduler_->Now();
  if (options_.record_trace) {
    TraceEntry entry;
    entry.kind = TxnKind::kQuery;
    entry.commit_time = answer.commit_time;
    entry.reflect = answer.reflect;
    entry.polls = answer.polls;
    entry.query = run->prepared.query;
    entry.answer = answer.data;
    trace_->Add(std::move(entry));
  }
  ++stats_.query_txns;
  stats_.polls += answer.polls;
  ResolveQuery(run, std::move(answer));
}

void Mediator::ServeSnapshotQuery(std::shared_ptr<QueryRun> run) {
  ++stats_.snapshot_queries;
  run->started = true;
  auto serve = [this, run = std::move(run)]() {
    if (run->resolved) return;  // deadline fired during the processing wait
    // Pin the latest committed version; the whole computation below reads
    // it even if an update transaction commits concurrently. In-sim, apply
    // and publish are atomic within the commit event, so this snapshot is
    // exactly the live committed store — the answer is byte-identical to a
    // serialized no-poll query committing at this instant.
    StoreSnapshotPtr snap = store_->Snapshot();
    if (snap == nullptr) {
      ResolveQuery(run, Status::Internal("mvcc: no published store snapshot"));
      return;
    }
    auto local = ComputeQuery(*run, nullptr, nullptr, snap.get());
    if (!local.ok()) {
      ResolveQuery(run, local.status());
      return;
    }
    ViewAnswer answer;
    answer.data = std::move(local->data);
    answer.used_virtual = local->used_virtual;
    answer.polls = local->polls;
    // Materialized/hybrid entries come from the snapshot's commit tag; a
    // virtual contributor's state is irrelevant to a poll-free query, so
    // its entry is "now" — the same rule QueryReflect applies. The entries
    // can only have advanced since the snapshot's publish, so trace order
    // (reflect monotonicity) is preserved.
    TimeVector reflect = snap->reflect();
    for (size_t i = 0; i < sources_.size(); ++i) {
      if (sources_[i]->kind == ContributorKind::kVirtual) {
        reflect[i] = scheduler_->Now();
      }
    }
    answer.reflect = std::move(reflect);
    CommitQuery(run, std::move(answer));
  };
  // The whole computation — snapshot pin included — runs at completion
  // time, so the recorded reflect can never precede an update entry that
  // committed while this query was "processing".
  if (options_.q_proc_delay > 0) {
    AfterGuarded(options_.q_proc_delay, std::move(serve));
  } else {
    serve();
  }
}

void Mediator::RunQueryTxn(std::shared_ptr<QueryRun> run) {
  if (run->resolved) {
    // Resolved while queued (its deadline fired first): the slot it was
    // waiting for is all it still holds — release it.
    FinishTxn();
    return;
  }
  active_query_run_ = run;
  run->started = true;
  // Key sets come from the repositories as this transaction starts: the
  // query may have waited behind updates since it was planned, and the
  // answer reads its materialized part in this state.
  Result<VapPlan> bound = vap_->Bind(std::move(run->plan));
  if (!bound.ok()) {
    ResolveQuery(run, bound.status());
    return;
  }
  run->plan = std::move(bound).value();
  // Answers from the polled sources (none for a poll-free plan) and stamps
  // the reflect vector now; the commit follows after q_proc_delay.
  auto execute = [this, run]() {
    if (run->resolved) return;  // defensive; the wait dies with the txn slot
    auto local =
        ComputeQuery(*run, ReadyPollFn(), MakeCompensation(nullptr), nullptr);
    if (!local.ok()) {
      ResolveQuery(run, local.status());
      return;
    }
    stats_.polled_tuples += local->polled_tuples;
    ViewAnswer answer;
    answer.data = std::move(local->data);
    answer.used_virtual = local->used_virtual;
    answer.polls = local->polls;
    answer.reflect = QueryReflect(run->plan.PolledSources());
    auto complete = [this, run, answer = std::move(answer)]() mutable {
      // Deadline fired during the q_proc_delay wait: the deadline handler
      // already resolved the query AND finished the transaction slot.
      if (run->resolved) return;
      CommitQuery(run, std::move(answer));
    };
    if (options_.q_proc_delay > 0) {
      AfterGuarded(options_.q_proc_delay, std::move(complete));
    } else {
      complete();
    }
  };
  const VapPlan& plan = run->plan;
  if (plan.polls.empty()) {
    execute();
    return;
  }
  // Degraded reads, proactive: polling a source known to be down (suspect,
  // resyncing, or quarantined) would only burn the timeout rounds; serve
  // the materialized data with staleness annotations immediately.
  if (options_.degraded_reads) {
    for (const auto& src : plan.PolledSources()) {
      SourceRuntime* rt = FindSource(src);
      if (rt != nullptr && SourceDown(*rt)) {
        ServeDegraded(run, /*immediate=*/false);
        return;
      }
    }
  }
  // Queries have a caller to report to: fail over instead of retrying —
  // or, with degraded reads on, fall back to the materialized data (the
  // reactive path: the source went silent without a known-down marker).
  auto fail = [this, run](const Status& st) {
    if (options_.degraded_reads) {
      if (options_.record_trace) {
        trace_->Note(scheduler_->Now(),
                     "query degraded after poll failure: " + st.ToString());
      }
      ServeDegraded(run, /*immediate=*/false);
      return;
    }
    ++stats_.failed_queries;
    if (options_.record_trace) {
      trace_->Note(scheduler_->Now(), "query failed: " + st.ToString());
    }
    ResolveQuery(run, st);
  };
  IssuePolls(plan, execute, fail);
}

void Mediator::ServeDegraded(std::shared_ptr<QueryRun> run, bool immediate) {
  // Deliberately NO cancel scope here: a query being degraded at its
  // deadline has a cancelled token, and the fallback computation must not
  // kill itself at the kernels' check sites — it IS the error handling.
  auto local = qp_->AnswerDegraded(run->prepared);
  if (!local.ok()) {
    // Nothing materialized to serve: fail over exactly as without degraded
    // reads — except a deadline-triggered call surfaces its typed reason.
    Status st = run->cancel.cancelled() ? run->cancel.status() : local.status();
    if (!run->cancel.cancelled()) ++stats_.failed_queries;
    if (options_.record_trace) {
      trace_->Note(scheduler_->Now(), "query failed: " + st.ToString());
    }
    ResolveQuery(run, std::move(st));
    return;
  }
  ViewAnswer answer;
  answer.data = std::move(local->data);
  answer.degraded = true;
  answer.missing_attrs = std::move(local->missing_attrs);
  answer.cond_dropped = local->cond_dropped;
  answer.reflect = UpdateReflect();
  auto complete = [this, answer = std::move(answer),
                   run = std::move(run)]() mutable {
    // Deadline fired during the q_proc_delay wait: the deadline handler
    // re-served this query immediately (and finished the txn slot).
    if (run->resolved) return;
    answer.commit_time = scheduler_->Now();
    std::vector<bool> down;
    down.reserve(sources_.size());
    for (const auto& rt : sources_) down.push_back(SourceDown(*rt));
    answer.staleness =
        AnnotateStaleness(SourceNames(), ContributorKinds(), answer.reflect,
                          answer.commit_time, down);
    ++stats_.degraded_queries;
    // Recorded as a trace NOTE, not a kQuery entry: degraded answers are
    // deliberately inconsistent (stale + attribute-truncated), so the
    // consistency checker must not judge them — but they stay part of the
    // byte-identical replay surface.
    if (options_.record_trace) {
      std::string note =
          "degraded query " + run->prepared.query.ToString() + " -> " +
          std::to_string(answer.data.DistinctSize()) + " tuples";
      for (const auto& s : answer.staleness) note += " " + s.ToString();
      trace_->Note(answer.commit_time, note);
    }
    // Only the transaction-owning query releases the slot; a deadline-
    // degraded MVCC query never held it.
    ResolveQuery(run, std::move(answer));
  };
  if (!immediate && options_.q_proc_delay > 0) {
    AfterGuarded(options_.q_proc_delay, std::move(complete));
  } else {
    complete();
  }
}

std::vector<ContributorKind> Mediator::ContributorKinds() const {
  std::vector<ContributorKind> out;
  for (const auto& rt : sources_) out.push_back(rt->kind);
  return out;
}

std::vector<std::string> Mediator::SourceNames() const {
  std::vector<std::string> out;
  for (const auto& rt : sources_) out.push_back(rt->setup.db->name());
  return out;
}

std::vector<DelayProfile> Mediator::DelayProfiles() const {
  std::vector<DelayProfile> out;
  for (const auto& rt : sources_) {
    DelayProfile p;
    p.ann_delay = std::max<Time>(0, rt->setup.announce_period);
    p.comm_delay = rt->setup.comm_delay;
    p.q_proc_delay = rt->setup.q_proc_delay;
    out.push_back(p);
  }
  return out;
}

MediatorDelays Mediator::Delays() const {
  MediatorDelays d;
  d.u_hold_delay = std::max<Time>(0, options_.update_period);
  d.u_proc_delay = options_.u_proc_delay;
  d.q_proc_delay = options_.q_proc_delay;
  return d;
}

HardState Mediator::BuildHardState() const {
  HardState hs;
  for (const auto& node : store_->MaterializedNodes()) {
    hs.repos.emplace(node, **store_->Repo(node));
  }
  hs.queue = queue_.Snapshot();
  for (const auto& rt : sources_) {
    const std::string& name = rt->setup.db->name();
    HardState::SourceState ss;
    ss.last_update_seq = rt->last_update_seq;
    ss.last_reflected_send = rt->last_reflected_send;
    ss.quarantined = rt->quarantined;
    ss.epoch = resync_.Epoch(name);
    ss.health = static_cast<uint8_t>(resync_.Health(name));
    hs.sources.emplace(name, ss);
    if (resync_.NeedsResync(name)) {
      hs.mirrors.emplace(name, resync_.Mirror(name));
    }
  }
  hs.next_txn_id = next_txn_id_;
  hs.next_resync_id = next_resync_id_;
  hs.snapshot_version = store_->SnapshotVersion();
  return hs;
}

void Mediator::MaybeCheckpoint() {
  if (!durability_.CheckpointDue(commits_since_checkpoint_)) return;
  Status st = durability_.WriteCheckpoint(BuildHardState());
  if (!st.ok()) {
    // Non-fatal: the previous generation stays valid and the WAL suffix
    // just grows until a later attempt succeeds.
    SQ_LOG(kError) << "checkpoint failed: " << st.ToString();
    ++stats_.checkpoint_failures;
    return;
  }
  commits_since_checkpoint_ = 0;
  if (options_.record_trace) {
    trace_->Note(scheduler_->Now(), "checkpoint written");
  }
}

void Mediator::Crash() {
  if (!started_ || crashed_) return;
  crashed_ = true;
  ++epoch_;  // every timer of this incarnation is now a no-op
  ++stats_.mediator_crashes;
  busy_ = false;
  update_txn_scheduled_ = false;
  capturing_deltas_ = false;
  txn_delta_capture_.clear();
  pending_txns_.clear();
  poll_wait_.reset();
  current_inflight_ = nullptr;
  // Every admitted query dies with the process (its callback never fires,
  // like the cleared pending_txns_); the gate must not carry their slots
  // into the next incarnation. The deadline timers they armed are
  // epoch-guarded no-ops now.
  active_query_run_ = nullptr;
  admission_.ResetInflight();
  queue_.Restore({});
  resync_.WipeVolatile();
  next_resync_id_ = 1;
  for (auto& rt : sources_) {
    rt->last_update_seq = 0;
    rt->last_reflected_send = 0;
    rt->quarantined = false;
    rt->ever_quarantined = false;
    rt->poll_failures = 0;
  }
  // The repositories and the snapshot state are volatile memory; wipe them
  // in place (the VAP/IUP/QP hold pointers to the store, so the store object
  // itself must survive).
  store_->Wipe();
  // The trace and stats model EXTERNAL observability (a monitoring system),
  // not process memory, so they deliberately survive the crash.
  if (options_.record_trace) {
    trace_->Note(scheduler_->Now(), "mediator crash");
  }
}

Status Mediator::Recover() {
  if (!started_) {
    return Status::FailedPrecondition("mediator was never started");
  }
  if (!crashed_) {
    return Status::FailedPrecondition("mediator is not crashed");
  }
  if (!durability_.enabled()) {
    return Status::FailedPrecondition(
        "durability disabled: the mediator's state is gone");
  }
  SQ_ASSIGN_OR_RETURN(RecoveredState rec, durability_.Recover());
  for (auto& [node, rel] : rec.state.repos) {
    SQ_RETURN_IF_ERROR(store_->SetRepo(node, std::move(rel)));
  }
  queue_.Restore(std::move(rec.state.queue));
  for (auto& rt : sources_) {
    auto it = rec.state.sources.find(rt->setup.db->name());
    if (it == rec.state.sources.end()) continue;
    rt->last_update_seq = it->second.last_update_seq;
    rt->last_reflected_send = it->second.last_reflected_send;
    rt->quarantined = it->second.quarantined;
    resync_.SetEpoch(rt->setup.db->name(), it->second.epoch);
    resync_.SetHealth(rt->setup.db->name(),
                      static_cast<SourceHealth>(it->second.health));
  }
  for (auto& [source, rels] : rec.state.mirrors) {
    for (auto& [rel_name, rel] : rels) {
      Status ms = resync_.SetMirror(source, rel_name, std::move(rel));
      if (!ms.ok()) {
        SQ_LOG(kError) << "mirror restore failed: " << ms.ToString();
      }
    }
  }
  next_txn_id_ = rec.state.next_txn_id;
  next_resync_id_ = rec.state.next_resync_id;
  // MVCC: resume the version chain strictly past everything the dead
  // incarnation may have published (WAL replay can run past the checkpoint,
  // so advance by the replayed commits too), then publish the recovered
  // repositories as a fresh version.
  store_->EnsureSnapshotVersionAtLeast(rec.state.snapshot_version +
                                       rec.txns_replayed);
  crashed_ = false;
  ++stats_.recoveries;
  stats_.recovery_txns_replayed += rec.txns_replayed;
  stats_.recovery_txns_rolled_back += rec.txns_rolled_back;
  stats_.recovery_msgs_requeued += rec.msgs_requeued;
  stats_.recovery_tail_repairs += rec.tail_records_dropped;
  stats_.recovery_checkpoint_fallbacks += rec.checkpoint_fallbacks;
  if (options_.record_trace) {
    trace_->Note(scheduler_->Now(),
                 "mediator recovered: replayed=" +
                     std::to_string(rec.txns_replayed) + " rolled_back=" +
                     std::to_string(rec.txns_rolled_back) + " requeued=" +
                     std::to_string(rec.msgs_requeued) + " tail_dropped=" +
                     std::to_string(rec.tail_records_dropped) +
                     " ckpt_fallbacks=" +
                     std::to_string(rec.checkpoint_fallbacks));
  }
  // MVCC: the recovered repositories become the next version on the same
  // chain (the crash dropped the latest snapshot, so every node is copied).
  PublishStoreSnapshot();
  // A post-recovery checkpoint bounds the next recovery's replay and
  // truncates the log the dead incarnation left behind. Failure is
  // non-fatal: the generation we just recovered from remains on disk.
  Status ckpt = durability_.WriteCheckpoint(BuildHardState());
  if (ckpt.ok()) {
    commits_since_checkpoint_ = 0;
  } else {
    SQ_LOG(kError) << "post-recovery checkpoint failed: " << ckpt.ToString();
    ++stats_.checkpoint_failures;
  }
  // Re-arm the update policy in the new incarnation. Under the immediate
  // policy the re-queued messages' triggers died with the old timers, so
  // fire one explicitly.
  if (options_.update_period > 0) {
    AfterGuarded(options_.update_period, [this]() { PeriodicTick(); });
  } else if (!queue_.Empty()) {
    ScheduleUpdateTxn();
  }
  // Re-initiate resyncs the dead incarnation left unfinished. The fresh
  // request id (next_resync_id_ is durable) guarantees a snapshot answered
  // to the old incarnation can never complete the new pull.
  for (auto& rt : sources_) {
    const std::string& name = rt->setup.db->name();
    if (!resync_.NeedsResync(name) ||
        resync_.Health(name) == SourceHealth::kHealthy) {
      continue;
    }
    if (options_.record_trace) {
      trace_->Note(scheduler_->Now(), "resync resumed " + name);
    }
    RequestSnapshot(rt.get());
  }
  // Paranoid resync: when recovery repaired storage damage (or the
  // deployment asked for it unconditionally), the log's tail may be missing
  // announcements the sources believe were acked — undetectable from the
  // log alone, since a torn tail and a quiet period look identical. A
  // snapshot pull per mirrored source restores the lost content.
  if (rec.anomalies() || options_.durability.resync_on_recovery) {
    for (auto& rt : sources_) {
      const std::string& name = rt->setup.db->name();
      if (!resync_.NeedsResync(name) ||
          resync_.Health(name) != SourceHealth::kHealthy) {
        continue;  // virtual source, or a pull is already in flight
      }
      ++stats_.resyncs_after_recovery;
      BeginResync(rt.get(), resync_.Epoch(name));
    }
  }
  return Status::OK();
}

Status Mediator::CrashAndRecover() {
  Crash();
  return Recover();
}

}  // namespace squirrel
