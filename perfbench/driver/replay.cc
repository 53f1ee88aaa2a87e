// The traced run.
//
// The replay builds the components a Mediator composes — LocalStore, Vap,
// Iup, QueryProcessor, UpdateQueue, ResyncManager and a DurabilityManager
// over its own MemLogDevice — seeds them from a started deployment's
// repositories and mirrors, and replays the op stream by calling their
// public functions in the order Mediator::RunUpdateTxn, RunQueryTxn,
// ServeSnapshotQuery and MaybeCheckpoint call them. Each call is one span
// (layer, call, start, end, parent, op); a layer's self time is its spans'
// time minus their children's. The replay must reproduce the untraced
// deployment's work counters and final export exactly, or the run fails.
//
// The replay stands in for spans inside the mediator itself; it lives only
// until the mediator records its own.

#include "driver/replay.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <set>

#include "delta/delta_algebra.h"
#include "driver/report.h"
#include "mediator/contributor.h"
#include "mediator/durability/durability.h"
#include "mediator/durability/serialize.h"
#include "mediator/iup.h"
#include "mediator/local_store.h"
#include "mediator/query_processor.h"
#include "mediator/resync.h"
#include "mediator/update_queue.h"
#include "mediator/vap.h"

namespace perfbench {

using squirrel::ContributorKind;
using squirrel::Delta;
using squirrel::HardState;
using squirrel::IupStats;
using squirrel::MultiDelta;
using squirrel::Relation;
using squirrel::SourceDb;
using squirrel::TempRequest;
using squirrel::TempStore;
using squirrel::UpdateMessage;
using squirrel::VapPlan;

namespace {

// The eight layers, each a module of src/mediator or src/source.
enum Layer { kSource, kQueue, kIup, kVap, kQp, kStore, kResync, kWal, kLayers };
const char* const kLayerNames[kLayers] = {"source", "queue", "iup", "vap",
                                          "qp",     "store", "resync", "wal"};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory span recorder. Disabled, it records nothing and costs one
// branch per call site.
class Tracer {
 public:
  struct Span {
    Layer layer;
    const char* call;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans(), -1 at top level
    uint32_t op;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  void Disable() { enabled_ = false; }
  void SetOp(uint32_t op) { op_ = op; }

  int32_t Open(Layer layer, const char* call) {
    if (!enabled_) return -1;
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({layer, call, NowNs(), 0, parent, op_});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void Close(int32_t idx) {
    if (idx < 0) return;
    spans_[idx].end_ns = NowNs();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, Layer layer, const char* call)
      : t_(t), idx_(t->Open(layer, call)) {}
  ~ScopedSpan() { t_->Close(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int32_t idx_;
};

// What one replayed op did, besides its spans.
struct OpRecord {
  OpKind kind = OpKind::kPoint;
  double wall_s = 0;
  uint64_t temp_requests = 0;  // first PrepareTempRequests of an update
  uint64_t temp_rows = 0;      // rows of the temporaries the VAP built
  uint64_t polls = 0;          // SourceDb::Query calls
  uint64_t poll_rows = 0;      // rows those calls returned
  uint64_t rows_returned = 0;  // query answer rows
  uint64_t atoms_in = 0, atoms_propagated = 0;
  uint64_t checkpoint_bytes = 0;  // 0 = no checkpoint
};

class Replay {
 public:
  Replay(const WorkloadSpec& spec, const Stream& stream, bool traced)
      : stream_(stream),
        vdp_(Figure1()),
        ann_(AnnotationFor(spec, vdp_)),
        db1_("DB1"),
        db2_("DB2"),
        store_(&vdp_, &ann_),
        vap_(&vdp_, &ann_, &store_),
        iup_(&vdp_, &ann_, &store_, &vap_),
        qp_(&vdp_, &ann_, &store_, &vap_),
        durability_(DeploymentOptions(&log_).durability),
        tracer_(traced) {
    SeedSources(stream, &db1_, &db2_);
    for (SourceDb* db : {&db1_, &db2_}) {
      Source s;
      s.db = db;
      s.kind = squirrel::ClassifyContributor(vdp_, ann_, db->name());
      sources_.push_back(s);
    }
  }
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Copies a started deployment's repositories and mirrors, then does what
  /// the rest of Mediator::Start does: first publish, first checkpoint.
  void SeedFrom(const Deployment& dep) {
    const squirrel::LocalStore& store = dep.mediator->store();
    for (const std::string& node : store.MaterializedNodes()) {
      Check(store_.SetRepo(node, **store.Repo(node)), "seed repository");
    }
    for (const Source& s : sources_) {
      const std::string& name = s.db->name();
      const auto& mirror = dep.mediator->resync().Mirror(name);
      std::map<std::string, squirrel::Schema> rels;
      for (const auto& [rel, contents] : mirror) rels.emplace(rel, contents.schema());
      resync_.Register(name, rels);
      for (const auto& [rel, contents] : mirror) {
        Check(resync_.SetMirror(name, rel, contents), "seed mirror");
      }
    }
    store_.PublishSnapshot(UpdateReflect(0));
    store_.SetApplyListener([this](const std::string& node, const Delta& d) {
      if (!capturing_) return;
      auto [it, inserted] = capture_.try_emplace(node, d);
      if (!inserted) Check(it->second.SmashInPlace(d), "capture");
    });
    Check(durability_.WriteCheckpoint(BuildHardState()), "first checkpoint");
  }

  /// Replays op \p i; returns its wall time in seconds.
  double Step(size_t i) {
    if (records_.empty()) records_.resize(stream_.ops.size());
    const Op& op = stream_.ops[i];
    tracer_.SetOp(static_cast<uint32_t>(i));
    OpRecord& rec = records_[i];
    rec.kind = op.kind;
    const double start = WallNow();
    if (IsUpdate(op.kind)) {
      RunUpdate(OpTime(i), op, &rec);
    } else {
      rec.rows_returned = Ask(QueryOf(op), &rec).DistinctSize();
    }
    rec.wall_s = WallNow() - start;
    return rec.wall_s;
  }

  /// The replay's work counters, comparable with the deployment's.
  Counts counts() const {
    Counts c;
    c.polls = polls_;
    c.polled_tuples = polled_tuples_;
    c.atoms_in = iup_stats_.atoms_in;
    c.atoms_propagated = iup_stats_.atoms_propagated;
    c.rules_fired = iup_stats_.rules_fired;
    c.temps_built = iup_stats_.temps_built;
    c.wal_records = durability_.records_logged();
    c.checkpoints = durability_.checkpoints_written();
    c.wal_bytes = durability_.bytes_logged();
    return c;
  }

  /// The full export, answered like any query (untraced, uncounted).
  std::string FinalExport() {
    tracer_.Disable();
    OpRecord scratch;
    const uint64_t polls = polls_, tuples = polled_tuples_;
    std::string rows = RowsOf(Ask(ExportQuery(), &scratch));
    polls_ = polls;
    polled_tuples_ = tuples;
    return rows;
  }

  /// One timed recovery cycle of the deployment, untraced and uncounted:
  /// a checkpoint (the one Mediator::Recover writes), the stream's recovery
  /// ops, then DurabilityManager::Recover() over the replay's log, which
  /// must replay exactly those commits and restore the live repositories.
  /// Returns the Recover() wall time in ms.
  double RecoverMs() {
    tracer_.Disable();
    Check(durability_.WriteCheckpoint(BuildHardState()), "checkpoint");
    commits_since_checkpoint_ = 0;
    OpRecord scratch;
    for (size_t j = 0; j < stream_.recovery_ops.size(); ++j) {
      RunUpdate(OpTime(stream_.ops.size() + j), stream_.recovery_ops[j], &scratch);
    }
    const double start = WallNow();
    auto rec = durability_.Recover();
    const double ms = (WallNow() - start) * 1e3;
    Check(rec.status(), "replay recover");
    if (rec->txns_replayed != stream_.recovery_ops.size()) {
      Die("replay recovery replayed " + std::to_string(rec->txns_replayed) +
          " txns, not " + std::to_string(stream_.recovery_ops.size()));
    }
    for (const std::string& node : store_.MaterializedNodes()) {
      auto it = rec->state.repos.find(node);
      if (it == rec->state.repos.end() ||
          !it->second.EqualContents(**store_.Repo(node))) {
        Die("replay recovery lost repository " + node);
      }
    }
    return ms;
  }

  double StoreMb() const { return static_cast<double>(store_.ApproxBytes()) / 1e6; }
  const std::vector<OpRecord>& records() const { return records_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  struct Source {
    SourceDb* db = nullptr;
    ContributorKind kind = ContributorKind::kMaterialized;
    uint64_t announce_seq = 0;
    uint64_t last_update_seq = 0;
    Time last_reflected_send = 0;
  };

  Source& SourceNamed(const std::string& name) {
    for (Source& s : sources_) {
      if (s.db->name() == name) return s;
    }
    Die("unknown source " + name);
  }

  squirrel::TimeVector UpdateReflect(Time now) const {
    squirrel::TimeVector out;
    for (const Source& s : sources_) {
      out.push_back(s.kind == ContributorKind::kVirtual ? now
                                                        : s.last_reflected_send);
    }
    return out;
  }

  HardState BuildHardState() const {
    HardState hs;
    for (const std::string& node : store_.MaterializedNodes()) {
      hs.repos.emplace(node, **store_.Repo(node));
    }
    hs.queue = queue_.Snapshot();
    for (const Source& s : sources_) {
      const std::string& name = s.db->name();
      HardState::SourceState ss;
      ss.last_update_seq = s.last_update_seq;
      ss.last_reflected_send = s.last_reflected_send;
      ss.epoch = resync_.Epoch(name);
      ss.health = static_cast<uint8_t>(resync_.Health(name));
      hs.sources.emplace(name, ss);
      if (resync_.NeedsResync(name)) hs.mirrors.emplace(name, resync_.Mirror(name));
    }
    hs.next_txn_id = next_txn_id_;
    hs.next_resync_id = 1;
    hs.snapshot_version = store_.SnapshotVersion();
    return hs;
  }

  // The PollFn: answers from SourceDb::Query the way PollResponder does,
  // and snapshots the source's pending queue at answer time for Eager
  // Compensation the way Mediator::OnSourceMessage does.
  squirrel::Vap::PollFn PollFn(OpRecord* rec) {
    return [this, rec](const std::string& source,
                       const squirrel::PollSpec& spec) -> Result<Relation> {
      if (pending_at_answer_.count(source) == 0) {
        ScopedSpan span(&tracer_, kQueue, "pending_from");
        auto pending = queue_.PendingFrom(source);
        if (!pending.ok()) return pending.status();
        pending_at_answer_[source] = std::move(pending).value();
      }
      ScopedSpan span(&tracer_, kSource, "poll");
      Result<Relation> answer =
          SourceNamed(source).db->Query(spec.relation, spec.attrs, spec.cond);
      ++rec->polls;
      if (answer.ok()) rec->poll_rows += static_cast<uint64_t>(answer->TotalSize());
      return answer;
    };
  }

  // Mediator::MakeCompensation with a poll wait in place.
  squirrel::Vap::CompensationFn Compensation(
      const std::map<std::string, MultiDelta>* inflight) const {
    return [this, inflight](const std::string& source,
                            const std::string& relation,
                            const squirrel::Schema& schema) -> Result<Delta> {
      Delta total(schema);
      if (inflight != nullptr) {
        auto it = inflight->find(source);
        if (it != inflight->end()) {
          if (const Delta* d = it->second.Find(relation)) {
            SQ_RETURN_IF_ERROR(total.SmashInPlace(*d));
          }
        }
      }
      auto pit = pending_at_answer_.find(source);
      if (pit != pending_at_answer_.end()) {
        if (const Delta* d = pit->second.Find(relation)) {
          SQ_RETURN_IF_ERROR(total.SmashInPlace(*d));
        }
      }
      return total;
    };
  }

  // Vap::Execute, with the rows of the temporaries it built counted.
  TempStore Execute(const VapPlan& plan,
                    const squirrel::Vap::CompensationFn& comp, OpRecord* rec) {
    TempStore temps;
    {
      ScopedSpan span(&tracer_, kVap, "execute");
      temps = Unwrap(vap_.Execute(plan, PollFn(rec), comp), "vap execute");
    }
    std::set<std::string> built;
    for (const TempRequest& req : plan.build_order) {
      if (!built.insert(req.node).second) continue;
      if (const TempStore::Entry* e = temps.Find(req.node)) {
        rec->temp_rows += static_cast<uint64_t>(e->data.TotalSize());
      }
    }
    return temps;
  }

  // One update op: the source commit, the announcement's arrival
  // (Mediator::OnSourceMessage), then Mediator::RunUpdateTxn with its
  // commit closure, RecordUpdateCommit and MaybeCheckpoint.
  void RunUpdate(Time t, const Op& op, OpRecord* rec) {
    const bool on_r = op.kind == OpKind::kInsertR || op.kind == OpKind::kDeleteR;
    Source& src = on_r ? sources_[0] : sources_[1];
    const MultiDelta committed = DeltaOf(op);
    {
      ScopedSpan span(&tracer_, kSource, "commit");
      Check(src.db->Commit(t, committed), "replay source commit");
    }
    // The announcer's message.
    UpdateMessage msg;
    msg.source = src.db->name();
    msg.send_time = t;
    msg.seq = ++src.announce_seq;
    msg.epoch = src.db->epoch();
    Check(msg.delta.SmashInPlace(committed), "announce");
    msg.checksum = squirrel::ChecksumUpdateMessage(msg);

    // Arrival: WAL enqueue record, then the queue.
    bool coalesce = false;
    {
      ScopedSpan span(&tracer_, kQueue, "would_coalesce");
      coalesce = queue_.WouldCoalesce(msg);
    }
    {
      ScopedSpan span(&tracer_, kWal, "log_enqueue");
      Check(durability_.LogEnqueue(msg, coalesce), "log enqueue");
    }
    src.last_update_seq = msg.seq;
    {
      ScopedSpan span(&tracer_, kQueue, "enqueue");
      queue_.Enqueue(std::move(msg));
    }

    // RunUpdateTxn.
    std::vector<UpdateMessage> msgs;
    {
      ScopedSpan span(&tracer_, kQueue, "flush");
      msgs = queue_.Flush();
    }
    const uint64_t txn_id = next_txn_id_++;
    {
      ScopedSpan span(&tracer_, kWal, "log_begin");
      Check(durability_.LogTxnBegin(txn_id, msgs.size()), "log begin");
    }
    std::map<std::string, Delta> leaf_deltas;
    std::map<std::string, MultiDelta> inflight;
    std::map<std::string, Time> reflect_candidates;
    for (const UpdateMessage& m : msgs) {
      reflect_candidates[m.source] = m.send_time;
      Check(inflight[m.source].SmashInPlace(m.delta), "in-flight smash");
      for (const std::string& rel : m.delta.RelationNames()) {
        const squirrel::VdpNode* leaf = vdp_.FindLeaf(m.source, rel);
        if (leaf == nullptr) continue;
        Delta narrowed = Unwrap(
            squirrel::DeltaProject(*m.delta.Find(rel), leaf->schema.AttributeNames()),
            "narrow");
        auto it = leaf_deltas.try_emplace(leaf->name, Delta(leaf->schema)).first;
        Check(it->second.SmashInPlace(narrowed), "leaf delta");
      }
    }
    pending_at_answer_.clear();
    {
      std::vector<TempRequest> requests;
      {
        ScopedSpan span(&tracer_, kIup, "prepare");
        requests = Unwrap(iup_.PrepareTempRequests(leaf_deltas), "prepare");
      }
      rec->temp_requests = requests.size();
      if (!requests.empty()) {
        ScopedSpan span(&tracer_, kVap, "plan");
        Unwrap(vap_.Plan(requests), "vap plan");
      }
    }

    // The commit closure.
    capture_.clear();
    capturing_ = true;
    std::vector<TempRequest> requests;
    {
      ScopedSpan span(&tracer_, kIup, "prepare");
      requests = Unwrap(iup_.PrepareTempRequests(leaf_deltas), "prepare");
    }
    TempStore temps;
    if (!requests.empty()) {  // Vap::Materialize, as Plan + Execute
      VapPlan plan;
      {
        ScopedSpan span(&tracer_, kVap, "plan");
        plan = Unwrap(vap_.Plan(requests), "vap plan");
      }
      temps = Execute(plan, Compensation(&inflight), rec);
    }
    IupStats stats;
    {
      ScopedSpan span(&tracer_, kIup, "kernel");
      stats = Unwrap(iup_.RunKernel(leaf_deltas, &temps), "kernel");
    }
    stats.polls = temps.polls;
    stats.polled_tuples = temps.polled_tuples;
    stats.temps_built = temps.Count();
    capturing_ = false;
    for (const auto& [source, send_time] : reflect_candidates) {
      Source& s = SourceNamed(source);
      s.last_reflected_send = std::max(s.last_reflected_send, send_time);
    }
    for (const auto& [source, md] : inflight) {
      ScopedSpan span(&tracer_, kResync, "advance");
      Check(resync_.Advance(source, md), "mirror advance");
    }
    {
      ScopedSpan span(&tracer_, kStore, "publish");
      store_.PublishSnapshot(UpdateReflect(t));
    }
    squirrel::CommitPayload payload;
    payload.txn_id = txn_id;
    payload.consumed = msgs.size();
    payload.node_deltas = std::move(capture_);
    payload.reflect = reflect_candidates;
    payload.source_deltas = inflight;
    {
      ScopedSpan span(&tracer_, kWal, "log_commit");
      Check(durability_.LogTxnCommit(payload), "log commit");
    }
    capture_.clear();
    polled_tuples_ += stats.polled_tuples;
    polls_ += stats.polls;
    iup_stats_.Merge(stats);
    rec->atoms_in = stats.atoms_in;
    rec->atoms_propagated = stats.atoms_propagated;

    // MaybeCheckpoint.
    if (durability_.CheckpointDue(++commits_since_checkpoint_)) {
      const uint64_t before = durability_.bytes_logged();
      {
        ScopedSpan span(&tracer_, kWal, "checkpoint");
        Check(durability_.WriteCheckpoint(BuildHardState()), "checkpoint");
      }
      rec->checkpoint_bytes = durability_.bytes_logged() - before;
      commits_since_checkpoint_ = 0;
    }
  }

  // One query: Mediator::SubmitQuery's MVCC fast path when the plan needs
  // no polls (ServeSnapshotQuery), else RunQueryTxn.
  Relation Ask(const squirrel::ViewQuery& q, OpRecord* rec) {
    auto prepare = [&]() {
      ScopedSpan span(&tracer_, kQp, "prepare");
      return Unwrap(qp_.Prepare(q), "prepare query");
    };
    auto plan_for = [&](const squirrel::PreparedQuery& pq) {
      ScopedSpan span(&tracer_, kQp, "plan_for");
      return Unwrap(qp_.PlanFor(pq), "plan query");
    };
    squirrel::PreparedQuery pq = prepare();
    std::optional<VapPlan> plan = plan_for(pq);
    if (!plan.has_value() || plan->polls.empty()) {
      squirrel::StoreSnapshotPtr snap;
      {
        ScopedSpan span(&tracer_, kStore, "snapshot");
        snap = store_.Snapshot();
      }
      ScopedSpan span(&tracer_, kQp, "answer");
      return Unwrap(qp_.Answer(pq, nullptr, nullptr, snap.get()), "answer").data;
    }
    // RunQueryTxn re-prepares and re-plans inside the transaction.
    pq = prepare();
    plan = plan_for(pq);
    pending_at_answer_.clear();
    TempStore temps = Execute(*plan, Compensation(nullptr), rec);
    squirrel::QueryProcessor::LocalAnswer local;
    {
      ScopedSpan span(&tracer_, kQp, "answer_with_temps");
      local = Unwrap(qp_.AnswerWithTemps(pq, temps), "answer with temps");
    }
    polls_ += temps.polls;
    polled_tuples_ += temps.polled_tuples;
    return std::move(local.data);
  }

  const Stream& stream_;
  squirrel::Vdp vdp_;
  squirrel::Annotation ann_;
  SourceDb db1_, db2_;
  squirrel::LocalStore store_;
  squirrel::Vap vap_;
  squirrel::Iup iup_;
  squirrel::QueryProcessor qp_;
  squirrel::UpdateQueue queue_;
  squirrel::ResyncManager resync_;
  squirrel::MemLogDevice log_;
  squirrel::DurabilityManager durability_;
  Tracer tracer_;
  std::vector<Source> sources_;
  std::map<std::string, MultiDelta> pending_at_answer_;
  std::map<std::string, Delta> capture_;
  bool capturing_ = false;
  uint64_t next_txn_id_ = 1;
  uint64_t commits_since_checkpoint_ = 0;
  uint64_t polls_ = 0, polled_tuples_ = 0;
  IupStats iup_stats_;
  std::vector<OpRecord> records_;
};

// Per-op self time (ns) of every layer and of every (layer, call).
struct OpTimes {
  int64_t layer[kLayers] = {};
  std::map<std::string, int64_t> call;  // "layer.call"
};

std::vector<OpTimes> SelfTimes(const Tracer& tracer, size_t ops) {
  const auto& spans = tracer.spans();
  std::vector<int64_t> child(spans.size(), 0);
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<OpTimes> out(ops);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const int64_t self = s.end_ns - s.start_ns - child[i];
    out[s.op].layer[s.layer] += self;
    out[s.op].call[std::string(kLayerNames[s.layer]) + "." + s.call] += self;
  }
  return out;
}

void WriteSpans(const std::string& path, const Tracer& tracer, int round) {
  std::ofstream f(path, round == 0 ? std::ios::trunc : std::ios::app);
  if (!f) Die("cannot write spans to " + path);
  if (round == 0) f << "round\tspan\tparent\top\tlayer\tcall\tstart_ns\tend_ns\n";
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    f << round << '\t' << i << '\t' << s.parent << '\t' << s.op << '\t'
      << kLayerNames[s.layer] << '\t' << s.call << '\t' << s.start_ns << '\t'
      << s.end_ns << '\n';
  }
}

// Pooled per-layer samples over the traced rounds.
struct LayerSamples {
  std::map<std::string, std::vector<double>> ms;  // per-op or per-call
  double layer_ns[kLayers] = {};
  double traced_wall_s = 0, untraced_replay_wall_s = 0, deployment_wall_s = 0;
  double spans_ns = 0;
  uint64_t ops = 0, updates = 0, queries = 0;
  uint64_t polls = 0, poll_rows = 0, temp_requests = 0, temp_rows = 0;
  uint64_t rows_returned = 0, atoms_in = 0, atoms_propagated = 0;
  int64_t queue_ns_in_updates = 0;
  std::vector<double> checkpoint_mb, recover_ms, store_mb;
};

double TimedWall(const Replay& r, size_t warmup) {
  double s = 0;
  for (size_t i = warmup; i < r.records().size(); ++i) s += r.records()[i].wall_s;
  return s;
}

void Collect(const Replay& traced, size_t warmup, LayerSamples* out) {
  const auto& recs = traced.records();
  std::vector<OpTimes> times = SelfTimes(traced.tracer(), recs.size());
  auto call = [](const OpTimes& t, const char* name) {
    auto it = t.call.find(name);
    return it == t.call.end() ? int64_t{0} : it->second;
  };
  auto push = [out](const char* name, int64_t ns) {
    out->ms[name].push_back(static_cast<double>(ns) / 1e6);
  };
  for (size_t i = warmup; i < recs.size(); ++i) {
    const OpRecord& rec = recs[i];
    const OpTimes& t = times[i];
    ++out->ops;
    for (int l = 0; l < kLayers; ++l) {
      out->layer_ns[l] += static_cast<double>(t.layer[l]);
      out->spans_ns += static_cast<double>(t.layer[l]);
    }
    out->polls += rec.polls;
    out->poll_rows += rec.poll_rows;
    out->temp_rows += rec.temp_rows;
    if (IsUpdate(rec.kind)) {
      ++out->updates;
      out->temp_requests += rec.temp_requests;
      out->atoms_in += rec.atoms_in;
      out->atoms_propagated += rec.atoms_propagated;
      out->queue_ns_in_updates += t.layer[kQueue];
      push("source.commit", call(t, "source.commit"));
      push("iup.prepare", call(t, "iup.prepare"));
      push("iup.kernel", call(t, "iup.kernel"));
      push("store.publish", call(t, "store.publish"));
      push("resync.advance", call(t, "resync.advance"));
      push("wal.log", call(t, "wal.log_enqueue") + call(t, "wal.log_begin") +
                          call(t, "wal.log_commit"));
      if (rec.checkpoint_bytes > 0) {
        out->checkpoint_mb.push_back(static_cast<double>(rec.checkpoint_bytes) / 1e6);
      }
    } else {
      ++out->queries;
      out->rows_returned += rec.rows_returned;
      push("qp.answer", t.layer[kQp]);
    }
    if (t.call.count("vap.plan")) push("vap.plan", call(t, "vap.plan"));
    if (t.call.count("vap.execute")) push("vap.execute", call(t, "vap.execute"));
  }
  // Per-call samples: every SourceDb::Query and every checkpoint.
  for (const Tracer::Span& s : traced.tracer().spans()) {
    if (s.op < warmup) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    const std::string name = std::string(kLayerNames[s.layer]) + "." + s.call;
    if (name == "source.poll") out->ms["source.poll"].push_back(ms);
    if (name == "wal.checkpoint") out->ms["wal.checkpoint"].push_back(ms);
  }
  out->traced_wall_s += TimedWall(traced, warmup);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double P50(const LayerSamples& s, const char* name) {
  auto it = s.ms.find(name);
  return it == s.ms.end() ? 0 : Median(it->second);
}

}  // namespace

int RunLayers(const WorkloadSpec& spec, const Stream& stream, double seconds,
              uint64_t seed, const std::string& spans_path) {
  LayerSamples s;
  std::vector<std::string> failures;
  int rounds = 0;
  uint64_t attempted = 0, ops_ok = 0;  // the deployment's timed ops
  const double start = WallNow();
  do {
    // Both replays are seeded from one freshly started deployment.
    auto traced = std::make_unique<Replay>(spec, stream, /*traced=*/true);
    auto plain = std::make_unique<Replay>(spec, stream, /*traced=*/false);
    {
      std::unique_ptr<Deployment> seed_dep = Deploy(spec, stream);
      traced->SeedFrom(*seed_dep);
      plain->SeedFrom(*seed_dep);
    }
    // Lockstep: each op runs on the deployment, then on both replays (in
    // alternating order), so drift and cache state hit all three alike.
    DeployedRun deployed(spec, stream, /*host=*/nullptr);  // raw wall times
    for (size_t i = 0; i < stream.ops.size(); ++i) {
      deployed.Step(i);
      if (i % 2 == 0) {
        traced->Step(i);
        plain->Step(i);
      } else {
        plain->Step(i);
        traced->Step(i);
      }
    }
    RoundResult dep = deployed.Finish();
    for (const std::string& f : dep.gate_failures) failures.push_back(f);
    for (uint64_t n : dep.timed_ops) attempted += n;
    ops_ok += dep.ops_ok;
    for (double ms : dep.op_ms) s.deployment_wall_s += ms / 1e3;
    for (const Replay* r : {traced.get(), plain.get()}) {
      const char* which = r == traced.get() ? "traced" : "untraced";
      if (!(r->counts() == dep.counts)) {
        failures.push_back(std::string(which) + " replay counts " +
                           r->counts().ToString() + " differ from the deployment's " +
                           dep.counts.ToString());
      }
    }
    if (traced->FinalExport() != dep.final_export) {
      failures.push_back("replay final export differs from the deployment's");
    }
    Collect(*traced, stream.warmup, &s);
    s.untraced_replay_wall_s += TimedWall(*plain, stream.warmup);
    s.store_mb.push_back(traced->StoreMb());
    s.recover_ms.push_back(traced->RecoverMs());
    if (!spans_path.empty()) WriteSpans(spans_path, traced->tracer(), rounds);
    ++rounds;
  } while (WallNow() - start < seconds);

  Report rep;
  const double ops = static_cast<double>(s.ops);
  const double updates = static_cast<double>(s.updates);
  rep.Add("source.commit_ms_p50", P50(s, "source.commit"), "ms");
  rep.Add("source.poll_ms_p50", P50(s, "source.poll"), "ms");
  rep.Add("source.polls_per_op", Ratio(s.polls, ops), "polls/op");
  rep.Add("source.rows_per_poll", Ratio(s.poll_rows, s.polls), "rows/poll");
  rep.Add("queue.us_per_update", Ratio(s.queue_ns_in_updates / 1e3, updates),
          "us/update");
  rep.Add("iup.prepare_ms_p50", P50(s, "iup.prepare"), "ms");
  rep.Add("iup.temp_requests_per_update", Ratio(s.temp_requests, updates),
          "requests/update");
  rep.Add("iup.kernel_ms_p50", P50(s, "iup.kernel"), "ms");
  rep.Add("iup.atoms_propagated_per_atom", Ratio(s.atoms_propagated, s.atoms_in),
          "atoms/atom");
  rep.Add("vap.plan_ms_p50", P50(s, "vap.plan"), "ms");
  rep.Add("vap.execute_self_ms_p50", P50(s, "vap.execute"), "ms");
  rep.Add("vap.temp_rows_per_op", Ratio(s.temp_rows, ops), "rows/op");
  rep.Add("qp.answer_ms_p50", P50(s, "qp.answer"), "ms");
  rep.Add("qp.rows_returned_per_query", Ratio(s.rows_returned, s.queries),
          "rows/query");
  rep.Add("store.publish_ms_p50", P50(s, "store.publish"), "ms");
  rep.Add("store.mb", Median(s.store_mb), "MB");
  rep.Add("resync.advance_ms_p50", P50(s, "resync.advance"), "ms");
  rep.Add("wal.log_ms_p50", P50(s, "wal.log"), "ms");
  rep.Add("wal.checkpoint_ms_p50", P50(s, "wal.checkpoint"), "ms");
  rep.Add("wal.checkpoint_mb", Median(s.checkpoint_mb), "MB");
  rep.Add("wal.recover_ms", Median(s.recover_ms), "ms");
  for (int l = 0; l < kLayers; ++l) {
    rep.Add(std::string(kLayerNames[l]) + ".share",
            Ratio(s.layer_ns[l] / 1e9, s.traced_wall_s), "ratio");
  }
  rep.Add("glue.share",
          Ratio(s.deployment_wall_s - s.spans_ns / 1e9, s.deployment_wall_s),
          "ratio");
  rep.Add("trace.overhead_pct",
          100.0 * Ratio(s.traced_wall_s - s.untraced_replay_wall_s,
                        s.untraced_replay_wall_s),
          "%");

  rep.Note("workload " + spec.name + " seed " + std::to_string(seed) +
           " traced rounds " + std::to_string(rounds) + " ops/round " +
           std::to_string(stream.ops.size()) + " (untimed warm-up " +
           std::to_string(stream.warmup) + ")");
  rep.Note("timed wall deployment " + JsonNumber(s.deployment_wall_s) +
           " s, replay traced " + JsonNumber(s.traced_wall_s) +
           " s, replay untraced " + JsonNumber(s.untraced_replay_wall_s) + " s");
  rep.Extra("workload", "\"" + spec.name + "\"");
  rep.Extra("seed", std::to_string(seed));
  rep.Extra("rounds", std::to_string(rounds));
  for (const std::string& f : failures) rep.Note("GATE FAILED " + f);
  rep.Print(failures.empty(), attempted, attempted - ops_ok);
  return failures.empty() ? 0 : 1;
}

}  // namespace perfbench
