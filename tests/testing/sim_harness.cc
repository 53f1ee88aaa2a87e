#include "testing/sim_harness.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "common/rng.h"
#include "common/strings.h"
#include "mediator/consistency.h"
#include "mediator/durability/faulty_log_device.h"
#include "mediator/durability/log_device.h"
#include "mediator/export_announcer.h"
#include "mediator/shard_plan.h"
#include "relational/parser.h"
#include "sim/fault.h"
#include "sim/scheduler.h"
#include "source/source_db.h"
#include "vdp/builder.h"

namespace squirrel {
namespace testing {
namespace {

std::string SeedTag(uint64_t seed) {
  return "[seed " + std::to_string(seed) + "] ";
}

std::string RowsString(const Relation& rel) {
  std::string out;
  for (const auto& [tuple, count] : rel.SortedRows()) {
    out += tuple.ToString();
    if (count != 1) out += "x" + std::to_string(count);
    out += " ";
  }
  return out;
}

Status AddParsedRelation(SourceDb* db, const std::string& name,
                         const std::string& decl) {
  SQ_ASSIGN_OR_RETURN(auto parsed, ParseSchemaDecl(decl));
  return db->AddRelation(name, parsed.schema);
}

/// Per-source->mediator link delays, drawn once per real source so every
/// topology wires the same link characteristics for the same seed.
struct SimLink {
  Time comm_delay = 0;
  Time q_proc_delay = 0;
  Time announce_period = 0;
};

/// One pre-drawn workload event. All randomness is consumed at scenario
/// build time; deploying the scenario only schedules these.
struct SimOp {
  enum Kind { kInsert, kDelete, kQuery } kind = kInsert;
  Time when = 0;
  size_t db = 0;          ///< commits: index into Scenario::dbs
  std::string relation;   ///< commits: target relation
  Tuple tuple;            ///< commits: inserted / deleted row
  ViewQuery query;        ///< queries: submitted to the (root) mediator
};

/// Everything one seed determines BEFORE the deployment shape is chosen:
/// sources with initial contents, the VDP + annotation, the workload, the
/// per-source fault plans (with restart windows merged in), the shared
/// mediator crash windows, and the mediator policy options. RunFaultSim
/// deploys a Scenario as one mediator or as a shard tree; because every
/// draw happens here, the scenario is byte-identical across topologies.
struct Scenario {
  bool has_db3 = false;
  std::unique_ptr<SourceDb> db1, db2, db3;
  std::vector<SourceDb*> dbs;
  Vdp vdp;
  Annotation ann;
  Time t_end = 0;
  std::vector<CrashWindow> med_windows;
  std::vector<FaultPlan> plans;  // parallel to dbs
  std::vector<SimLink> links;    // parallel to dbs
  MediatorOptions options;       // policy only; durability wired per runner
  std::vector<SimOp> ops;
  /// Storm queries (overload injector), kept apart from the workload so the
  /// baseline ops stay byte-identical with the storm off.
  std::vector<SimOp> storm_ops;
  std::string fault_plan_dump;
};

/// Draws the whole scenario from the seed, preserving the historical rng
/// draw order exactly (the restart-pin and replay-identity sweeps depend on
/// the schedule being a pure function of the seed and the non-topology
/// options).
Result<Scenario> BuildScenario(uint64_t seed, const FaultSimOptions& opts) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 12345);
  Scenario sc;

  // ---- sources (DB3 present in half the scenarios) ----
  sc.db1 = std::make_unique<SourceDb>("DB1");
  sc.db2 = std::make_unique<SourceDb>("DB2");
  SQ_RETURN_IF_ERROR(
      AddParsedRelation(sc.db1.get(), "R", "R(r1, r2, r3, r4) key(r1)"));
  SQ_RETURN_IF_ERROR(
      AddParsedRelation(sc.db2.get(), "S", "S(s1, s2, s3) key(s1)"));
  sc.has_db3 = rng.Bernoulli(0.5);
  if (sc.has_db3) {
    sc.db3 = std::make_unique<SourceDb>("DB3");
    SQ_RETURN_IF_ERROR(
        AddParsedRelation(sc.db3.get(), "U", "U(u1, u2) key(u1)"));
  }

  // ---- random Figure-1-shaped VDP (optional filters + third branch) ----
  bool r_filter = rng.Bernoulli(0.7);
  bool s_filter = rng.Bernoulli(0.7);
  VdpBuilder b;
  b.Leaf("R", "DB1", "R", "R(r1, r2, r3, r4) key(r1)");
  b.Leaf("S", "DB2", "S", "S(s1, s2, s3) key(s1)");
  b.LeafParent("R'", "R", {"r1", "r2", "r3"}, r_filter ? "r4 = 100" : "");
  b.LeafParent("S'", "S", {"s1", "s2"}, s_filter ? "s3 < 50" : "");
  b.Spj("T", {{"R'", {"r1", "r2", "r3"}, ""}, {"S'", {"s1", "s2"}, ""}},
        {"r2 = s1"}, {"r1", "r3", "s1", "s2"}, "", /*exported=*/true);
  if (sc.has_db3) {
    b.Leaf("U", "DB3", "U", "U(u1, u2) key(u1)");
    b.LeafParent("U'", "U", {"u1", "u2"});
    b.LeafParent("S2", "S", {"s1", "s3"});
    b.Spj("W", {{"S2", {"s1", "s3"}, ""}, {"U'", {"u1", "u2"}, ""}},
          {"s1 = u1"}, {"s1", "s3", "u2"}, "", /*exported=*/true);
  }
  SQ_ASSIGN_OR_RETURN(sc.vdp, b.Build());

  // ---- random annotation, drawn from the safe patterns of §2's examples:
  // leaf-parents all-materialized or all-virtual, exports all-materialized,
  // all-virtual via their inputs, or hybrid with the join keys materialized
  // (Example 2.3) ----
  int kind = static_cast<int>(rng.Uniform(4));
  if (kind == 1) {
    SQ_RETURN_IF_ERROR(sc.ann.SetAll(sc.vdp, "R'", AttrMode::kVirtual));
  } else if (kind == 2) {
    SQ_RETURN_IF_ERROR(sc.ann.SetAll(sc.vdp, "S'", AttrMode::kVirtual));
  } else if (kind == 3) {
    SQ_RETURN_IF_ERROR(sc.ann.SetAll(sc.vdp, "R'", AttrMode::kVirtual));
    SQ_RETURN_IF_ERROR(sc.ann.SetAll(sc.vdp, "S'", AttrMode::kVirtual));
    SQ_RETURN_IF_ERROR(
        sc.ann.SetFromSpec(sc.vdp, "T", "r1 m, r3 v, s1 m, s2 v"));
  }
  if (sc.has_db3) {
    int wkind = static_cast<int>(rng.Uniform(3));
    if (wkind == 1) {
      SQ_RETURN_IF_ERROR(sc.ann.SetAll(sc.vdp, "U'", AttrMode::kVirtual));
    } else if (wkind == 2) {
      SQ_RETURN_IF_ERROR(sc.ann.SetAll(sc.vdp, "S2", AttrMode::kVirtual));
      SQ_RETURN_IF_ERROR(
          sc.ann.SetFromSpec(sc.vdp, "W", "s1 m, s3 v, u2 m"));
    }
  }

  // ---- workload horizon (drawn up front so fault plans can bound their
  // crash windows inside it) ----
  std::vector<Time> event_times;
  Time t = 1.0;
  for (int i = 0; i < opts.steps; ++i) {
    t += (3.0 + rng.UniformDouble() * 2.5) * opts.event_gap_scale;
    event_times.push_back(t);
  }
  sc.t_end = t;
  const Time t_end = sc.t_end;

  // ---- mediator crash windows, drawn once and shared across every source
  // injector (the ARQ model needs all senders to agree on the downtime).
  // Each window sits in its own slice of the horizon, so windows never
  // overlap, and all close well before t_end so the drain phase quiesces ----
  if (opts.mediator_crashes > 0) {
    Time span = (t_end - 8.0) / opts.mediator_crashes;
    for (int w = 0; w < opts.mediator_crashes && span > 1.0; ++w) {
      Time lo = 5.0 + w * span;
      Time start = lo + rng.UniformDouble() * span * 0.5;
      Time end = start + 0.5 + rng.UniformDouble() * span * 0.4;
      if (end < t_end - 2.0) sc.med_windows.push_back({start, end});
    }
  }

  // ---- per-source fault plans; every randomized fault stops at t_end and
  // all crash windows close before it, so the drain phase quiesces ----
  auto make_plan = [&rng, t_end, &sc, &opts](const std::string& name) {
    FaultPlan p;
    // Assigned, not drawn: enabling payload corruption must not perturb the
    // rng-driven schedule decisions below.
    p.snapshot_corrupt_prob = opts.snapshot_corrupt_prob;
    p.delay_jitter_max = rng.UniformDouble() * 0.4;
    p.drop_prob = rng.UniformDouble() * 0.25;
    p.dup_prob = rng.UniformDouble() * 0.15;
    p.retransmit_timeout = 0.2 + rng.UniformDouble() * 0.5;
    p.slow_poll_prob = rng.UniformDouble() * 0.3;
    p.slow_poll_delay = rng.UniformDouble() * 1.5;
    p.crash_probe_period = 0.5;
    p.active_until = t_end;
    int windows = static_cast<int>(rng.Uniform(3));
    Time cursor = 5.0;
    for (int w = 0; w < windows; ++w) {
      Time start = cursor + rng.UniformDouble() * t_end * 0.6;
      Time end = std::min(start + 2.0 + rng.UniformDouble() * 6.0,
                          t_end - 1.0);
      if (end > start) p.crashes[name].push_back({start, end});
      cursor = end + 2.0;
    }
    p.mediator_crashes = sc.med_windows;
    return p;
  };
  sc.dbs = {sc.db1.get(), sc.db2.get()};
  if (sc.has_db3) sc.dbs.push_back(sc.db3.get());
  for (size_t i = 0; i < sc.dbs.size(); ++i) {
    sc.plans.push_back(make_plan(sc.dbs[i]->name()));
  }
  // Deterministic rendering of the schedule EXCLUDING restart windows; the
  // dedicated-rng pin test asserts it is byte-identical whether or not
  // source restarts are enabled for this seed.
  sc.fault_plan_dump = "t_end=" + std::to_string(t_end) + "\n";
  for (size_t i = 0; i < sc.dbs.size(); ++i) {
    const FaultPlan& p = sc.plans[i];
    sc.fault_plan_dump +=
        sc.dbs[i]->name() + ": jitter=" + std::to_string(p.delay_jitter_max) +
        " drop=" + std::to_string(p.drop_prob) +
        " dup=" + std::to_string(p.dup_prob) +
        " arq=" + std::to_string(p.retransmit_timeout) +
        " slow=" + std::to_string(p.slow_poll_prob) + "/" +
        std::to_string(p.slow_poll_delay) + " crashes=";
    for (const auto& [name, windows] : p.crashes) {
      for (const CrashWindow& w : windows) {
        sc.fault_plan_dump += "[" + std::to_string(w.start) + "," +
                              std::to_string(w.end) + "]";
      }
    }
    sc.fault_plan_dump += "\n";
  }
  sc.fault_plan_dump += "mediator:";
  for (const CrashWindow& w : sc.med_windows) {
    sc.fault_plan_dump +=
        " [" + std::to_string(w.start) + "," + std::to_string(w.end) + "]";
  }
  sc.fault_plan_dump += "\n";
  // Source restart windows draw from a DEDICATED rng stream, after every
  // other schedule decision: the draws above are identical with restarts on
  // or off, so a restart run's baseline is simply the same seed without
  // restarts.
  if (opts.source_restarts > 0) {
    Rng restart_rng(seed * 0xA24BAED4963EE407ULL + 99991);
    for (size_t i = 0; i < sc.dbs.size(); ++i) {
      int windows =
          static_cast<int>(restart_rng.Uniform(opts.source_restarts + 1));
      Time cursor = 6.0;
      for (int w = 0; w < windows; ++w) {
        Time start = cursor + restart_rng.UniformDouble() * t_end * 0.5;
        Time end = start + 0.5 + restart_rng.UniformDouble() * 5.0;
        if (end >= t_end - 2.0) break;
        sc.plans[i].restarts[sc.dbs[i]->name()].push_back({start, end});
        cursor = end + 3.0;
      }
    }
  }

  // ---- mediator configuration; the final re-poll deadline (poll_timeout
  // doubled over the mediator's three re-poll rounds, >= 12) comfortably
  // exceeds the worst-case healthy round trip, so post-fault rounds always
  // complete ----
  sc.options.update_period =
      rng.Bernoulli(0.5) ? 0.0 : rng.UniformDouble() * 3;
  sc.options.u_proc_delay = rng.UniformDouble() * 0.2;
  sc.options.q_proc_delay = rng.UniformDouble() * 0.2;
  sc.options.poll_timeout = 1.5 + rng.UniformDouble() * 2.0;
  sc.options.txn_retry_delay = 0.5 + rng.UniformDouble();
  sc.options.coalesce_window = opts.coalesce_window;
  sc.options.degraded_reads = opts.degraded_reads;
  sc.options.max_queue_depth = opts.max_queue_depth;
  sc.options.mvcc_reads = opts.mvcc_reads;
  // Assigned, not drawn: the overload-protection knobs must not perturb the
  // rng-driven schedule above, so an overload run's baseline is the same
  // seed with the knobs off. The jitter seed is the run seed, keeping the
  // backoff schedule a pure function of (seed, options).
  sc.options.poll_backoff_cap = opts.poll_backoff_cap;
  sc.options.poll_jitter = opts.poll_jitter;
  sc.options.poll_jitter_seed = seed;
  if (opts.admit_max_active > 0) {
    // Cap the externally driven classes only; kInternal stays unlimited so
    // the harness's own final correctness queries are never refused.
    for (QueryClass cls : {QueryClass::kInteractive, QueryClass::kBatch}) {
      sc.options.admission.max_active[static_cast<size_t>(cls)] =
          opts.admit_max_active;
      sc.options.admission.max_queued[static_cast<size_t>(cls)] =
          opts.admit_max_queued;
    }
  }
  for (size_t i = 0; i < sc.dbs.size(); ++i) {
    SimLink l;
    l.comm_delay = 0.2 + rng.UniformDouble() * 0.5;
    l.q_proc_delay = 0.1 + rng.UniformDouble() * 0.3;
    l.announce_period = rng.Bernoulli(0.5) ? 0.0 : rng.UniformDouble() * 2;
    sc.links.push_back(l);
  }

  // ---- initial contents (joinable value schemes: r2/s1/u1 in 100*[0,3]) ----
  std::map<int64_t, Tuple> r_rows = {{1, Tuple({1, 100, 11, 100})}};
  std::map<int64_t, Tuple> s_rows = {{100, Tuple({100, 5, 10})}};
  std::map<int64_t, Tuple> u_rows;
  SQ_RETURN_IF_ERROR(sc.db1->InsertTuple(0, "R", r_rows[1]));
  SQ_RETURN_IF_ERROR(sc.db2->InsertTuple(0, "S", s_rows[100]));
  if (sc.has_db3) {
    u_rows[100] = Tuple({100, 7});
    SQ_RETURN_IF_ERROR(sc.db3->InsertTuple(0, "U", u_rows[100]));
  }

  // ---- the workload (all randomness drawn now, none at deploy time, so
  // the whole event sequence is a function of the seed) ----
  auto commit = [&sc](SimOp::Kind kind, Time when, size_t db,
                      const std::string& rel, const Tuple& tup) {
    SimOp op;
    op.kind = kind;
    op.when = when;
    op.db = db;
    op.relation = rel;
    op.tuple = tup;
    sc.ops.push_back(std::move(op));
  };
  // T queries select by r1 on a DEDICATED rng stream: every draw of the
  // schedule stream stays where it was, so each seed's updates are
  // byte-identical with or without these shapes. A selection on T's
  // materialized key is what binds key sets into the polls of a hybrid T.
  Rng shape_rng(seed * 0x9E3779B97F4A7C15ULL + 31337);
  auto key_shape = [&shape_rng]() -> Expr::Ptr {
    auto r1 = Expr::Attr("r1");
    switch (shape_rng.Uniform(3)) {
      case 1:  // point: r1 = k
        return Expr::Eq(r1, Expr::Const(Value(shape_rng.UniformInt(0, 40))));
      case 2: {  // range: lo <= r1 < hi
        int64_t lo = shape_rng.UniformInt(0, 40);
        int64_t hi = lo + shape_rng.UniformInt(1, 10);
        return Expr::And(Expr::Ge(r1, Expr::Const(Value(lo))),
                         Expr::Lt(r1, Expr::Const(Value(hi))));
      }
      default:
        return nullptr;
    }
  };
  for (Time when : event_times) {
    double dice = rng.UniformDouble();
    if (dice < 0.30) {
      // Commit on R.
      if (!r_rows.empty() && rng.Bernoulli(0.4)) {
        auto it = r_rows.begin();
        std::advance(it, rng.Uniform(r_rows.size()));
        Tuple victim = it->second;
        r_rows.erase(it);
        commit(SimOp::kDelete, when, 0, "R", victim);
      } else {
        int64_t key = rng.UniformInt(0, 40);
        if (r_rows.count(key)) continue;
        Tuple tup({key, rng.UniformInt(0, 4) * 100, rng.UniformInt(0, 99),
                   rng.Bernoulli(0.7) ? int64_t{100} : int64_t{7}});
        r_rows[key] = tup;
        commit(SimOp::kInsert, when, 0, "R", tup);
      }
    } else if (dice < 0.55) {
      // Commit on S.
      if (!s_rows.empty() && rng.Bernoulli(0.4)) {
        auto it = s_rows.begin();
        std::advance(it, rng.Uniform(s_rows.size()));
        Tuple victim = it->second;
        s_rows.erase(it);
        commit(SimOp::kDelete, when, 1, "S", victim);
      } else {
        int64_t key = rng.UniformInt(0, 4) * 100;
        if (s_rows.count(key)) continue;
        Tuple tup({key, rng.UniformInt(0, 9), rng.UniformInt(0, 99)});
        s_rows[key] = tup;
        commit(SimOp::kInsert, when, 1, "S", tup);
      }
    } else if (sc.has_db3 && dice < 0.70) {
      // Commit on U.
      if (!u_rows.empty() && rng.Bernoulli(0.4)) {
        auto it = u_rows.begin();
        std::advance(it, rng.Uniform(u_rows.size()));
        Tuple victim = it->second;
        u_rows.erase(it);
        commit(SimOp::kDelete, when, 2, "U", victim);
      } else {
        int64_t key = rng.UniformInt(0, 4) * 100;
        if (u_rows.count(key)) continue;
        Tuple tup({key, rng.UniformInt(0, 99)});
        u_rows[key] = tup;
        commit(SimOp::kInsert, when, 2, "U", tup);
      }
    } else {
      SimOp op;
      op.kind = SimOp::kQuery;
      op.when = when;
      if (sc.has_db3 && rng.Bernoulli(0.4)) {
        op.query.relation = "W";
        if (rng.Bernoulli(0.5)) op.query.attrs = {"s1", "u2"};
      } else {
        op.query.relation = "T";
        if (rng.Bernoulli(0.5)) {
          op.query.attrs = {"r1", "s1"};
        } else {
          op.query.attrs = {"r1", "r3", "s2"};
          if (rng.Bernoulli(0.5)) {
            SQ_ASSIGN_OR_RETURN(op.query.cond, ParsePredicate("r3 < 50"));
          }
        }
        if (Expr::Ptr shape = key_shape()) {
          op.query.cond = Expr::And(op.query.cond, shape);
        }
      }
      sc.ops.push_back(std::move(op));
    }
  }

  // ---- storm queries (overload injector) draw from a DEDICATED rng
  // stream, after every other schedule decision: the workload above is
  // byte-identical with the storm on or off, so a storm run's export oracle
  // is simply the same seed without the storm ----
  if (opts.query_storm > 0) {
    Rng storm_rng(seed * 0xD6E8FEB86659FD93ULL + 77777);
    for (int i = 0; i < opts.query_storm; ++i) {
      SimOp op;
      op.kind = SimOp::kQuery;
      op.when = 2.0 + storm_rng.UniformDouble() * (sc.t_end - 2.0);
      if (sc.has_db3 && storm_rng.Bernoulli(0.4)) {
        op.query.relation = "W";
        if (storm_rng.Bernoulli(0.5)) op.query.attrs = {"s1", "u2"};
      } else {
        op.query.relation = "T";
        if (storm_rng.Bernoulli(0.5)) op.query.attrs = {"r1", "s1"};
      }
      op.query.qclass = storm_rng.Bernoulli(0.5) ? QueryClass::kInteractive
                                                 : QueryClass::kBatch;
      if (opts.query_deadline > 0) {
        op.query.deadline = op.when + opts.query_deadline;
      }
      sc.storm_ops.push_back(std::move(op));
    }
  }
  return sc;
}

/// The lying-disk plan shared by every deployment shape.
StorageFaultPlan MakeStoragePlan(const FaultSimOptions& opts) {
  using SF = FaultSimOptions::StorageFault;
  StorageFaultPlan sp;
  sp.max_faults = opts.storage_max_faults;
  switch (opts.storage_fault) {
    case SF::kTornAppend:
      sp.torn_append_prob = 0.05;
      break;
    case SF::kBitFlip:
      sp.bitflip_prob = 0.05;
      break;
    case SF::kFsyncDrop:
      sp.fsync_drop_prob = 0.05;
      break;
    case SF::kEnospc:
      sp.enospc_prob = 0.05;
      sp.enospc_len = 3;
      break;
    case SF::kCheckpointCorrupt:
      // Checkpoint frames are rare; a higher rate keeps the sweep from
      // injecting nothing on most seeds.
      sp.bitflip_prob = 0.35;
      sp.target_checkpoints = true;
      break;
    case SF::kNone:
      break;
  }
  return sp;
}

/// Schedules every pre-drawn workload op: commits against the autonomous
/// sources, queries against \p query_target (the root mediator). A query
/// that fails with anything but a typed fault or overload status lands in
/// \p bad_status.
void ScheduleOps(Scenario& sc, Scheduler& scheduler, Mediator* query_target,
                 std::string* bad_status) {
  for (const SimOp& op : sc.ops) {
    if (op.kind == SimOp::kQuery) {
      Mediator* mediator = query_target;
      ViewQuery q = op.query;
      scheduler.At(op.when, [mediator, q, bad_status]() {
        mediator->SubmitQuery(q, [bad_status](Result<ViewAnswer> ans) {
          if (ans.ok()) return;
          const StatusCode code = ans.status().code();
          // Legal fail-over under faults, or a typed overload outcome when
          // the run configures deadlines / admission limits.
          if (code == StatusCode::kUnavailable ||
              code == StatusCode::kDeadlineExceeded ||
              code == StatusCode::kOverloaded) {
            return;
          }
          if (bad_status->empty()) *bad_status = ans.status().ToString();
        });
      });
      continue;
    }
    SourceDb* db = sc.dbs[op.db];
    std::string rel = op.relation;
    Tuple tup = op.tuple;
    if (op.kind == SimOp::kInsert) {
      scheduler.At(op.when, [db, rel, tup, &scheduler]() {
        (void)db->InsertTuple(scheduler.Now(), rel, tup);
      });
    } else {
      scheduler.At(op.when, [db, rel, tup, &scheduler]() {
        (void)db->DeleteTuple(scheduler.Now(), rel, tup);
      });
    }
  }
}

/// Schedules the overload-injector storm against \p target and tallies every
/// outcome. Unlike workload queries, a storm query's deadline or admission
/// rejection is an EXPECTED result; the sweep asserts the dichotomy (every
/// storm query resolves by its deadline or with a typed error) via
/// storm_late / storm_untyped, and an untyped failure surfaces through
/// \p bad_status like any workload bug.
void ScheduleStormOps(Scenario& sc, Scheduler& scheduler, Mediator* target,
                      FaultSimResult* result, std::string* bad_status) {
  result->storm_queries = sc.storm_ops.size();
  for (const SimOp& op : sc.storm_ops) {
    ViewQuery q = op.query;
    const Time when = op.when;
    scheduler.At(when, [target, q, when, result, bad_status, &scheduler]() {
      const Time deadline = q.deadline;
      target->SubmitQuery(q, [when, deadline, result, bad_status,
                              &scheduler](Result<ViewAnswer> ans) {
        const Time now = scheduler.Now();
        result->storm_latencies.push_back(now - when);
        if (deadline > 0 && now > deadline + 1e-9) ++result->storm_late;
        if (ans.ok()) {
          if (ans.value().degraded) {
            ++result->storm_degraded;
          } else {
            ++result->storm_ok;
          }
          return;
        }
        switch (ans.status().code()) {
          case StatusCode::kDeadlineExceeded:
            ++result->storm_deadline_exceeded;
            break;
          case StatusCode::kOverloaded:
            ++result->storm_rejected_overload;
            break;
          case StatusCode::kUnavailable:
            ++result->storm_unavailable;
            break;
          default:
            ++result->storm_untyped;
            if (bad_status->empty()) {
              *bad_status = "storm: " + ans.status().ToString();
            }
            break;
        }
      });
    });
  }
}

// ---------------------------------------------------------------------------
// Deployment: the scenario on a tree of mediator tiers, children before
// parents, each child exposed to its parent as one more SourceDb through an
// ExportAnnouncer. kSingle is a tree of one tier.
// ---------------------------------------------------------------------------

/// Quiescence horizon after the last workload event.
constexpr Time kDrain = 300.0;
/// Update commits between periodic checkpoints of every tier's log.
constexpr uint64_t kCheckpointEvery = 4;

/// The VDP partition for a sharded topology. The child tiers own as much of
/// the dag as can announce deltas (their exports are forced fully
/// materialized); the root keeps the scenario's annotation on whatever it
/// owns, so query-time behavior matches the unsharded deployment.
std::vector<ShardSpec> SpecsFor(FaultSimOptions::Topology topo, bool has_db3) {
  using T = FaultSimOptions::Topology;
  if (topo == T::kTwoShard) {
    if (has_db3) {
      return {{"top", "", {"R'", "S'", "T"}}, {"shardA", "top", {"S2", "U'", "W"}}};
    }
    return {{"top", "", {"R'", "T"}}, {"shardA", "top", {"S'"}}};
  }
  // Three tiers: the top owns nothing and serves the exports it imports
  // through the middle tier (which passes the bottom shard's export up).
  if (has_db3) {
    return {{"top", "", {}},
            {"mid", "top", {"R'", "S'", "T"}},
            {"shardA", "mid", {"S2", "U'", "W"}}};
  }
  return {{"top", "", {}}, {"mid", "top", {"R'", "T"}}, {"shardA", "mid", {"S'"}}};
}

/// One mediator of the deployment and everything wired to it.
struct Tier {
  Shard shard;     ///< name, parent and exports (a lone tier: name only)
  Vdp vdp;         ///< the tier's own VDP and annotation
  Annotation ann;
  std::vector<CrashWindow> windows;
  std::unique_ptr<MemLogDevice> dev;
  std::unique_ptr<FaultyLogDevice> faulty;
  std::vector<SourceDb*> sources;  // wired setup order (real + mirrors)
  std::unique_ptr<Mediator> med;
  std::unique_ptr<ExportAnnouncer> exporter;  // non-root only
  std::vector<Time> recovery_times;
};

/// The tiers of \p topo, children before parents (the root last). kSingle is
/// one root tier over the scenario's own VDP and annotation. A one-shard
/// ShardPlan cannot stand in for it: the plan rejects a shard whose nodes
/// form disconnected regions (T and W share only the leaf S), and the VDP it
/// rebuilds has another topological order, which would rewire the sources
/// in another order and redraw every injector seed.
Result<std::vector<Tier>> PlanTiers(FaultSimOptions::Topology topo,
                                    const Scenario& sc) {
  std::vector<Tier> tiers;
  if (topo == FaultSimOptions::Topology::kSingle) {
    Tier& tier = tiers.emplace_back();
    tier.shard.name = "top";
    tier.vdp = sc.vdp;
    tier.ann = sc.ann;
    return tiers;
  }
  SQ_ASSIGN_OR_RETURN(ShardPlan plan,
                      ShardPlan::Build(sc.vdp, SpecsFor(topo, sc.has_db3)));
  for (const Shard& shard : plan.shards()) {
    SQ_ASSIGN_OR_RETURN(auto built, plan.BuildVdp(shard, sc.ann));
    Tier& tier = tiers.emplace_back();
    tier.shard = shard;
    tier.vdp = std::move(built.first);
    tier.ann = std::move(built.second);
  }
  return tiers;
}

/// Sums the deployment's counters into \p result: channel faults over every
/// link, durability, resync and storage counters over every tier, mirror
/// traffic over every child, and restarts over every source.
void TallyDeployment(
    const std::vector<Tier>& tiers,
    const std::vector<std::unique_ptr<FaultInjector>>& injectors,
    FaultSimResult* result) {
  result->shards = tiers.size();
  for (const auto& inj : injectors) {
    result->transmissions_lost += inj->counters().transmissions_lost;
    result->duplicates += inj->counters().duplicates;
    result->blackholed += inj->counters().blackholed;
    result->slow_polls += inj->counters().slow_polls;
    result->mediator_retransmits += inj->counters().mediator_retransmits;
    result->payloads_corrupted += inj->counters().payloads_corrupted;
  }
  std::set<SourceDb*> all_sources;
  for (const Tier& tier : tiers) {
    const MediatorStats& s = tier.med->stats();
    if (tier.faulty != nullptr) {
      result->storage_faults_injected +=
          static_cast<uint64_t>(tier.faulty->faults_injected());
    }
    result->mediator_crashes += s.mediator_crashes;
    result->recoveries += s.recoveries;
    result->recovery_txns_replayed += s.recovery_txns_replayed;
    result->recovery_txns_rolled_back += s.recovery_txns_rolled_back;
    result->recovery_msgs_requeued += s.recovery_msgs_requeued;
    result->wal_records += tier.med->durability().records_logged();
    result->checkpoints += tier.med->durability().checkpoints_written();
    result->coalesced_msgs += tier.med->CoalescedMessages();
    result->epoch_bumps += s.epoch_bumps;
    result->resyncs_started += s.resyncs_started;
    result->resyncs_completed += s.resyncs_completed;
    result->snapshots_requested += s.snapshots_requested;
    result->requarantines += s.requarantines;
    result->wal_append_failures += s.wal_append_failures;
    result->recovery_tail_repairs += s.recovery_tail_repairs;
    result->recovery_checkpoint_fallbacks += s.recovery_checkpoint_fallbacks;
    result->snapshot_checksum_failures += s.snapshot_checksum_failures;
    if (tier.exporter != nullptr) {
      result->commits_mirrored += tier.exporter->commits_mirrored();
      result->corrective_commits += tier.exporter->corrective_commits();
    }
    all_sources.insert(tier.sources.begin(), tier.sources.end());
  }
  for (SourceDb* db : all_sources) result->source_restarts += db->epoch() - 1;
  result->stats = tiers.back().med->stats();
}

/// The deterministic rendering the replay-identity checks compare: per tier,
/// the full trace and every MediatorStats counter, then the deployment
/// counters that no mediator keeps (channel faults, mirrors, logs, sources).
void RenderDumps(const std::vector<Tier>& tiers, FaultSimResult* result) {
  for (const Tier& tier : tiers) {
    const std::string section = "== shard " + tier.shard.name + " ==\n";
    const std::string stats = tier.med->stats().ToString();
    result->trace_dump +=
        section + tier.med->trace().ToString(/*include_data=*/true) + stats;
    result->stats_dump += section + stats;
  }
  result->trace_dump +=
      "faults: lost=" + std::to_string(result->transmissions_lost) +
      " dups=" + std::to_string(result->duplicates) +
      " blackholed=" + std::to_string(result->blackholed) +
      " slow=" + std::to_string(result->slow_polls) +
      " med_retransmits=" + std::to_string(result->mediator_retransmits) +
      " payloads=" + std::to_string(result->payloads_corrupted) +
      "\nmirror: commits=" + std::to_string(result->commits_mirrored) +
      " corrective=" + std::to_string(result->corrective_commits) +
      "\ndurability: wal_records=" + std::to_string(result->wal_records) +
      " checkpoints=" + std::to_string(result->checkpoints) +
      " coalesced=" + std::to_string(result->coalesced_msgs) +
      "\nstorage: injected=" + std::to_string(result->storage_faults_injected) +
      "\nresync: restarts=" + std::to_string(result->source_restarts) + "\n";
}

/// Deploys the scenario on \p opts.topology, runs it to quiescence and
/// checks it: the root's exports against a from-scratch recomputation of
/// the scenario's VDP, and every tier's trace against the consistency
/// checker over the sources that tier consumed.
Result<FaultSimResult> RunDeployment(uint64_t seed, const FaultSimOptions& opts,
                                     Scenario& sc, FaultSimResult result) {
  Scheduler scheduler;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  SQ_ASSIGN_OR_RETURN(std::vector<Tier> tiers, PlanTiers(opts.topology, sc));
  // Tear the tree down root first: a parent's announcers listen on its
  // children's mirrors.
  struct RootFirst {
    std::vector<Tier>& tiers;
    ~RootFirst() {
      while (!tiers.empty()) tiers.pop_back();
    }
  } root_first{tiers};
  // Every sharded-only draw (child crash windows, mirror-link faults and
  // delays) comes from this dedicated stream, keeping the scenario itself
  // byte-identical across the topologies of one seed.
  Rng srng(seed * 0x9E3779B97F4A7C15ULL + 424243);

  // Crash windows first (they feed the link fault plans below): the root
  // reuses the scenario's shared mediator windows; every child tier draws
  // its own schedule with the same slice structure.
  for (Tier& tier : tiers) {
    if (tier.shard.is_root()) {
      tier.windows = sc.med_windows;
      continue;
    }
    if (opts.mediator_crashes > 0 && opts.durability) {
      Time span = (sc.t_end - 8.0) / opts.mediator_crashes;
      for (int w = 0; w < opts.mediator_crashes && span > 1.0; ++w) {
        Time lo = 5.0 + w * span;
        Time start = lo + srng.UniformDouble() * span * 0.5;
        Time end = start + 0.5 + srng.UniformDouble() * span * 0.4;
        if (end < sc.t_end - 2.0) tier.windows.push_back({start, end});
      }
    }
  }

  // ---- recovery outcomes. A recovered child immediately re-bases its
  // mirror (epoch bump + corrective delta) so the parent's normal
  // suspect -> resyncing path re-converges. A kCorrupted recovery is a
  // DISTINCT outcome, not an error: the log was damaged beyond principled
  // repair and the tier refused it (the alternative is silently diverging
  // state). The tier stays down, and the caller judges whether the fault
  // plan made that legal ----
  std::string recover_error;
  Status corrupted_status = Status::OK();
  auto handle_recover = [&tiers, &scheduler, &recover_error,
                         &corrupted_status](size_t ti, const Status& st) {
    // Order-reset boundaries for the consistency checker.
    tiers[ti].recovery_times.push_back(scheduler.Now());
    if (st.ok()) {
      if (!tiers[ti].shard.is_root()) {
        Status es = tiers[ti].exporter->OnChildRecovered();
        if (!es.ok() && recover_error.empty()) {
          recover_error = "shard " + tiers[ti].shard.name +
                          " re-export failed: " + es.ToString();
        }
      }
      return;
    }
    if (st.code() == StatusCode::kCorrupted) {
      if (corrupted_status.ok()) corrupted_status = st;
    } else if (recover_error.empty()) {
      recover_error = "shard " + tiers[ti].shard.name + ": " + st.ToString();
    }
  };

  std::map<std::string, bool> restarts_taken;  // real db -> consumer assigned
  uint64_t link_ordinal = 0;
  bool crash_armed = opts.crash_at_wal_record >= 0;
  // Children first: a parent's setups need its child's mirror to exist.
  for (size_t ti = 0; ti < tiers.size(); ++ti) {
    Tier& tier = tiers[ti];
    std::vector<SourceSetup> setups;
    std::set<std::string> wired;
    // Sources are wired in the tier VDP's leaf order. For a lone tier that
    // is the scenario's db order, so link i gets injector seed
    // seed + 1000 + i.
    for (const auto& name : tier.vdp.TopoOrder()) {
      const VdpNode* n = tier.vdp.Find(name);
      if (!n->is_leaf || !wired.insert(n->source_db).second) continue;
      SourceSetup s;
      FaultPlan p;
      size_t dbi = sc.dbs.size();
      for (size_t i = 0; i < sc.dbs.size(); ++i) {
        if (sc.dbs[i]->name() == n->source_db) dbi = i;
      }
      if (dbi < sc.dbs.size()) {
        // A real source: reuse the scenario's link characteristics and
        // fault plan, retargeting the mediator-downtime windows at THIS
        // tier. A db feeding several tiers must restart once per window,
        // so only its first consumer owns the restart schedule.
        s.db = sc.dbs[dbi];
        s.comm_delay = sc.links[dbi].comm_delay;
        s.q_proc_delay = sc.links[dbi].q_proc_delay;
        s.announce_period = sc.links[dbi].announce_period;
        p = sc.plans[dbi];
        p.mediator_crashes = tier.windows;
        bool& taken = restarts_taken[n->source_db];
        s.schedule_restarts = !taken;
        taken = true;
      } else {
        // A child shard's mirror: the inter-mediator link gets the same
        // fault model as a real source link, drawn from the sharded
        // stream. The child's own crash windows double as the mirror's
        // source-crash windows — a down shard is an unreachable source.
        size_t child_ti = tiers.size();
        for (size_t tj = 0; tj < ti; ++tj) {
          if (tiers[tj].shard.name == n->source_db) child_ti = tj;
        }
        if (child_ti == tiers.size()) {
          return Status::Internal("shard " + tier.shard.name +
                                  " wired before its child " + n->source_db);
        }
        s.db = tiers[child_ti].exporter->mirror();
        s.comm_delay = 0.2 + srng.UniformDouble() * 0.5;
        s.q_proc_delay = 0.1 + srng.UniformDouble() * 0.3;
        s.announce_period =
            srng.Bernoulli(0.5) ? 0.0 : srng.UniformDouble() * 2;
        p.snapshot_corrupt_prob = opts.snapshot_corrupt_prob;
        p.delay_jitter_max = srng.UniformDouble() * 0.4;
        p.drop_prob = srng.UniformDouble() * 0.25;
        p.dup_prob = srng.UniformDouble() * 0.15;
        p.retransmit_timeout = 0.2 + srng.UniformDouble() * 0.5;
        p.slow_poll_prob = srng.UniformDouble() * 0.3;
        p.slow_poll_delay = srng.UniformDouble() * 1.5;
        p.crash_probe_period = 0.5;
        p.active_until = sc.t_end;
        p.crashes[n->source_db] = tiers[child_ti].windows;
        p.mediator_crashes = tier.windows;
      }
      injectors.push_back(
          std::make_unique<FaultInjector>(p, seed + 1000 + link_ordinal++));
      s.faults = injectors.back().get();
      tier.sources.push_back(s.db);
      setups.push_back(s);
    }
    MediatorOptions options = sc.options;
    if (opts.durability) {
      tier.dev = std::make_unique<MemLogDevice>();
      options.durability.device = tier.dev.get();
      options.durability.wal = true;
      options.durability.checkpoint_every = kCheckpointEvery;
      if (opts.storage_fault != FaultSimOptions::StorageFault::kNone) {
        // Wrap the in-memory device in a seeded lying disk. The decorator
        // delegates LSN numbering (and the crash-point append hook) to the
        // inner device, so the sweeps compose. A lone tier's disk is seeded
        // with the run seed itself.
        const uint64_t disk_seed =
            tiers.size() == 1 ? seed : seed + 0x9E3779B9ULL * (ti + 1);
        tier.faulty = std::make_unique<FaultyLogDevice>(
            tier.dev.get(), MakeStoragePlan(opts), disk_seed);
        options.durability.device = tier.faulty.get();
        // A lying disk can lose an acknowledged log tail without a trace;
        // paranoid resync-on-recovery is the documented deployment answer.
        options.durability.resync_on_recovery = true;
      }
    }
    SQ_ASSIGN_OR_RETURN(tier.med, Mediator::Create(tier.vdp, tier.ann, setups,
                                                   &scheduler, options));
    // Crash-point sweep (a lone tier only; RunFaultSim rejects it on a
    // tree): one-shot atomic crash+recover scheduled as a fresh event right
    // after the chosen WAL record lands (the hook fires inside the
    // appending event, so the kill must not run mid-event). Recovery itself
    // appends a checkpoint; the one-shot flag keeps that from re-triggering.
    // Armed before Start() because LSN 0 — the initial checkpoint — is
    // appended during Start().
    if (crash_armed) {
      Mediator* m = tier.med.get();
      const uint64_t target = static_cast<uint64_t>(opts.crash_at_wal_record);
      tier.dev->SetAppendHook([&crash_armed, target, &scheduler,
                               &handle_recover, m, ti](uint64_t lsn) {
        if (!crash_armed || lsn != target) return;
        crash_armed = false;
        scheduler.After(0, [&handle_recover, m, ti]() {
          handle_recover(ti, m->CrashAndRecover());
        });
      });
    }
    SQ_RETURN_IF_ERROR(tier.med->Start());
    if (!tier.shard.is_root()) {
      SQ_ASSIGN_OR_RETURN(
          tier.exporter,
          ExportAnnouncer::Create(tier.med.get(), tier.shard.name,
                                  tier.shard.exports, &scheduler));
    }
  }

  // ---- crash/recovery schedules ----
  for (size_t ti = 0; ti < tiers.size(); ++ti) {
    Mediator* m = tiers[ti].med.get();
    for (const CrashWindow& w : tiers[ti].windows) {
      scheduler.At(w.start, [m]() { m->Crash(); });
      scheduler.At(w.end, [&handle_recover, m, ti]() {
        handle_recover(ti, m->Recover());
      });
    }
    // Storage-fault sweeps: one crash+recover per tier after the workload,
    // early enough in the drain for the paranoid resyncs to complete. This
    // is the recovery that actually READS the lying disk's damage. Tiers
    // take it in child-before-parent order, so a parent's recovery resync
    // sees a mirror that has already been re-based.
    if (opts.final_crash_recover) {
      scheduler.At(sc.t_end + kDrain * 0.5 + 2.0 * ti,
                   [&handle_recover, m, ti]() {
                     handle_recover(ti, m->CrashAndRecover());
                   });
    }
  }

  // ---- schedule the pre-drawn workload: commits against the real sources,
  // queries and the overload storm against the root ----
  std::string bad_status;
  Mediator* root = tiers.back().med.get();
  ScheduleOps(sc, scheduler, root, &bad_status);
  ScheduleStormOps(sc, scheduler, root, &result, &bad_status);

  // ---- run to quiescence: all faults are over by t_end, so within the
  // drain every retransmit lands, every aborted transaction retries
  // successfully, and the queues empty ----
  scheduler.RunUntil(sc.t_end + kDrain);

  if (!corrupted_status.ok()) {
    // Unrecoverable log: surface the typed refusal with its diagnostics.
    // The traces up to the crash plus the refusal line are still rendered
    // deterministically — replay identity holds for corrupted runs too.
    result.corrupted = true;
    result.corrupted_diag = corrupted_status.ToString();
    TallyDeployment(tiers, injectors, &result);
    RenderDumps(tiers, &result);
    result.trace_dump += "corrupted: " + result.corrupted_diag + "\n";
    return result;
  }
  if (!recover_error.empty()) {
    return Status::Internal(SeedTag(seed) +
                            "mediator recovery failed: " + recover_error);
  }
  for (const Tier& tier : tiers) {
    if (tier.med->crashed()) {
      return Status::Internal(SeedTag(seed) + "shard " + tier.shard.name +
                              " still crashed at drain");
    }
    if (tier.med->busy() || tier.med->QueueSize() != 0) {
      return Status::Internal(
          SeedTag(seed) + "shard " + tier.shard.name +
          " no quiescence after drain: busy=" +
          std::to_string(tier.med->busy()) +
          " queue=" + std::to_string(tier.med->QueueSize()));
    }
  }
  if (!bad_status.empty()) {
    return Status::Internal(SeedTag(seed) + "query failed with non-fault " +
                            "status: " + bad_status);
  }
  if (result.storm_latencies.size() != result.storm_queries) {
    return Status::Internal(
        SeedTag(seed) + "unresolved storm queries: resolved=" +
        std::to_string(result.storm_latencies.size()) + " of " +
        std::to_string(result.storm_queries));
  }

  // ---- ground truth: the root's exports must equal a from-scratch
  // recomputation of the scenario's VDP over the final real-source states,
  // so passing runs are byte-identical across topologies by construction ----
  ConsistencyChecker base_checker(&sc.vdp, &sc.ann,
                                  {sc.dbs.begin(), sc.dbs.end()});
  const Time t_fq = sc.t_end + kDrain + 10.0;
  std::map<std::string, Result<ViewAnswer>> final_answers;
  for (const std::string& exp : sc.vdp.ExportNames()) {
    ViewQuery q;
    q.relation = exp;
    // Internal class: the harness's own correctness probes must never be
    // refused by an admission gate configured for the external classes.
    q.qclass = QueryClass::kInternal;
    final_answers.emplace(exp, Status::Internal("no answer"));
    auto* slot = &final_answers.at(exp);
    scheduler.At(t_fq, [root, q, slot]() {
      root->SubmitQuery(
          q, [slot](Result<ViewAnswer> ans) { *slot = std::move(ans); });
    });
  }
  scheduler.RunUntil(t_fq + 100.0);
  TimeVector final_at(sc.dbs.size(), sc.t_end + 1.0);
  for (const std::string& exp : sc.vdp.ExportNames()) {
    const Result<ViewAnswer>& ans = final_answers.at(exp);
    if (!ans.ok()) {
      return Status::Internal(SeedTag(seed) + "final query on " + exp +
                              " failed: " + ans.status().ToString());
    }
    if (ans.value().degraded) {
      return Status::Internal(SeedTag(seed) + "final query on " + exp +
                              " was degraded (a source or shard never "
                              "recovered)");
    }
    SQ_ASSIGN_OR_RETURN(Relation expected,
                        base_checker.EvalNodeAt(exp, final_at));
    std::string got = RowsString(ans.value().data);
    std::string want = RowsString(expected.ToSet());
    if (got != want) {
      return Status::Internal(SeedTag(seed) + "final state of " + exp +
                              " diverged from recomputation:\n  got  " + got +
                              "\n  want " + want);
    }
    result.final_exports += exp + ": " + got + "\n";
    ++result.exports_checked;
  }

  // ---- no permanent outage: after drain + final queries, every source of
  // every tier must be back to healthy and un-quarantined ----
  if (opts.require_all_healthy) {
    for (const Tier& tier : tiers) {
      std::vector<std::string> quarantined = tier.med->QuarantinedSources();
      if (!quarantined.empty()) {
        return Status::Internal(SeedTag(seed) + "shard " + tier.shard.name +
                                " source(s) still quarantined after drain: " +
                                Join(quarantined, ", "));
      }
      std::vector<std::string> unhealthy =
          tier.med->resync().UnhealthySources();
      if (!unhealthy.empty()) {
        return Status::Internal(SeedTag(seed) + "shard " + tier.shard.name +
                                " source(s) still resyncing after drain: " +
                                Join(unhealthy, ", "));
      }
    }
  }

  // ---- every tier's trace must independently pass the consistency checker
  // against the sources IT consumed (mirrors keep full commit logs, so a
  // parent's trace is checked against the child's announced history). With
  // a lying disk, a recovery may legitimately resume from an older reflect
  // vector (acked-but-lost tail, repaired by resync); the checker resets
  // its order watermark at those boundaries only. Clean-storage runs keep
  // the strict cross-crash order check ----
  const bool lossy_storage =
      opts.storage_fault != FaultSimOptions::StorageFault::kNone;
  for (const Tier& tier : tiers) {
    ConsistencyChecker checker(
        &tier.med->vdp(), &tier.med->annotation(),
        {tier.sources.begin(), tier.sources.end()});
    SQ_ASSIGN_OR_RETURN(
        ConsistencyReport report,
        checker.Check(tier.med->trace(), lossy_storage
                                             ? tier.recovery_times
                                             : std::vector<Time>{}));
    if (!report.consistent()) {
      return Status::Internal(
          SeedTag(seed) + "shard " + tier.shard.name +
          " trace inconsistent: " +
          (report.violations.empty() ? "no details" : report.violations[0]));
    }
  }

  TallyDeployment(tiers, injectors, &result);
  RenderDumps(tiers, &result);
  return result;
}

}  // namespace

Result<FaultSimResult> RunFaultSim(uint64_t seed,
                                   const FaultSimOptions& opts) {
  if ((opts.mediator_crashes > 0 || opts.crash_at_wal_record >= 0) &&
      !opts.durability) {
    return Status::InvalidArgument(
        "mediator crashes require durability (nothing to recover from)");
  }
  if ((opts.storage_fault != FaultSimOptions::StorageFault::kNone ||
       opts.final_crash_recover) &&
      !opts.durability) {
    return Status::InvalidArgument(
        "storage faults require durability (there is no disk to lie)");
  }
  if (opts.topology != FaultSimOptions::Topology::kSingle &&
      opts.crash_at_wal_record >= 0) {
    return Status::InvalidArgument(
        "the crash-point sweep targets one WAL; it is single-mediator only");
  }
  // Optional memory budget, installed for the whole run (build + deploy +
  // drain) so arenas, join tables, snapshots and queues all account to it.
  std::unique_ptr<MemoryBudget> budget;
  std::optional<ScopedMemoryBudget> scoped_budget;
  if (opts.memory_soft_limit > 0) {
    budget = std::make_unique<MemoryBudget>(opts.memory_soft_limit,
                                            /*hard_limit=*/0);
    scoped_budget.emplace(budget.get());
  }
  SQ_ASSIGN_OR_RETURN(Scenario sc, BuildScenario(seed, opts));
  FaultSimResult result;
  result.seed = seed;
  result.fault_plan_dump = std::move(sc.fault_plan_dump);
  return RunDeployment(seed, opts, sc, std::move(result));
}

}  // namespace testing
}  // namespace squirrel
