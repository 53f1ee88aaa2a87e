// Experiment E17: what sharding the mediator costs — single vs two-shard vs
// three-tier deployments of the SAME Figure 1 scenario (DESIGN.md §14).
//
// One workload per scale: seeded R/S populations, a stream of R/S commits
// with periodic root queries (Example 2.3's hybrid annotation, so queries
// and update transactions actually poll), and — in the sharded deployments —
// one child-shard crash+recover in a quiet window mid-run. Each topology is
// built through the real ShardPlan/ExportAnnouncer composition path and runs
// the identical op schedule inside its own deterministic scheduler. Reports
// per topology:
//
//   - wall time to drain the whole schedule, median-of-3 over fresh
//     deployments, and sustained committed atoms/sec derived from it
//   - root query latency p50/p99 in virtual time (poll-bound under the
//     hybrid annotation; sharded roots poll across the mediator-to-mediator
//     link, so the mirror hop is visible here)
//   - resync bytes on child restart: the encoded size of every mirror
//     relation the parent re-pulls after OnChildRecovered (0 for single)
//   - commits mirrored through ExportAnnouncers (0 for single)
//
// Self-validation (exports_match): after draining, the root of every
// topology answers the same full-T query; all three renderings must be
// byte-identical. A sharded deployment that diverges from the single-
// mediator oracle fails its own driver.
//
// Standalone driver: emits a JSON report (default BENCH_pr9.json) that
// bench/run_bench.sh commits as the baseline and that the bench_e17_smoke
// ctest validates.
//
//   bench_e17_sharded_topology [--smoke] [--out=PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mediator/durability/log_device.h"
#include "mediator/durability/serialize.h"
#include "mediator/export_announcer.h"
#include "mediator/shard_plan.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace bench {
namespace {

constexpr int kReps = 3;  // median-of-3 wall times

enum class Topo { kSingle, kTwoShard, kThreeTier };

std::vector<ShardSpec> SpecsFor(Topo t) {
  switch (t) {
    case Topo::kSingle:
      return {{"top", "", {"R'", "S'", "T"}}};
    case Topo::kTwoShard:
      return {{"shardA", "top", {"S'"}}, {"top", "", {"R'", "T"}}};
    default:  // S' computed two hops below the query root
      return {{"shardA", "mid", {"S'"}},
              {"mid", "top", {"R'", "T"}},
              {"top", "", {}}};
  }
}

struct WorkloadSpec {
  int r_rows = 0;  // initial R population (60% passing the r4 = 100 filter)
  int s_rows = 0;  // initial S population (all passing s3 < 50)
  int ops = 0;     // committed single-atom transactions after the seed
};

/// One committed atom of the shared schedule.
struct Op {
  Time when = 0;
  int db = 0;  // 0 = DB1 (R), 1 = DB2 (S)
  bool insert = true;
  Tuple tuple;
};

/// The seed populations and op schedule, generated ONCE per scale so every
/// topology commits byte-identical data on an identical timeline.
struct Workload {
  WorkloadSpec spec;
  std::vector<Tuple> r_seed, s_seed;
  std::vector<Op> ops;
  std::vector<Time> query_times;
  Time crash_at = 0, recover_at = 0;  // quiet-window child crash (sharded)
  Time t_end = 0;
};

Workload MakeWorkload(const WorkloadSpec& spec) {
  Workload w;
  w.spec = spec;
  Rng rng(20260813 + static_cast<uint64_t>(spec.ops));
  std::vector<Tuple> live_r, live_s;
  int64_t next_r_key = 0;
  for (int i = 0; i < spec.r_rows; ++i) {
    int64_t join = rng.UniformInt(0, std::max(1, spec.s_rows - 1)) * 100;
    int64_t r4 = rng.Bernoulli(0.6) ? 100 : 7;
    Tuple t({next_r_key++, join, rng.UniformInt(0, 1000), r4});
    if (r4 == 100) live_r.push_back(t);
    w.r_seed.push_back(std::move(t));
  }
  for (int i = 0; i < spec.s_rows; ++i) {
    Tuple t({int64_t{i} * 100, rng.UniformInt(0, 50), rng.UniformInt(0, 49)});
    live_s.push_back(t);
    w.s_seed.push_back(std::move(t));
  }
  // Ops every 1.5 time units with a quiet window after the midpoint: the
  // bench runs ideal links (no injector, no ARQ), so the child crash must
  // not land while an announcement or poll is in flight.
  Time t = 1.0;
  const int half = spec.ops / 2;
  for (int i = 0; i < spec.ops; ++i) {
    if (i == half) {
      w.crash_at = t + 3.0;  // last pre-gap txn drains by ~t + 2
      w.recover_at = w.crash_at + 2.0;
      t = w.crash_at + 3.0;
    }
    Op op;
    op.when = t;
    double dice = rng.UniformDouble();
    if (dice < 0.5) {  // R insert, always passing the filter
      int64_t join = live_s[rng.Uniform(live_s.size())].at(0).AsInt();
      op.db = 0;
      op.tuple = Tuple({next_r_key++, join, rng.UniformInt(0, 1000),
                        int64_t{100}});
      live_r.push_back(op.tuple);
    } else if (dice < 0.7 && !live_r.empty()) {  // R delete
      size_t idx = rng.Uniform(live_r.size());
      op.db = 0;
      op.insert = false;
      op.tuple = live_r[idx];
      live_r.erase(live_r.begin() + static_cast<ptrdiff_t>(idx));
    } else {  // S insert, new join key, always passing s3 < 50
      op.db = 1;
      op.tuple = Tuple({int64_t{100000} +
                            static_cast<int64_t>(live_s.size()) * 100,
                        rng.UniformInt(0, 50), rng.UniformInt(0, 49)});
      live_s.push_back(op.tuple);
    }
    w.ops.push_back(op);
    if (i % 8 == 3 && (w.crash_at == 0 || op.when + 0.7 < w.crash_at ||
                       op.when + 0.7 > w.recover_at + 1.0)) {
      w.query_times.push_back(op.when + 0.7);
    }
    t += 1.5;
  }
  w.t_end = t + 30.0;  // drain
  return w;
}

/// One built topology: shards children-first (root last), every mediator
/// durable on its own MemLogDevice, mirrors wired through ExportAnnouncers.
struct Deployment {
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<SourceDb> db1, db2;
  std::vector<std::unique_ptr<MemLogDevice>> devs;
  std::vector<std::unique_ptr<Mediator>> meds;
  std::vector<std::unique_ptr<ExportAnnouncer>> exporters;
  std::vector<std::string> exporter_names;
  Mediator* root = nullptr;
  Mediator* bottom = nullptr;              // crash target (non-root lowest)
  ExportAnnouncer* bottom_exporter = nullptr;

  /// Tears the tree down root first, each exporter between its parent and
  /// its child: a parent's announcers listen on its children's mirrors, and
  /// an exporter listens on its child.
  ~Deployment() {
    while (!meds.empty()) {
      meds.pop_back();
      if (!exporters.empty()) exporters.pop_back();
    }
  }
};

std::unique_ptr<Deployment> MakeDeployment(Topo topo, const Workload& w) {
  auto d = std::make_unique<Deployment>();
  d->scheduler = std::make_unique<Scheduler>();
  d->db1 = std::make_unique<SourceDb>("DB1");
  d->db2 = std::make_unique<SourceDb>("DB2");
  Check(d->db1->AddRelation("R", SchemaOf("R(r1, r2, r3, r4) key(r1)")),
        "declare R");
  Check(d->db2->AddRelation("S", SchemaOf("S(s1, s2, s3) key(s1)")),
        "declare S");
  {
    MultiDelta mr;
    Delta* dr = mr.Mutable("R", SchemaOf("R(r1, r2, r3, r4) key(r1)"));
    for (const Tuple& t : w.r_seed) Check(dr->AddInsert(t), "seed R");
    Check(d->db1->Commit(0, mr), "commit R seed");
    MultiDelta ms;
    Delta* ds = ms.Mutable("S", SchemaOf("S(s1, s2, s3) key(s1)"));
    for (const Tuple& t : w.s_seed) Check(ds->AddInsert(t), "seed S");
    Check(d->db2->Commit(0, ms), "commit S seed");
  }

  Vdp base = Unwrap(BuildFigure1Vdp(), "figure 1 vdp");
  Annotation ann = AnnotationExample23(base);  // the hybrid spectrum
  ShardPlan plan =
      Unwrap(ShardPlan::Build(base, SpecsFor(topo)), "shard plan");
  for (const Shard& shard : plan.shards()) {
    auto built = Unwrap(plan.BuildVdp(shard, ann), "shard vdp");
    std::vector<SourceSetup> setups;
    std::set<std::string> wired;
    for (const auto& name : built.first.TopoOrder()) {
      const VdpNode* n = built.first.Find(name);
      if (!n->is_leaf || !wired.insert(n->source_db).second) continue;
      SourceSetup s;
      if (n->source_db == "DB1") {
        s.db = d->db1.get();
      } else if (n->source_db == "DB2") {
        s.db = d->db2.get();
      } else {
        for (size_t i = 0; i < d->exporters.size(); ++i) {
          if (d->exporter_names[i] == n->source_db) {
            s.db = d->exporters[i]->mirror();
          }
        }
        Check(s.db != nullptr ? Status::OK()
                              : Status::Internal("no mirror " + n->source_db),
              "mirror lookup");
      }
      s.comm_delay = 0.5;
      s.q_proc_delay = 0.2;
      s.announce_period = 0.0;  // announce on every commit
      setups.push_back(s);
    }
    MediatorOptions options;
    options.record_trace = false;   // perf run, not a consistency check
    options.snapshot_repos = false;
    d->devs.push_back(std::make_unique<MemLogDevice>());
    options.durability.device = d->devs.back().get();
    options.durability.wal = true;
    options.durability.checkpoint_every = 64;
    d->meds.push_back(Unwrap(Mediator::Create(built.first, built.second,
                                              setups, d->scheduler.get(),
                                              options),
                             "create mediator"));
    Check(d->meds.back()->Start(), "start mediator");
    if (!shard.is_root()) {
      d->exporters.push_back(
          Unwrap(ExportAnnouncer::Create(d->meds.back().get(), shard.name,
                                         shard.exports, d->scheduler.get()),
                 "export announcer"));
      d->exporter_names.push_back(shard.name);
    }
  }
  d->root = d->meds.back().get();
  if (d->meds.size() > 1) {
    d->bottom = d->meds.front().get();
    d->bottom_exporter = d->exporters.front().get();
  }
  return d;
}

std::string RowsOf(const Relation& rel) {
  std::string out;
  for (const auto& [t, n] : rel.SortedRows()) {
    out += t.ToString();
    if (n > 1) out += "x" + std::to_string(n);
    out += " ";
  }
  return out;
}

struct TopoMetrics {
  double wall_ms = 0;       // median-of-3 drain time
  double atoms_per_sec = 0;
  double query_p50 = 0, query_p99 = 0;  // virtual-time latency
  uint64_t polls = 0;
  uint64_t resync_bytes = 0;
  uint64_t commits_mirrored = 0;
  uint64_t shards = 1;
  std::string final_rows;  // for the exports_match gate
};

TopoMetrics RunTopo(Topo topo, const Workload& w) {
  TopoMetrics m;
  std::vector<double> wall_samples;
  for (int rep = 0; rep < kReps; ++rep) {
    auto d = MakeDeployment(topo, w);
    Scheduler* sched = d->scheduler.get();
    for (const Op& op : w.ops) {
      SourceDb* db = op.db == 0 ? d->db1.get() : d->db2.get();
      Schema schema = op.db == 0 ? SchemaOf("R(r1, r2, r3, r4) key(r1)")
                                 : SchemaOf("S(s1, s2, s3) key(s1)");
      const char* rel = op.db == 0 ? "R" : "S";
      sched->At(op.when, [db, sched, op, schema, rel]() {
        MultiDelta md;
        Delta* delta = md.Mutable(rel, schema);
        Check(op.insert ? delta->AddInsert(op.tuple)
                        : delta->AddDelete(op.tuple),
              "op atom");
        Check(db->Commit(sched->Now(), md), "op commit");
      });
    }
    std::vector<double> latencies;
    for (Time qt : w.query_times) {
      Mediator* root = d->root;
      sched->At(qt, [root, sched, &latencies]() {
        Time submitted = sched->Now();
        root->SubmitQuery(ViewQuery{"T", {}, nullptr},
                          [sched, submitted, &latencies](Result<ViewAnswer> a) {
                            Check(a.status(), "mid-run query");
                            latencies.push_back(sched->Now() - submitted);
                          });
      });
    }
    uint64_t resync_bytes = 0;
    if (d->bottom != nullptr) {
      Mediator* bottom = d->bottom;
      sched->At(w.crash_at, [bottom]() { bottom->Crash(); });
      ExportAnnouncer* exp = d->bottom_exporter;
      sched->At(w.recover_at, [bottom, exp, &resync_bytes]() {
        Check(bottom->Recover(), "child recover");
        // What the parent's epoch-bump resync will re-pull: the full
        // current extent of every mirrored export relation.
        SourceDb* mirror = exp->mirror();
        for (const std::string& rel : mirror->RelationNames()) {
          BinaryWriter bw;
          EncodeRelation(&bw, *Unwrap(mirror->Current(rel), "mirror rel"));
          resync_bytes += bw.bytes().size();
        }
        Check(exp->OnChildRecovered(), "re-export");
      });
    }
    auto start = std::chrono::steady_clock::now();
    sched->RunUntil(w.t_end);
    auto end = std::chrono::steady_clock::now();
    wall_samples.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());

    if (rep + 1 == kReps) {
      std::string rows;
      d->root->SubmitQuery(ViewQuery{"T", {}, nullptr},
                           [&rows](Result<ViewAnswer> a) {
                             Check(a.status(), "final query");
                             rows = RowsOf(a->data);
                           });
      sched->RunUntil(w.t_end + 50.0);
      Check(!rows.empty() ? Status::OK()
                          : Status::Internal("final query never answered"),
            "final query drained");
      m.final_rows = std::move(rows);
      m.query_p50 = Percentile(latencies, 50);
      m.query_p99 = Percentile(latencies, 99);
      for (const auto& med : d->meds) m.polls += med->stats().polls;
      for (const auto& exp : d->exporters) {
        m.commits_mirrored += exp->commits_mirrored();
      }
      m.resync_bytes = resync_bytes;
      m.shards = d->meds.size();
    }
  }
  m.wall_ms = MedianMs(std::move(wall_samples));
  m.atoms_per_sec =
      static_cast<double>(w.ops.size()) / (m.wall_ms / 1000.0);
  return m;
}

struct ScaleReport {
  WorkloadSpec spec;
  TopoMetrics single, two_shard, three_tier;
  double two_shard_slowdown = 0;   // wall vs single
  double three_tier_slowdown = 0;
  bool exports_match = false;
};

ScaleReport RunScale(const WorkloadSpec& spec) {
  Workload w = MakeWorkload(spec);
  ScaleReport r;
  r.spec = spec;
  r.single = RunTopo(Topo::kSingle, w);
  r.two_shard = RunTopo(Topo::kTwoShard, w);
  r.three_tier = RunTopo(Topo::kThreeTier, w);
  r.two_shard_slowdown = r.two_shard.wall_ms / r.single.wall_ms;
  r.three_tier_slowdown = r.three_tier.wall_ms / r.single.wall_ms;
  r.exports_match = r.two_shard.final_rows == r.single.final_rows &&
                    r.three_tier.final_rows == r.single.final_rows &&
                    !r.single.final_rows.empty();
  return r;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string TopoJson(const TopoMetrics& m) {
  return "{\"wall_ms\": " + Num(m.wall_ms) +
         ", \"atoms_per_sec\": " + Num(m.atoms_per_sec) +
         ", \"query_p50\": " + Num(m.query_p50) +
         ", \"query_p99\": " + Num(m.query_p99) +
         ", \"polls\": " + std::to_string(m.polls) +
         ", \"resync_bytes\": " + std::to_string(m.resync_bytes) +
         ", \"commits_mirrored\": " + std::to_string(m.commits_mirrored) +
         ", \"shards\": " + std::to_string(m.shards) + "}";
}

std::string ReportJson(const std::vector<ScaleReport>& scales, bool smoke) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"e17_sharded_topology\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"reps\": " << kReps << ",\n  \"scales\": [\n";
  for (size_t i = 0; i < scales.size(); ++i) {
    const ScaleReport& r = scales[i];
    out << "    {\"r_rows\": " << r.spec.r_rows
        << ", \"s_rows\": " << r.spec.s_rows << ", \"ops\": " << r.spec.ops
        << ",\n     \"single\": " << TopoJson(r.single)
        << ",\n     \"two_shard\": " << TopoJson(r.two_shard)
        << ",\n     \"three_tier\": " << TopoJson(r.three_tier)
        << ",\n     \"two_shard_slowdown\": " << Num(r.two_shard_slowdown)
        << ", \"three_tier_slowdown\": " << Num(r.three_tier_slowdown)
        << ", \"exports_match\": " << (r.exports_match ? "true" : "false")
        << "}" << (i + 1 < scales.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

int Main(int argc, char** argv) {
  const std::optional<DriverArgs> args =
      ParseDriverArgs(argc, argv, "BENCH_pr9.json");
  if (!args) return 2;
  const bool smoke = args->smoke;

  std::vector<WorkloadSpec> specs =
      smoke ? std::vector<WorkloadSpec>{{60, 30, 24}}
            : std::vector<WorkloadSpec>{
                  {500, 250, 200}, {2000, 1000, 400}, {8000, 4000, 800}};

  std::vector<ScaleReport> scales;
  for (const WorkloadSpec& spec : specs) {
    ScaleReport r = RunScale(spec);
    std::fprintf(stderr,
                 "r=%d s=%d ops=%d wall=%.1f/%.1f/%.1fms (%.2fx/%.2fx) "
                 "q_p50=%.2f/%.2f/%.2f resync=%llu/%lluB match=%s\n",
                 spec.r_rows, spec.s_rows, spec.ops, r.single.wall_ms,
                 r.two_shard.wall_ms, r.three_tier.wall_ms,
                 r.two_shard_slowdown, r.three_tier_slowdown,
                 r.single.query_p50, r.two_shard.query_p50,
                 r.three_tier.query_p50,
                 static_cast<unsigned long long>(r.two_shard.resync_bytes),
                 static_cast<unsigned long long>(r.three_tier.resync_bytes),
                 r.exports_match ? "yes" : "NO");
    scales.push_back(std::move(r));
  }

  return WriteReport(args->out_path, ReportJson(scales, smoke),
                     {"\"bench\": \"e17_sharded_topology\"", "\"scales\"",
                      "\"single\"", "\"two_shard\"", "\"three_tier\"",
                      "\"atoms_per_sec\"", "\"query_p50\"", "\"query_p99\"",
                      "\"resync_bytes\"", "\"commits_mirrored\""},
                     {{"exports_match", "a sharded deployment diverged from the "
                                        "single-mediator oracle"}});
}

}  // namespace
}  // namespace bench
}  // namespace squirrel

int main(int argc, char** argv) { return squirrel::bench::Main(argc, argv); }
