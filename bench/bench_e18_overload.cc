// Experiment E18: what overload protection buys — the SAME update stream +
// query storm run with the admission gate off and on (DESIGN.md §15).
//
// One workload per scale: seeded R/S populations, a stream of R/S commits,
// and bursts of storm queries against Example 2.3's hybrid annotation (every
// storm query polls both sources, so a burst piles onto the serialized
// transaction slot). Every storm query carries a deadline (the SLO): the
// tentpole guarantee makes each one terminate by that deadline with an
// answer or a typed error, so "resolution latency" is well-defined for all
// of them. Three runs per scale, each inside its own deterministic
// scheduler:
//
//   - oracle:       the storm off entirely (the exports_match baseline)
//   - no_admission: storm on, gate unlimited — queries queue behind the
//                   txn slot until their deadline kills them
//   - admission:    storm on, per-class active+queued caps — the overflow
//                   is refused in its arrival event with kOverloaded +
//                   retry-after, the admitted fraction meets its deadline
//
// Reports per configuration: median-of-3 wall time to drain, p50/p99
// resolution latency in virtual time over ALL storm queries (a rejection
// resolves in its arrival event, a deadline expiry at the deadline), the
// same percentiles over answered queries only, and goodput — the fraction
// of the storm answered within its SLO.
//
// Self-validation: the final full-T query (internal class, never gated) of
// all three runs must render byte-identically — overload shedding is loss
// of availability, never of correctness — and the admission run's all-in
// p99 must not exceed the no-admission run's (the gate holds p99 bounded
// under storm: refusing work beats timing out on it).
//
// Standalone driver: emits a JSON report (default BENCH_pr10.json) that
// bench/run_bench.sh commits as the baseline and that the bench_e18_smoke
// ctest validates.
//
//   bench_e18_overload [--smoke] [--out=PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace bench {
namespace {

constexpr int kReps = 3;          // median-of-3 wall times
constexpr Time kSlo = 8.0;        // per-query deadline budget (virtual time)
constexpr Time kBurstEvery = 15;  // storm burst cadence
constexpr int kBurstSize = 10;    // queries per burst, 0.01 apart

struct WorkloadSpec {
  int r_rows = 0;
  int s_rows = 0;
  int ops = 0;    // committed single-atom transactions after the seed
  int storm = 0;  // storm queries, in bursts of kBurstSize
};

struct Op {
  Time when = 0;
  int db = 0;  // 0 = DB1 (R), 1 = DB2 (S)
  bool insert = true;
  Tuple tuple;
};

struct StormQuery {
  Time when = 0;
  QueryClass qclass = QueryClass::kInteractive;
};

/// The seed populations, op schedule, and storm arrivals, generated ONCE per
/// scale so every configuration sees byte-identical inputs on an identical
/// timeline.
struct Workload {
  WorkloadSpec spec;
  std::vector<Tuple> r_seed, s_seed;
  std::vector<Op> ops;
  std::vector<StormQuery> storm;
  Time t_end = 0;
};

Workload MakeWorkload(const WorkloadSpec& spec) {
  Workload w;
  w.spec = spec;
  Rng rng(20260809 + static_cast<uint64_t>(spec.ops));
  std::vector<Tuple> live_r, live_s;
  int64_t next_r_key = 0;
  for (int i = 0; i < spec.r_rows; ++i) {
    int64_t join = rng.UniformInt(0, std::max(1, spec.s_rows - 1)) * 100;
    int64_t r4 = rng.Bernoulli(0.6) ? 100 : 7;
    Tuple t({next_r_key++, join, rng.UniformInt(0, 1000), r4});
    w.r_seed.push_back(std::move(t));
  }
  for (int i = 0; i < spec.s_rows; ++i) {
    Tuple t({int64_t{i} * 100, rng.UniformInt(0, 50), rng.UniformInt(0, 49)});
    live_s.push_back(t);
    w.s_seed.push_back(std::move(t));
  }
  Time t = 1.0;
  for (int i = 0; i < spec.ops; ++i) {
    Op op;
    op.when = t;
    double dice = rng.UniformDouble();
    if (dice < 0.6 || live_r.empty()) {  // R insert passing the r4 filter
      int64_t join = live_s[rng.Uniform(live_s.size())].at(0).AsInt();
      op.db = 0;
      op.tuple =
          Tuple({next_r_key++, join, rng.UniformInt(0, 1000), int64_t{100}});
      live_r.push_back(op.tuple);
    } else {  // R delete
      size_t idx = rng.Uniform(live_r.size());
      op.db = 0;
      op.insert = false;
      op.tuple = live_r[idx];
      live_r.erase(live_r.begin() + static_cast<ptrdiff_t>(idx));
    }
    w.ops.push_back(op);
    t += 1.5;
  }
  // Storm bursts: kBurstSize back-to-back full-T queries every kBurstEvery
  // time units, alternating interactive/batch — a burst lands faster than
  // the serialized slot can possibly drain it.
  Time burst_at = 5.0;
  for (int i = 0; i < spec.storm; ++i) {
    if (i > 0 && i % kBurstSize == 0) burst_at += kBurstEvery;
    StormQuery q;
    q.when = burst_at + 0.01 * (i % kBurstSize);
    q.qclass =
        (i % 2 == 0) ? QueryClass::kInteractive : QueryClass::kBatch;
    w.storm.push_back(q);
  }
  Time last = std::max(t, w.storm.empty() ? 0.0 : w.storm.back().when);
  w.t_end = last + kSlo + 30.0;  // every deadline fires before the drain ends
  return w;
}

struct Deployment {
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<SourceDb> db1, db2;
  std::unique_ptr<Mediator> mediator;
};

std::unique_ptr<Deployment> MakeDeployment(const Workload& w, bool gated) {
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
  Annotation ann = AnnotationExample23(base);  // storm queries must poll
  std::vector<SourceSetup> setups = {
      {d->db1.get(), /*comm=*/0.5, /*q_proc=*/0.2, /*announce=*/0.0},
      {d->db2.get(), /*comm=*/0.5, /*q_proc=*/0.2, /*announce=*/0.0},
  };
  MediatorOptions options;
  options.record_trace = false;  // perf run, not a consistency check
  options.snapshot_repos = false;
  if (gated) {
    for (QueryClass cls : {QueryClass::kInteractive, QueryClass::kBatch}) {
      options.admission.max_active[static_cast<size_t>(cls)] = 1;
      options.admission.max_queued[static_cast<size_t>(cls)] = 1;
    }
  }
  d->mediator = Unwrap(Mediator::Create(base, ann, setups,
                                        d->scheduler.get(), options),
                       "create mediator");
  Check(d->mediator->Start(), "start mediator");
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

struct ConfigMetrics {
  double wall_ms = 0;  // median-of-3 drain time
  uint64_t storm_total = 0, answered = 0, deadline_exceeded = 0,
           rejected = 0;
  double goodput = 0;                     // answered / storm_total
  double all_p50 = 0, all_p99 = 0;        // latency over every resolution
  double answered_p50 = 0, answered_p99 = 0;  // over answered only
  std::string final_rows;                 // for the exports_match gate
};

ConfigMetrics RunConfig(const Workload& w, bool storm, bool gated) {
  ConfigMetrics m;
  std::vector<double> wall_samples;
  for (int rep = 0; rep < kReps; ++rep) {
    auto d = MakeDeployment(w, gated);
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
    std::vector<double> all_lat, answered_lat;
    uint64_t answered = 0, expired = 0, rejected = 0;
    if (storm) {
      for (const StormQuery& sq : w.storm) {
        Mediator* med = d->mediator.get();
        sched->At(sq.when, [med, sched, sq, &all_lat, &answered_lat,
                            &answered, &expired, &rejected]() {
          ViewQuery q{"T", {}, nullptr};
          q.qclass = sq.qclass;
          q.deadline = sched->Now() + kSlo;
          Time submitted = sched->Now();
          med->SubmitQuery(q, [sched, submitted, &all_lat, &answered_lat,
                               &answered, &expired,
                               &rejected](Result<ViewAnswer> a) {
            double lat = sched->Now() - submitted;
            all_lat.push_back(lat);
            if (a.ok()) {
              ++answered;
              answered_lat.push_back(lat);
            } else if (a.status().code() == StatusCode::kDeadlineExceeded) {
              ++expired;
            } else if (a.status().code() == StatusCode::kOverloaded) {
              ++rejected;
            } else {
              Check(a.status(), "storm query");  // untyped: abort loudly
            }
          });
        });
      }
    }
    auto start = std::chrono::steady_clock::now();
    sched->RunUntil(w.t_end);
    auto end = std::chrono::steady_clock::now();
    wall_samples.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());

    if (rep + 1 == kReps) {
      Check(all_lat.size() == (storm ? w.storm.size() : 0)
                ? Status::OK()
                : Status::Internal("a storm query never resolved"),
            "storm drained");
      std::string rows;
      ViewQuery fq{"T", {}, nullptr};
      fq.qclass = QueryClass::kInternal;  // never refused by the gate
      d->mediator->SubmitQuery(fq, [&rows](Result<ViewAnswer> a) {
        Check(a.status(), "final query");
        rows = RowsOf(a->data);
      });
      sched->RunUntil(w.t_end + 50.0);
      Check(!rows.empty() ? Status::OK()
                          : Status::Internal("final query never answered"),
            "final query drained");
      m.final_rows = std::move(rows);
      m.storm_total = all_lat.size();
      m.answered = answered;
      m.deadline_exceeded = expired;
      m.rejected = rejected;
      m.goodput = m.storm_total == 0
                      ? 0
                      : static_cast<double>(answered) /
                            static_cast<double>(m.storm_total);
      m.all_p50 = Percentile(all_lat, 50);
      m.all_p99 = Percentile(all_lat, 99);
      m.answered_p50 = Percentile(answered_lat, 50);
      m.answered_p99 = Percentile(answered_lat, 99);
    }
  }
  m.wall_ms = MedianMs(std::move(wall_samples));
  return m;
}

struct ScaleReport {
  WorkloadSpec spec;
  ConfigMetrics oracle, no_admission, admission;
  bool exports_match = false;
  bool p99_bounded = false;  // gate holds all-in p99 at or under ungated
};

ScaleReport RunScale(const WorkloadSpec& spec) {
  Workload w = MakeWorkload(spec);
  ScaleReport r;
  r.spec = spec;
  r.oracle = RunConfig(w, /*storm=*/false, /*gated=*/false);
  r.no_admission = RunConfig(w, /*storm=*/true, /*gated=*/false);
  r.admission = RunConfig(w, /*storm=*/true, /*gated=*/true);
  r.exports_match = r.no_admission.final_rows == r.oracle.final_rows &&
                    r.admission.final_rows == r.oracle.final_rows &&
                    !r.oracle.final_rows.empty();
  r.p99_bounded = r.admission.all_p99 <= r.no_admission.all_p99 + 1e-9;
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

std::string ConfigJson(const ConfigMetrics& m) {
  return "{\"wall_ms\": " + Num(m.wall_ms) +
         ", \"storm_total\": " + std::to_string(m.storm_total) +
         ", \"answered\": " + std::to_string(m.answered) +
         ", \"deadline_exceeded\": " + std::to_string(m.deadline_exceeded) +
         ", \"rejected\": " + std::to_string(m.rejected) +
         ", \"goodput\": " + Num(m.goodput) +
         ", \"all_p50\": " + Num(m.all_p50) +
         ", \"all_p99\": " + Num(m.all_p99) +
         ", \"answered_p50\": " + Num(m.answered_p50) +
         ", \"answered_p99\": " + Num(m.answered_p99) + "}";
}

std::string ReportJson(const std::vector<ScaleReport>& scales, bool smoke) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"e18_overload\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"reps\": " << kReps << ",\n  \"slo\": " << Num(kSlo)
      << ",\n  \"scales\": [\n";
  for (size_t i = 0; i < scales.size(); ++i) {
    const ScaleReport& r = scales[i];
    out << "    {\"r_rows\": " << r.spec.r_rows
        << ", \"s_rows\": " << r.spec.s_rows << ", \"ops\": " << r.spec.ops
        << ", \"storm\": " << r.spec.storm
        << ",\n     \"oracle\": " << ConfigJson(r.oracle)
        << ",\n     \"no_admission\": " << ConfigJson(r.no_admission)
        << ",\n     \"admission\": " << ConfigJson(r.admission)
        << ",\n     \"p99_bounded\": " << (r.p99_bounded ? "true" : "false")
        << ", \"exports_match\": " << (r.exports_match ? "true" : "false")
        << "}" << (i + 1 < scales.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

int Main(int argc, char** argv) {
  const std::optional<DriverArgs> args =
      ParseDriverArgs(argc, argv, "BENCH_pr10.json");
  if (!args) return 2;
  const bool smoke = args->smoke;

  std::vector<WorkloadSpec> specs =
      smoke ? std::vector<WorkloadSpec>{{60, 30, 24, 20}}
            : std::vector<WorkloadSpec>{{500, 250, 200, 60},
                                        {2000, 1000, 400, 100},
                                        {8000, 4000, 800, 160}};

  std::vector<ScaleReport> scales;
  for (const WorkloadSpec& spec : specs) {
    ScaleReport r = RunScale(spec);
    std::fprintf(
        stderr,
        "r=%d s=%d ops=%d storm=%d goodput=%.2f->%.2f "
        "all_p99=%.2f->%.2f answered_p99=%.2f->%.2f rejected=%llu "
        "match=%s bounded=%s\n",
        spec.r_rows, spec.s_rows, spec.ops, spec.storm,
        r.no_admission.goodput, r.admission.goodput, r.no_admission.all_p99,
        r.admission.all_p99, r.no_admission.answered_p99,
        r.admission.answered_p99,
        static_cast<unsigned long long>(r.admission.rejected),
        r.exports_match ? "yes" : "NO", r.p99_bounded ? "yes" : "NO");
    scales.push_back(std::move(r));
  }

  return WriteReport(args->out_path, ReportJson(scales, smoke),
                     {"\"bench\": \"e18_overload\"", "\"scales\"", "\"oracle\"",
                      "\"no_admission\"", "\"admission\"", "\"goodput\"",
                      "\"all_p99\"", "\"answered_p99\"", "\"rejected\"",
                      "\"deadline_exceeded\""},
                     {{"exports_match", "a storm run's exports diverged from the "
                                        "no-storm oracle"},
                      {"p99_bounded", "the admission gate did not hold all-in "
                                      "p99 at or under the ungated run"}});
}

}  // namespace
}  // namespace bench
}  // namespace squirrel

int main(int argc, char** argv) { return squirrel::bench::Main(argc, argv); }
