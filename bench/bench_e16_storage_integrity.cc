// Experiment E16: storage-integrity overhead — what checksummed framing
// costs in WAL/checkpoint bytes and in recovery time.
//
// One workload per scale: a HardState whose T repository holds `rows`
// tuples, then `txns` update transactions driven through DurabilityManager
// (enqueue records, begin/commit pairs with per-node deltas and reflect
// advances, a checkpoint every `ckpt_every` commits — so the log retains the
// dual-generation structure recovery actually sees). The same workload runs
// twice, framing on and framing off, and reports per mode:
//
//   - log build time (appends + checkpoints), median-of-3 over fresh devices
//   - bytes appended (WAL + checkpoints) and bytes retained post-truncation
//   - Recover() wall time, median-of-3 over fresh managers on one device
//
// Self-validation (exports_match): the bench maintains a live oracle
// HardState alongside the log exactly as the mediator would, and both modes'
// recovered states must Encode() byte-identical to it — a framing toggle
// must never change WHAT recovers, only how damage would be detected.
//
// Standalone benchmark in the E13/E14 mold: emits a JSON report (default
// BENCH_pr8.json) that bench/run_bench.sh commits as the PR baseline and
// that the SQUIRREL_BENCH_SMOKE ctest validates.
//
//   bench_e16_storage_integrity [--smoke] [--out=PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "delta/delta.h"
#include "mediator/durability/durability.h"
#include "mediator/durability/log_device.h"
#include "source/messages.h"

namespace squirrel {
namespace bench {
namespace {

constexpr int kReps = 3;  // median-of-3 everywhere

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct WorkloadSpec {
  int rows = 0;        // initial T repository cardinality
  int txns = 0;        // update transactions logged after the base checkpoint
  int per_txn = 3;     // enqueues (and inserted tuples) per transaction
  uint64_t ckpt_every = 64;  // commits between checkpoints
};

/// The base hard state: T(r1, s1) with `rows` tuples and one known source.
HardState BaseState(const WorkloadSpec& spec) {
  HardState hs;
  Relation t(SchemaOf("T(r1, s1)"), Semantics::kBag);
  for (int i = 0; i < spec.rows; ++i) {
    Check(t.Insert(Tuple({int64_t{i}, int64_t{i % 997}})), "seed T");
  }
  hs.repos.emplace("T", std::move(t));
  hs.sources["DB1"] = {};  // defaults: seq 0, reflect 0, healthy, epoch 1
  return hs;
}

/// One announcement as a source would send it: a small MultiDelta payload.
UpdateMessage MakeMsg(uint64_t seq, double send_time, int64_t key) {
  UpdateMessage msg;
  msg.source = "DB1";
  msg.seq = seq;
  msg.epoch = 1;
  msg.send_time = send_time;
  Delta* d = msg.delta.Mutable("R", SchemaOf("R(a, b)"));
  Check(d->AddInsert(Tuple({key, key % 31})), "msg atom");
  Check(d->AddInsert(Tuple({key + 1, (key + 1) % 31})), "msg atom");
  return msg;
}

/// Drives the whole workload through \p mgr, mutating \p oracle in lockstep
/// with what replay will reconstruct (enqueue raises the dedup floor, commit
/// applies the node delta and advances the reflect vector).
void DriveLog(const WorkloadSpec& spec, DurabilityManager* mgr,
              HardState* oracle) {
  Check(mgr->WriteCheckpoint(*oracle), "initial checkpoint");
  uint64_t seq = 0;
  int64_t next_key = spec.rows;
  uint64_t commits = 0;
  for (int t = 0; t < spec.txns; ++t) {
    const double send_time = 0.5 * (t + 1);
    for (int e = 0; e < spec.per_txn; ++e) {
      UpdateMessage msg = MakeMsg(++seq, send_time, next_key + 2 * e);
      Check(mgr->LogEnqueue(msg), "enqueue");
      oracle->sources["DB1"].last_update_seq = seq;
    }
    const uint64_t txn_id = oracle->next_txn_id++;
    Check(mgr->LogTxnBegin(txn_id, spec.per_txn), "begin");
    CommitPayload p;
    p.txn_id = txn_id;
    p.consumed = static_cast<uint64_t>(spec.per_txn);
    Delta d(SchemaOf("T(r1, s1)"));
    for (int e = 0; e < spec.per_txn; ++e) {
      Check(d.AddInsert(Tuple({next_key, next_key % 997})), "commit atom");
      ++next_key;
    }
    Check(ApplyDelta(&oracle->repos.at("T"), d), "oracle apply");
    p.node_deltas.emplace("T", std::move(d));
    p.reflect["DB1"] = send_time;
    oracle->sources["DB1"].last_reflected_send = send_time;
    Check(mgr->LogTxnCommit(p), "commit");
    if (++commits % spec.ckpt_every == 0) {
      Check(mgr->WriteCheckpoint(*oracle), "checkpoint");
    }
  }
}

struct ModeStats {
  double build_ms = 0;
  double recover_ms = 0;
  uint64_t records_logged = 0;
  uint64_t checkpoints_written = 0;
  uint64_t bytes_logged = 0;    // everything ever appended
  uint64_t retained_bytes = 0;  // surviving the dual-generation truncation
  uint64_t records_replayed = 0;
  uint64_t txns_replayed = 0;
  std::string recovered_encoding;  // for the cross-mode/oracle gate
};

ModeStats RunMode(const WorkloadSpec& spec, bool framing) {
  ModeStats m;
  // Build timing over fresh devices (a log can only be built once); the last
  // device is the one recovery is then measured against.
  std::vector<double> build_samples;
  MemLogDevice device;
  DurabilityOptions opts;
  opts.wal = true;
  opts.checkpoint_every = spec.ckpt_every;
  opts.framing = framing;
  for (int i = 0; i < kReps; ++i) {
    MemLogDevice fresh;
    opts.device = (i + 1 == kReps) ? &device : &fresh;
    DurabilityManager mgr(opts);
    HardState oracle = BaseState(spec);
    auto start = std::chrono::steady_clock::now();
    DriveLog(spec, &mgr, &oracle);
    auto end = std::chrono::steady_clock::now();
    build_samples.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    if (i + 1 == kReps) {
      m.records_logged = mgr.records_logged();
      m.checkpoints_written = mgr.checkpoints_written();
      m.bytes_logged = mgr.bytes_logged();
    }
  }
  m.build_ms = MedianMs(std::move(build_samples));
  m.retained_bytes = device.SizeBytes();

  // Recovery timing: each rep recovers through a fresh manager so the reps
  // are independent (Recover bumps the manager's log epoch, not the device).
  opts.device = &device;
  std::vector<double> recover_samples;
  for (int i = 0; i < kReps; ++i) {
    DurabilityManager mgr(opts);
    auto start = std::chrono::steady_clock::now();
    RecoveredState rec = Unwrap(mgr.Recover(), "recover");
    auto end = std::chrono::steady_clock::now();
    recover_samples.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    Check(rec.tail_records_dropped == 0 && rec.checkpoint_fallbacks == 0
              ? Status::OK()
              : Status::Internal("clean log reported anomalies"),
          "anomaly-free recovery");
    m.records_replayed = rec.records_replayed;
    m.txns_replayed = rec.txns_replayed;
    m.recovered_encoding = rec.state.Encode();
  }
  m.recover_ms = MedianMs(std::move(recover_samples));
  return m;
}

struct ScaleReport {
  WorkloadSpec spec;
  ModeStats framed;
  ModeStats unframed;
  double byte_overhead_pct = 0;      // appended bytes, framed vs unframed
  double retained_overhead_pct = 0;  // post-truncation log size
  double recover_slowdown = 0;       // framed / unframed recovery time
  bool exports_match = false;        // both modes == live oracle, byte-wise
};

ScaleReport RunScale(const WorkloadSpec& spec) {
  ScaleReport r;
  r.spec = spec;
  r.framed = RunMode(spec, /*framing=*/true);
  r.unframed = RunMode(spec, /*framing=*/false);
  r.byte_overhead_pct =
      100.0 * (static_cast<double>(r.framed.bytes_logged) -
               static_cast<double>(r.unframed.bytes_logged)) /
      static_cast<double>(r.unframed.bytes_logged);
  r.retained_overhead_pct =
      100.0 * (static_cast<double>(r.framed.retained_bytes) -
               static_cast<double>(r.unframed.retained_bytes)) /
      static_cast<double>(r.unframed.retained_bytes);
  r.recover_slowdown = r.framed.recover_ms / r.unframed.recover_ms;

  // The gate: the oracle state the workload maintained live, and both
  // recovered states, must be one and the same encoding.
  HardState oracle = BaseState(spec);
  {
    MemLogDevice scratch;
    DurabilityOptions opts;
    opts.device = &scratch;
    opts.checkpoint_every = spec.ckpt_every;
    DurabilityManager mgr(opts);
    DriveLog(spec, &mgr, &oracle);
  }
  const std::string expect = oracle.Encode();
  r.exports_match = r.framed.recovered_encoding == expect &&
                    r.unframed.recovered_encoding == expect;
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

std::string ModeJson(const ModeStats& m) {
  return "{\"build_ms\": " + Num(m.build_ms) +
         ", \"recover_ms\": " + Num(m.recover_ms) +
         ", \"records_logged\": " + std::to_string(m.records_logged) +
         ", \"checkpoints_written\": " +
         std::to_string(m.checkpoints_written) +
         ", \"bytes_logged\": " + std::to_string(m.bytes_logged) +
         ", \"retained_bytes\": " + std::to_string(m.retained_bytes) +
         ", \"records_replayed\": " + std::to_string(m.records_replayed) +
         ", \"txns_replayed\": " + std::to_string(m.txns_replayed) + "}";
}

std::string ReportJson(const std::vector<ScaleReport>& scales, bool smoke) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"e16_storage_integrity\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"reps\": " << kReps << ",\n  \"scales\": [\n";
  for (size_t i = 0; i < scales.size(); ++i) {
    const ScaleReport& r = scales[i];
    out << "    {\"rows\": " << r.spec.rows << ", \"txns\": " << r.spec.txns
        << ", \"per_txn\": " << r.spec.per_txn
        << ", \"ckpt_every\": " << r.spec.ckpt_every << ",\n"
        << "     \"framed\": " << ModeJson(r.framed) << ",\n"
        << "     \"unframed\": " << ModeJson(r.unframed) << ",\n"
        << "     \"byte_overhead_pct\": " << Num(r.byte_overhead_pct)
        << ", \"retained_overhead_pct\": " << Num(r.retained_overhead_pct)
        << ", \"recover_slowdown\": " << Num(r.recover_slowdown)
        << ", \"exports_match\": " << (r.exports_match ? "true" : "false")
        << "}" << (i + 1 < scales.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

/// Schema check for the emitted report; the SQUIRREL_BENCH_SMOKE ctest runs
/// this binary and relies on a non-zero exit when the report is malformed or
/// either mode's recovered state diverged from the live oracle.
bool Validate(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot reopen %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  for (const char* key :
       {"\"bench\": \"e16_storage_integrity\"", "\"scales\"", "\"framed\"",
        "\"unframed\"", "\"recover_ms\"", "\"bytes_logged\"",
        "\"retained_bytes\"", "\"byte_overhead_pct\"",
        "\"retained_overhead_pct\"", "\"recover_slowdown\"",
        "\"exports_match\""}) {
    if (json.find(key) == std::string::npos) {
      std::fprintf(stderr, "FAIL: report missing %s\n", key);
      return false;
    }
  }
  if (json.find("\"exports_match\": false") != std::string::npos) {
    std::fprintf(stderr,
                 "FAIL: a recovered state diverged from the live oracle "
                 "(exports_match false)\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_pr8.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }

  std::vector<WorkloadSpec> specs =
      smoke ? std::vector<WorkloadSpec>{{500, 30, 3, 16}}
            : std::vector<WorkloadSpec>{
                  {2000, 240, 3, 64}, {20000, 120, 3, 64}, {100000, 60, 3, 64}};

  std::vector<ScaleReport> scales;
  for (const WorkloadSpec& spec : specs) {
    ScaleReport r = RunScale(spec);
    std::fprintf(stderr,
                 "rows=%d txns=%d bytes=%llu/%llu (+%.2f%%) retained +%.2f%% "
                 "recover=%.2f/%.2fms (%.2fx) match=%s\n",
                 spec.rows, spec.txns,
                 static_cast<unsigned long long>(r.framed.bytes_logged),
                 static_cast<unsigned long long>(r.unframed.bytes_logged),
                 r.byte_overhead_pct, r.retained_overhead_pct,
                 r.framed.recover_ms, r.unframed.recover_ms,
                 r.recover_slowdown, r.exports_match ? "yes" : "NO");
    scales.push_back(std::move(r));
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << ReportJson(scales, smoke);
  out.close();
  return Validate(out_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace squirrel

int main(int argc, char** argv) { return squirrel::bench::Main(argc, argv); }
