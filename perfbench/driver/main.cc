// fig1_bench: one workload of the standing Figure 1 benchmark per process.
//
//   fig1_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--smoke] [--spans <file>]
//
// --trace 0 measures the end-to-end metrics on the deployment, over a
// fixed number of rounds (a fresh deployment driven through the whole
// fixed-length stream) that takes about --seconds on the reference VM.
// --trace 1 replays the same stream through the mediator's component
// classes, round after round until --seconds have passed, and reports the
// per-layer metrics. Both print every metric with its unit; the last line
// of stdout is the result object. Exits non-zero when a correctness gate
// fails.

#include <algorithm>
#include <cstdint>
#include <utility>

#include "driver/bench.h"
#include "driver/replay.h"
#include "driver/report.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string spans_path;
};

[[noreturn]] void Usage(const std::string& why) {
  std::string names;
  for (const std::string& n : WorkloadNames()) names += " " + n;
  Die(why + "\nusage: fig1_bench --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1> [--smoke] [--spans <file>]\nworkloads:" + names);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else if (flag == "--spans") {
        a.spans_path = v;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  return a;
}

std::string JsonString(const std::string& s) { return "\"" + s + "\""; }

// Each op class's share of the timed ops, as a JSON object.
std::string OpShareJson(const std::array<uint64_t, kOpKinds>& ops) {
  uint64_t total = 0;
  for (uint64_t n : ops) total += n;
  std::string out = "{";
  for (int k = 0; k < kOpKinds; ++k) {
    if (k > 0) out += ", ";
    out += JsonString(OpKindName(static_cast<OpKind>(k))) + ": " +
           JsonNumber(total == 0 ? 0 : static_cast<double>(ops[k]) / total);
  }
  return out + "}";
}

// Percentiles reported per workload, with the samples they are read from.
struct Pct {
  const char* name;
  const std::vector<double>* samples;
  double p;
};

// Per-op samples of a run, each op's fastest time over the rounds, split
// by op class.
struct Samples {
  std::vector<double> update_ms;             // commits without checkpoint
  std::vector<double> checkpoint_update_ms;  // commits that checkpointed
  std::vector<double> point_ms, scan_ms;
};

std::vector<Pct> Percentiles(const Samples& s) {
  return {{"update_ms_p50", &s.update_ms, 50},
          {"update_ms_p90", &s.update_ms, 90},
          {"checkpoint_update_ms_p50", &s.checkpoint_update_ms, 50},
          {"point_query_ms_p50", &s.point_ms, 50},
          {"point_query_ms_p90", &s.point_ms, 90},
          {"scan_query_ms_p50", &s.scan_ms, 50},
          {"scan_query_ms_p90", &s.scan_ms, 90}};
}

// Element-wise minimum of \p from into \p into (empty: a copy).
void KeepFastest(std::vector<double>* into, const std::vector<double>& from) {
  if (into->empty()) {
    *into = from;
    return;
  }
  for (size_t i = 0; i < into->size(); ++i) (*into)[i] = std::min((*into)[i], from[i]);
}

int RunEndToEnd(const Args& args, const WorkloadSpec& spec,
                const Stream& stream) {
  // Every round drives a fresh deployment through the same stream, so op i
  // does the same work in every round. Its wall times come scaled to
  // reference host speed (host_speed.h); each op's fastest scaled time over
  // the rounds is the one that interference the probe misses hit least, and
  // the percentiles are read from those.
  const int rounds = RoundsFor(spec, args.seconds);
  // setup_s is the median of at least ten fresh set-ups: the round's own
  // and extra ones before it.
  const int extra_setups = std::max(1, (10 + rounds - 1) / rounds - 1);
  HostSpeed host;
  std::vector<double> setups;
  std::vector<std::pair<double, double>> extra_setups_at_s;  // raw, scaled last
  std::vector<double> best_op_ms, recoveries;
  std::vector<std::string> failures;
  RoundResult first;
  uint64_t attempted = 0, ops_ok = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int k = 0; k < extra_setups; ++k) {
      double at = 0;
      const double s = TimeSetup(spec, stream, &at);
      extra_setups_at_s.emplace_back(at, s);
    }
    DeployedRun run(spec, stream, &host);
    for (size_t i = 0; i < stream.ops.size(); ++i) run.Step(i);
    RoundResult r = run.Finish();
    const std::string tag = "round " + std::to_string(round);
    for (const std::string& f : r.gate_failures) failures.push_back(tag + ": " + f);
    // Same seed, same stream: every count must repeat exactly.
    if (round > 0 &&
        (!(r.counts == first.counts) || r.final_export != first.final_export ||
         r.freshness_lag_max != first.freshness_lag_max ||
         r.checkpointed != first.checkpointed)) {
      failures.push_back(tag + " is not deterministic: " + r.counts.ToString() +
                         " vs " + first.counts.ToString());
    }
    setups.push_back(r.setup_s);
    KeepFastest(&best_op_ms, r.op_ms);
    recoveries.insert(recoveries.end(), r.recovery_s.begin(), r.recovery_s.end());
    for (uint64_t n : r.timed_ops) attempted += n;
    ops_ok += r.ops_ok;
    if (round == 0) first = std::move(r);
  }

  for (const auto& [at, raw_s] : extra_setups_at_s) {
    setups.push_back(raw_s * host.ScaleAt(at));
  }

  Samples s;
  double best_wall_s = 0;
  for (size_t j = 0; j < best_op_ms.size(); ++j) {
    const double ms = best_op_ms[j];
    best_wall_s += ms / 1e3;
    switch (stream.ops[stream.warmup + j].kind) {
      case OpKind::kPoint: s.point_ms.push_back(ms); break;
      case OpKind::kScan: s.scan_ms.push_back(ms); break;
      default:
        (first.checkpointed[j] ? s.checkpoint_update_ms : s.update_ms).push_back(ms);
    }
  }

  Report rep;
  rep.Add("setup_s", Median(setups), "s");
  rep.Add("ops_per_s", static_cast<double>(best_op_ms.size()) / best_wall_s, "1/s");
  for (const Pct& pct : Percentiles(s)) {
    rep.Add(pct.name, Percentile(*pct.samples, pct.p), "ms");
  }
  rep.Add("recovery_s", Median(recoveries), "s");
  rep.Add("freshness_lag_vt_max", first.freshness_lag_max, "vt");
  rep.Add("polled_rows_per_op",
          static_cast<double>(first.source_rows_read) /
              static_cast<double>(stream.ops.size()),
          "rows/op");
  rep.Add("wal_bytes_per_atom",
          static_cast<double>(first.timed_wal_bytes) /
              static_cast<double>(first.timed_updates),
          "B/atom");
  rep.Add("peak_rss_mb", PeakRssMb(), "MB");
  rep.Add("ok_op_ratio", static_cast<double>(ops_ok) / attempted, "ratio");

  // Sample and mode report: every percentile above needs 10 samples beyond.
  std::string beyond = "{";
  for (const Pct& pct : Percentiles(s)) {
    if (beyond.size() > 1) beyond += ", ";
    beyond += JsonString(pct.name) + ": " +
              std::to_string(SamplesBeyond(pct.samples->size(), pct.p));
  }
  beyond += "}";
  const double ckpt_share =
      static_cast<double>(s.checkpoint_update_ms.size()) /
      static_cast<double>(s.update_ms.size() + s.checkpoint_update_ms.size());
  rep.Note("workload " + spec.name + " seed " + std::to_string(args.seed) +
           " rounds " + std::to_string(rounds) + " ops/round " +
           std::to_string(stream.ops.size()) + " (untimed warm-up " +
           std::to_string(stream.warmup) + ")");
  rep.Note("samples (each op's fastest of " + std::to_string(rounds) +
           " rounds) update " + std::to_string(s.update_ms.size()) +
           " checkpoint_update " + std::to_string(s.checkpoint_update_ms.size()) +
           " point_query " + std::to_string(s.point_ms.size()) + " scan_query " +
           std::to_string(s.scan_ms.size()) + " checkpoint_share_of_updates " +
           JsonNumber(ckpt_share));
  rep.Note("counts " + first.counts.ToString());
  const std::vector<double>& probes = host.probes_ms();
  rep.Note("host probe: median " + JsonNumber(Median(probes)) + " ms, range " +
           JsonNumber(Percentile(probes, 0)) + " to " +
           JsonNumber(Percentile(probes, 100)) + " ms over " +
           std::to_string(probes.size()) + " probes; wall times are scaled to " +
           JsonNumber(kReferenceProbeMs) + " ms");
  rep.Extra("workload", JsonString(spec.name));
  rep.Extra("seed", std::to_string(args.seed));
  rep.Extra("rounds", std::to_string(rounds));
  rep.Extra("probe_ms_median", JsonNumber(Median(probes)));
  rep.Extra("samples",
            "{\"update\": " + std::to_string(s.update_ms.size()) +
                ", \"checkpoint_update\": " +
                std::to_string(s.checkpoint_update_ms.size()) +
                ", \"point_query\": " + std::to_string(s.point_ms.size()) +
                ", \"scan_query\": " + std::to_string(s.scan_ms.size()) + "}");
  rep.Extra("samples_beyond", beyond);
  rep.Extra("checkpoint_share", JsonNumber(ckpt_share));
  rep.Extra("op_share", OpShareJson(first.timed_ops));
  rep.Extra("seeded", "{\"R\": " + std::to_string(stream.r_seed.size()) +
                          ", \"S\": " + std::to_string(stream.s_seed.size()) +
                          "}");
  rep.Extra("final", "{\"R\": " + std::to_string(first.final_r) +
                         ", \"S\": " + std::to_string(first.final_s) + "}");
  for (const std::string& f : failures) rep.Note("GATE FAILED " + f);
  rep.Print(failures.empty(), attempted, attempted - ops_ok);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload, args.smoke);
  if (spec == nullptr) Usage("unknown workload " + args.workload);
  // The whole input is generated before anything is timed; the deployment
  // sees only the generated commits and queries.
  Stream stream = GenerateStream(*spec, args.seed);
  if (args.trace == 0) return RunEndToEnd(args, *spec, stream);
  return RunLayers(*spec, stream, args.seconds, args.seed, args.spans_path);
}
