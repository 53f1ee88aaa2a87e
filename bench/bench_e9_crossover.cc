// Experiment E9 (§1's motivating claim): the virtual/materialized spectrum.
//
// "Speaking broadly, the virtual approach may be better if the information
// sources are changing frequently, whereas the materialized approach may be
// better if the information sources change infrequently and very fast query
// response time is needed."
//
// The sweep varies the update:query mix and compares four annotations of
// the same Figure 1 scenario, each run by the one Squirrel mediator:
//   virtual      — every node virtual: no local state, every query
//                  decomposes to the sources (§1's virtual approach);
//   warehouse    — [ZGHW95]: export materialized, no auxiliary data;
//   materialized — fully materialized support (Example 2.1);
//   hybrid       — Example 2.3.
// Reported: source polls, tuples shipped, mean query latency in *virtual*
// time (network delays included), and total maintenance work. Expected
// shape: virtual wins on maintenance as updates dominate; materialized wins
// on query latency; the crossover moves with the mix.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.h"
#include "vdp/annotation.h"

namespace squirrel {
namespace bench {
namespace {

struct MixResult {
  uint64_t polls = 0;
  uint64_t tuples = 0;
  double mean_query_latency = 0;  // virtual time
  double wall_ms = 0;
};

constexpr int kBaseRows = 1500;
constexpr int kSRows = 64;
constexpr Time kComm = 0.5;
constexpr Time kQProc = 0.2;

/// Runs `updates` + `queries` interleaved round-robin on a Squirrel
/// mediator with the given annotation.
MixResult RunSquirrel(const Annotation& ann, int updates, int queries) {
  MediatorOptions options;
  options.q_proc_delay = 0.05;
  Fig1System sys = MakeFig1System(ann, options, kComm, kQProc);
  sys.Seed(kBaseRows, kSRows);
  Check(sys.mediator->Start(), "start");
  Drain(sys.scheduler.get());

  auto begin = std::chrono::steady_clock::now();
  double latency_sum = 0;
  int answered = 0;
  Time now = 10.0;
  int total = updates + queries;
  for (int i = 0; i < total; ++i) {
    // Interleave proportionally.
    bool do_update = (int64_t)i * updates / total <
                     (int64_t)(i + 1) * updates / total;
    if (do_update) {
      sys.InsertR(now);
    } else {
      Time submitted = now;
      sys.scheduler->At(now, [&sys, submitted, &latency_sum, &answered]() {
        sys.mediator->SubmitQuery(
            ViewQuery{"T", {"r1", "s1"}, nullptr},
            [submitted, &latency_sum, &answered](Result<ViewAnswer> ans) {
              Check(ans.status(), "query");
              latency_sum += ans->commit_time - submitted;
              ++answered;
            });
      });
    }
    now += 8.0;
    Drain(sys.scheduler.get());
  }
  auto end = std::chrono::steady_clock::now();

  MixResult out;
  out.polls = sys.mediator->stats().polls;
  out.tuples = sys.mediator->stats().polled_tuples;
  out.mean_query_latency = answered ? latency_sum / answered : 0;
  out.wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
          .count() /
      1000.0;
  return out;
}

void E9Table() {
  Vdp vdp = Unwrap(BuildFigure1Vdp(), "vdp");
  Table table({"mix (upd:qry)", "strategy", "polls", "tuples_shipped",
               "mean_q_latency", "wall_ms"});
  struct Mix {
    const char* label;
    int updates, queries;
  };
  for (const Mix& mix : {Mix{"90:10", 90, 10}, Mix{"50:50", 50, 50},
                         Mix{"10:90", 10, 90}}) {
    MixResult v = RunSquirrel(FullyVirtualAnnotation(vdp), mix.updates,
                              mix.queries);
    table.AddRow({mix.label, "virtual", Table::Int(v.polls),
                  Table::Int(v.tuples), Table::Num(v.mean_query_latency, 2),
                  Table::Num(v.wall_ms, 1)});
    MixResult w = RunSquirrel(WarehouseAnnotation(vdp), mix.updates,
                              mix.queries);
    table.AddRow({mix.label, "warehouse (ZGHW95)", Table::Int(w.polls),
                  Table::Int(w.tuples), Table::Num(w.mean_query_latency, 2),
                  Table::Num(w.wall_ms, 1)});
    MixResult m = RunSquirrel(AnnotationExample21(), mix.updates,
                              mix.queries);
    table.AddRow({mix.label, "fully materialized", Table::Int(m.polls),
                  Table::Int(m.tuples), Table::Num(m.mean_query_latency, 2),
                  Table::Num(m.wall_ms, 1)});
    MixResult h = RunSquirrel(AnnotationExample23(vdp), mix.updates,
                              mix.queries);
    table.AddRow({mix.label, "hybrid (Ex 2.3)", Table::Int(h.polls),
                  Table::Int(h.tuples), Table::Num(h.mean_query_latency, 2),
                  Table::Num(h.wall_ms, 1)});
  }
  table.Print(
      "E9 (paper §1): the virtual/materialized spectrum — materialized "
      "support gives constant-latency queries but pays per update; the "
      "virtual approach is free under updates but ships data per query; "
      "the warehouse and hybrid points sit between");
}

}  // namespace
}  // namespace bench
}  // namespace squirrel

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  squirrel::bench::E9Table();
  return 0;
}
