// Experiment E3 (Example 2.3): hybrid views and key-based construction.
//
// Claims reproduced:
//  - queries touching only the materialized attributes {r1, s1} are not
//    affected by r3/s2 being virtual (no polls, local-store latency);
//  - queries touching virtual attributes construct a temporary relation;
//  - the KEY-BASED construction (π_{r1,s1}T ⋈_{r1} R') beats the child-
//    based one when the sibling S' is fully virtual, because it avoids
//    polling DB2 entirely;
//  - for a point query π_{r1,r3,s2}σ_{r1=k}T the key-based construction
//    π_{r1,s1}σ_{r1=k}T ⋈_{r1} R' ⋈_{s1} S' polls each source only for the
//    keys of the selected T row, where the child-based one ships S' whole.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.h"

namespace squirrel {
namespace bench {
namespace {

Fig1System MakeHybrid(VapStrategy strategy, int rows, int s_rows = 64) {
  Vdp vdp = Unwrap(BuildFigure1Vdp(), "vdp");
  MediatorOptions options;
  options.strategy = strategy;
  Fig1System sys = MakeFig1System(AnnotationExample23(vdp), options);
  sys.Seed(rows, s_rows);
  Check(sys.mediator->Start(), "start");
  Drain(sys.scheduler.get());
  return sys;
}

double RunQuery(Fig1System* sys, const ViewQuery& q, uint64_t* polls,
                uint64_t* tuples) {
  auto begin = std::chrono::steady_clock::now();
  sys->mediator->SubmitQuery(q, [&](Result<ViewAnswer> ans) {
    Check(ans.status(), "query");
    *polls += ans->polls;
  });
  uint64_t before = sys->mediator->stats().polled_tuples;
  Drain(sys->scheduler.get());
  *tuples += sys->mediator->stats().polled_tuples - before;
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
             .count() /
         1e6;
}

void E3ClaimTable() {
  const int rows = 4000;
  const int kQueries = 20;
  Table table({"query", "strategy", "polls/query", "tuples_moved/query",
               "wall_ms/query"});
  struct Case {
    const char* label;
    ViewQuery query;
    VapStrategy strategy;
    const char* strategy_name;
    bool point = false;  ///< select r1 = k, k cycling over R' keys
  };
  ViewQuery mat_query{"T", {"r1", "s1"}, nullptr};
  ViewQuery virt_query{
      "T",
      {"r3", "s1"},
      Unwrap(ParsePredicate("r3 < 100"), "pred")};
  ViewQuery point_query{"T", {"r1", "r3", "s2"}, nullptr};
  std::vector<Case> cases = {
      {"pi[r1,s1](T)  (materialized)", mat_query, VapStrategy::kChildBased,
       "n/a"},
      {"pi[r3,s1](sel[r3<100](T))", virt_query, VapStrategy::kChildBased,
       "child-based"},
      {"pi[r3,s1](sel[r3<100](T))", virt_query, VapStrategy::kKeyBased,
       "key-based"},
      {"pi[r3,s1](sel[r3<100](T))", virt_query, VapStrategy::kAuto, "auto"},
      {"pi[r1,r3,s2](sel[r1=k](T))", point_query, VapStrategy::kChildBased,
       "child-based", true},
      {"pi[r1,r3,s2](sel[r1=k](T))", point_query, VapStrategy::kKeyBased,
       "key-based", true},
      {"pi[r1,r3,s2](sel[r1=k](T))", point_query, VapStrategy::kAuto, "auto",
       true},
  };
  // A large S makes the contrast visible: the child-based construction must
  // ship all of S' from DB2, the key-based one skips DB2 entirely.
  for (const auto& c : cases) {
    Fig1System sys = MakeHybrid(c.strategy, rows, /*s_rows=*/3000);
    uint64_t polls = 0, tuples = 0;
    double total_ms = 0;
    for (int i = 0; i < kQueries; ++i) {
      ViewQuery q = c.query;
      if (c.point) {
        // live_r holds the R rows that pass R' (r4 = 100).
        const Tuple& r = sys.live_r[(static_cast<size_t>(i) * 97) %
                                    sys.live_r.size()];
        q.cond = Expr::Eq(Expr::Attr("r1"), Expr::Const(r.at(0)));
      }
      total_ms += RunQuery(&sys, q, &polls, &tuples);
    }
    table.AddRow({c.label, c.strategy_name,
                  Table::Num(double(polls) / kQueries, 2),
                  Table::Num(double(tuples) / kQueries, 1),
                  Table::Num(total_ms / kQueries, 3)});
  }
  table.Print(
      "E3 (Example 2.3): hybrid T[r1^m,r3^v,s1^m,s2^v] — materialized-attr "
      "queries stay local; key-based temp construction avoids polling the "
      "virtual sibling S', and polls each child by key for a point query");
}

void BM_E3_MaterializedAttrQuery(benchmark::State& state) {
  Fig1System sys = MakeHybrid(VapStrategy::kAuto,
                              static_cast<int>(state.range(0)));
  ViewQuery q{"T", {"r1", "s1"}, nullptr};
  for (auto _ : state) {
    sys.mediator->SubmitQuery(q, [](Result<ViewAnswer> ans) {
      Check(ans.status(), "query");
    });
    Drain(sys.scheduler.get());
  }
  state.counters["polls"] = static_cast<double>(sys.mediator->stats().polls);
}
BENCHMARK(BM_E3_MaterializedAttrQuery)->Arg(1000)->Arg(10000);

void BM_E3_VirtualAttrQuery(benchmark::State& state) {
  VapStrategy strategy =
      state.range(1) == 0 ? VapStrategy::kChildBased : VapStrategy::kKeyBased;
  Fig1System sys = MakeHybrid(strategy, static_cast<int>(state.range(0)));
  ViewQuery q{"T", {"r3", "s1"},
              Unwrap(ParsePredicate("r3 < 100"), "pred")};
  for (auto _ : state) {
    sys.mediator->SubmitQuery(q, [](Result<ViewAnswer> ans) {
      Check(ans.status(), "query");
    });
    Drain(sys.scheduler.get());
  }
  state.SetLabel(state.range(1) == 0 ? "child_based" : "key_based");
}
BENCHMARK(BM_E3_VirtualAttrQuery)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

}  // namespace
}  // namespace bench
}  // namespace squirrel

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  squirrel::bench::E3ClaimTable();
  return 0;
}
