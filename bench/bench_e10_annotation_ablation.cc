// Experiment E10 (§5.3 heuristics): annotation ablation on the Figure 4
// VDP.
//
// The paper gives trade-off guidance rather than hard rules; this ablation
// measures the actual space / update-cost / query-cost of each annotation
// choice for Example 5.1, including the suggestion produced by
// SuggestAnnotation (the implemented §5.3 heuristics).

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.h"
#include "vdp/annotation.h"
#include "vdp/planner.h"

namespace squirrel {
namespace bench {
namespace {

struct AblationResult {
  size_t store_bytes = 0;
  uint64_t update_polls = 0;
  uint64_t update_tuples = 0;
  double update_wall_ms = 0;
  double query_mat_ms = 0;
  double query_virt_ms = 0;
  uint64_t query_polls = 0;
};

AblationResult RunConfig(const Annotation& ann) {
  Fig4System sys = MakeFig4System(ann, MediatorOptions{});
  sys.Seed(48);
  Check(sys.mediator->Start(), "start");
  Drain(sys.scheduler.get());

  AblationResult out;
  auto upd_begin = std::chrono::steady_clock::now();
  Time now = 1.0;
  for (int i = 0; i < 32; ++i) {
    sys.Insert(i % 4, now);
    Drain(sys.scheduler.get());
    now += 1.0;
  }
  auto upd_end = std::chrono::steady_clock::now();
  out.update_wall_ms = std::chrono::duration_cast<std::chrono::microseconds>(
                           upd_end - upd_begin)
                           .count() /
                       1000.0;
  out.update_polls = sys.mediator->stats().polls;
  out.update_tuples = sys.mediator->stats().polled_tuples;
  out.store_bytes = sys.mediator->StoreBytes();

  auto timed_query = [&](const ViewQuery& q) {
    auto begin = std::chrono::steady_clock::now();
    sys.mediator->SubmitQuery(q, [&](Result<ViewAnswer> ans) {
      Check(ans.status(), "query");
      out.query_polls += ans->polls;
    });
    Drain(sys.scheduler.get());
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
               .count() /
           1e6;
  };
  out.query_mat_ms = timed_query(ViewQuery{"G", {}, nullptr});
  out.query_virt_ms = timed_query(ViewQuery{"E", {}, nullptr});
  return out;
}

void E10Table() {
  Vdp vdp = Unwrap(BuildFigure4Vdp(), "vdp");
  struct Config {
    std::string label;
    Annotation ann;
  };
  std::vector<Config> configs;
  configs.push_back({"all materialized", Annotation::AllMaterialized()});
  configs.push_back({"Example 5.1 (B',F virtual; E hybrid)",
                     AnnotationExample51(vdp)});
  configs.push_back({"warehouse (exports only)", WarehouseAnnotation(vdp)});
  {
    // The §5.3 heuristics applied automatically.
    AnnotationHints hints;
    hints.source_update_freq = {{"DBA", 0.1}, {"DBB", 5.0},
                                {"DBC", 0.1}, {"DBD", 0.1}};
    hints.hot_attrs["E"] = {"a1", "b1"};
    configs.push_back({"SuggestAnnotation(B hot)",
                       SuggestAnnotation(vdp, hints)});
  }

  Table table({"annotation", "store_KiB", "upd_polls", "upd_tuples",
               "upd_wall_ms", "qG_ms", "qE_ms", "q_polls"});
  for (auto& cfg : configs) {
    AblationResult r = RunConfig(cfg.ann);
    table.AddRow({cfg.label, Table::Num(r.store_bytes / 1024.0, 1),
                  Table::Int(r.update_polls), Table::Int(r.update_tuples),
                  Table::Num(r.update_wall_ms, 2),
                  Table::Num(r.query_mat_ms, 3),
                  Table::Num(r.query_virt_ms, 3),
                  Table::Int(r.query_polls)});
  }
  table.Print(
      "E10 (§5.3 ablation, Figure 4 VDP): space vs maintenance vs query "
      "cost across annotations (paper claim: the suggested hybrid trades a "
      "modest poll cost for a much smaller store than full "
      "materialization, while keeping export queries local)");
}

/// §5.3: "if no index can be used, a fully virtual join relation is very
/// expensive to compute" — evaluate E virtually vs reading it materialized.
void BM_E10_VirtualVsMaterializedE(benchmark::State& state) {
  Vdp vdp = Unwrap(BuildFigure4Vdp(), "vdp");
  Annotation ann = state.range(0) == 0 ? Annotation::AllMaterialized()
                                       : FullyVirtualAnnotation(vdp);
  Fig4System sys = MakeFig4System(ann, MediatorOptions{});
  sys.Seed(static_cast<int>(state.range(1)));
  Check(sys.mediator->Start(), "start");
  Drain(sys.scheduler.get());
  for (auto _ : state) {
    sys.mediator->SubmitQuery(ViewQuery{"E", {}, nullptr},
                              [](Result<ViewAnswer> ans) {
                                Check(ans.status(), "query");
                              });
    Drain(sys.scheduler.get());
  }
  state.SetLabel(state.range(0) == 0 ? "materialized" : "fully_virtual");
}
BENCHMARK(BM_E10_VirtualVsMaterializedE)
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 128})
    ->Args({1, 128});

}  // namespace
}  // namespace bench
}  // namespace squirrel

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  squirrel::bench::E10Table();
  return 0;
}
