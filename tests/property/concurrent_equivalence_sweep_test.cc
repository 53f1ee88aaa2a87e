// The MVCC acceptance sweep: seeded schedules proving snapshot reads
// equivalent to serialized queries under the full fault model.
//
// Snapshot reads legitimately reschedule queries, so traces cannot be
// compared with the serialized run; each seed instead demands replay
// identity plus final exports byte-identical to the serialized baseline.
// Every assertion names the seed; reproduce one with
//   RunFaultSim(<seed>, <the chunk's options>)
// (see DESIGN.md §11 "Concurrency model").

#include <gtest/gtest.h>

#include <string>

#include "testing/sim_harness.h"

namespace squirrel {
namespace {

using testing::FaultSimOptions;
using testing::RunFaultSim;

constexpr uint64_t kSeedsPerChunk = 25;

// Per-chunk fault-model layers the MVCC run rides on.
struct Scenario {
  bool durability = false;
  int mediator_crashes = 0;
};

Scenario ChunkScenario(int chunk) {
  if (chunk == 4) return {};  // baseline faults
  // Crashes: the snapshot chain must survive recovery.
  return {.durability = true, .mediator_crashes = 2};
}

FaultSimOptions BaselineOptions(const Scenario& s) {
  FaultSimOptions opts;
  opts.durability = s.durability;
  opts.mediator_crashes = s.mediator_crashes;
  return opts;
}

FaultSimOptions ConcurrentOptions(const Scenario& s) {
  FaultSimOptions opts = BaselineOptions(s);
  opts.mvcc_reads = true;
  return opts;
}

class ConcurrentEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentEquivalenceSweep, ConcurrentRunsMatchSerialOracle) {
  const int chunk = GetParam();
  const Scenario scenario = ChunkScenario(chunk);
  const uint64_t base = 1 + static_cast<uint64_t>(chunk % 2) * kSeedsPerChunk;
  for (uint64_t seed = base; seed < base + kSeedsPerChunk; ++seed) {
    auto oracle = RunFaultSim(seed, BaselineOptions(scenario));
    ASSERT_TRUE(oracle.ok())
        << "[seed " << seed << "] oracle: " << oracle.status().ToString();
    auto run = RunFaultSim(seed, ConcurrentOptions(scenario));
    ASSERT_TRUE(run.ok())
        << "[seed " << seed << "] concurrent: " << run.status().ToString();
    EXPECT_GT(run->exports_checked, 0u) << "[seed " << seed << "]";

    // Update outcomes must be indistinguishable from the serialized run.
    ASSERT_EQ(run->final_exports, oracle->final_exports)
        << "[seed " << seed << "] chunk " << chunk
        << ": final exports diverged from the serialized-query oracle";

    // And the concurrent run itself must be deterministic under replay.
    auto replay = RunFaultSim(seed, ConcurrentOptions(scenario));
    ASSERT_TRUE(replay.ok())
        << "[seed " << seed << "] replay: " << replay.status().ToString();
    ASSERT_EQ(run->trace_dump, replay->trace_dump)
        << "[seed " << seed << "] chunk " << chunk
        << ": replay was not byte-identical";
  }
}

// A chunk number picks the scenario and the seed range (base above) and
// names the test: 2 * 25 = 50 seeds.
INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentEquivalenceSweep,
                         ::testing::Values(4, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "chunk" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace squirrel
