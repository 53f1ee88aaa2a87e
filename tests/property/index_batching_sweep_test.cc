// Equivalence sweeps for update-queue delta batching.
//
// The coalescing window is a pure performance feature: it must never change
// what the mediator computes. These sweeps pin that down against the seeded
// fault simulator (whose runs always maintain the persistent repository
// indexes and check every export against from-scratch recomputation):
//
//   (1) Coalescing: merging same-source messages inside the batch window
//       must leave the final exports byte-identical to the uncoalesced run.
//       (Trace dumps are NOT compared across that pair: coalescing changes
//       per-txn message counts, which the dump's counters record.)
//   (2) Coalescing + durability + seeded crash/restart windows: recovery
//       replays kEnqueueCoalesced records, and the run must still satisfy
//       the harness's internal export/recompute and replay-identity checks
//       while matching the coalescing-off crash run's final exports.
//
// Seeds start at 1101 to stay clear of the fault sweep (1..200) and the
// crash sweep (501..600) so failures name a unique schedule.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "testing/sim_harness.h"

namespace squirrel {
namespace testing {
namespace {

constexpr uint64_t kBaseSeed = 1101;
constexpr uint64_t kSeeds = 12;

// The default workload spaces commits 3–5.5s apart, which the update loop
// drains between events; packing them 5x tighter makes same-source
// announcements actually meet in the queue so the window has work to do.
constexpr double kTightGaps = 0.2;

FaultSimOptions CoalesceOpts(Time coalesce_window) {
  FaultSimOptions opts;
  opts.coalesce_window = coalesce_window;
  opts.event_gap_scale = kTightGaps;
  return opts;
}

FaultSimOptions CrashOpts(Time coalesce_window) {
  FaultSimOptions opts;
  opts.durability = true;
  opts.mediator_crashes = 2;
  opts.coalesce_window = coalesce_window;
  opts.event_gap_scale = kTightGaps;
  return opts;
}

TEST(IndexBatchingSweep, CoalescingPreservesFinalExports) {
  uint64_t coalesced_total = 0;
  for (uint64_t seed = kBaseSeed; seed < kBaseSeed + kSeeds; ++seed) {
    auto batched = RunFaultSim(seed, CoalesceOpts(/*coalesce_window=*/2.0));
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    auto plain = RunFaultSim(seed, CoalesceOpts(/*coalesce_window=*/0.0));
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    EXPECT_EQ(batched->final_exports, plain->final_exports)
        << "seed " << seed;
    coalesced_total += batched->coalesced_msgs;
  }
  // The window must actually merge messages somewhere in the sweep, or the
  // equivalence above is vacuous.
  EXPECT_GT(coalesced_total, 0u);
}

TEST(IndexBatchingSweep, CoalescingSurvivesCrashRecovery) {
  uint64_t coalesced_total = 0;
  uint64_t crashes_seen = 0;
  for (uint64_t seed = kBaseSeed; seed < kBaseSeed + kSeeds; ++seed) {
    // RunFaultSim itself asserts exports == from-scratch recomputation and
    // that a same-seed replay reproduces the trace dump byte for byte, so a
    // successful run already covers kEnqueueCoalesced WAL replay.
    auto batched = RunFaultSim(seed, CrashOpts(/*coalesce_window=*/2.0));
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    auto plain = RunFaultSim(seed, CrashOpts(/*coalesce_window=*/0.0));
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    EXPECT_EQ(batched->final_exports, plain->final_exports)
        << "seed " << seed;
    EXPECT_EQ(batched->mediator_crashes, batched->recoveries)
        << "seed " << seed;
    coalesced_total += batched->coalesced_msgs;
    crashes_seen += batched->mediator_crashes;
  }
  EXPECT_GT(coalesced_total, 0u);
  EXPECT_GT(crashes_seen, 0u);
}

// Regression sweep for the epoch-boundary coalescing hole: with commits
// packed tightly AND sources restarting mid-run, a restarted source's first
// new-epoch announcement lands in the window of its own pre-restart tail.
// Merging them used to stamp old atoms with the new epoch, so the per-epoch
// dedup floor dropped the whole batch and exports silently lost updates.
// The run must still match the coalescing-off baseline's final exports and
// end with every source healthy.
TEST(IndexBatchingSweep, CoalescingRefusesEpochBoundariesUnderRestarts) {
  uint64_t coalesced_total = 0;
  uint64_t restarts_seen = 0;
  auto with_restarts = [](Time coalesce_window) {
    FaultSimOptions opts;
    opts.durability = true;
    opts.coalesce_window = coalesce_window;
    opts.event_gap_scale = kTightGaps;
    opts.source_restarts = 2;
    opts.require_all_healthy = true;
    return opts;
  };
  for (uint64_t seed = kBaseSeed; seed < kBaseSeed + kSeeds; ++seed) {
    auto batched = RunFaultSim(seed, with_restarts(/*coalesce_window=*/2.0));
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    auto plain = RunFaultSim(seed, with_restarts(/*coalesce_window=*/0.0));
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    EXPECT_EQ(batched->final_exports, plain->final_exports)
        << "seed " << seed;
    coalesced_total += batched->coalesced_msgs;
    restarts_seen += batched->source_restarts;
  }
  // Vacuity guards: the sweep must exercise both merges and restarts.
  EXPECT_GT(coalesced_total, 0u);
  EXPECT_GT(restarts_seen, 0u);
}

}  // namespace
}  // namespace testing
}  // namespace squirrel
