// Shared declarations of the standing Figure 1 benchmark driver.
//
// The driver deploys the paper's Figure 1 system (sources DB1.R and DB2.S,
// export T = R' ⋈ S') through the public SourceDb / Scheduler / Mediator
// API and drives a seeded, stationary, closed-loop op stream against it.
// See perfbench/README.md for the workloads and every metric's definition.

#ifndef PERFBENCH_DRIVER_BENCH_H_
#define PERFBENCH_DRIVER_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "driver/host_speed.h"
#include "mediator/durability/log_device.h"
#include "mediator/mediator.h"
#include "relational/tuple.h"
#include "sim/scheduler.h"
#include "source/source_db.h"
#include "vdp/annotation.h"
#include "vdp/vdp.h"

namespace perfbench {

using squirrel::Result;
using squirrel::Status;
using squirrel::Time;
using squirrel::Tuple;

/// Prints \p what and exits non-zero: a benchmark that hit an error has no
/// result to report.
[[noreturn]] void Die(const std::string& what);

inline void Check(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// Wall-clock seconds from a monotonic clock.
inline double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One benchmark workload: an annotation of Figure 1 at a fixed size.
struct WorkloadSpec {
  std::string name;
  bool hybrid = false;  ///< Example 2.3 annotation; false = Example 2.1
  int r_rows = 0;       ///< seeded |R|
  int s_rows = 0;       ///< seeded |S|
  int warmup_blocks = 0;  ///< untimed 100-op blocks at the stream's head
  int timed_blocks = 0;   ///< timed 100-op blocks after the warm-up
  /// Wall seconds of one round on the reference machine (README). It turns
  /// --seconds into a fixed round count, so how many rounds a run makes
  /// never depends on how fast the host happens to be.
  double nominal_round_s = 1;
};

/// Rounds a run of \p seconds makes: at least one.
int RoundsFor(const WorkloadSpec& spec, double seconds);

/// Every workload, at full scale (\p smoke = false) or at the self-test's
/// smoke scale. Returns nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name, bool smoke);
std::vector<std::string> WorkloadNames();

enum class OpKind { kInsertR, kDeleteR, kInsertS, kDeleteS, kPoint, kScan };
constexpr int kOpKinds = 6;
const char* OpKindName(OpKind kind);
inline bool IsUpdate(OpKind k) {
  return k != OpKind::kPoint && k != OpKind::kScan;
}

/// One generated operation. Updates carry the single atom they commit;
/// queries carry their r1 predicate (point: r1 = lo; scan: lo <= r1 < hi).
struct Op {
  OpKind kind = OpKind::kPoint;
  Tuple tuple;
  int64_t lo = 0;
  int64_t hi = 0;
};

/// The whole input of one run, generated from the seed before timing.
struct Stream {
  std::vector<Tuple> r_seed, s_seed;
  std::vector<Op> ops;   ///< warm-up ops first, then the timed ops
  size_t warmup = 0;     ///< number of leading untimed ops
  /// Committed, untimed, before each timed Crash() + Recover() cycle:
  /// insert/delete pairs of fresh R' rows, fewer than a checkpoint period,
  /// so each cycle replays exactly these commits and leaves the sources and
  /// T as it found them.
  std::vector<Op> recovery_ops;
};

/// Generates the seeded rows and the op stream (see stream.cc).
Stream GenerateStream(const WorkloadSpec& spec, uint64_t seed);

/// Virtual time of op \p i: ops are spaced 3 vt apart, more than the
/// 1.7 vt hybrid update round trip, so each update commits on its own.
inline Time OpTime(size_t i) { return 1.0 + 3.0 * static_cast<double>(i); }

/// Schemas of the two source relations.
squirrel::Schema RSchema();
squirrel::Schema SSchema();

/// The view query an op submits (queries only).
squirrel::ViewQuery QueryOf(const Op& op);
/// The full export query `T`.
squirrel::ViewQuery ExportQuery();

/// The single-atom MultiDelta an update op commits.
squirrel::MultiDelta DeltaOf(const Op& op);

/// The Figure 1 VDP and the workload's annotation.
squirrel::Vdp Figure1();
squirrel::Annotation AnnotationFor(const WorkloadSpec& spec,
                                   const squirrel::Vdp& vdp);

/// Declares R on \p db1 and S on \p db2 and commits the seed rows at time 0.
void SeedSources(const Stream& stream, squirrel::SourceDb* db1,
                 squirrel::SourceDb* db2);

/// A deployed Figure 1 system: two sources, the event loop, a mediator
/// with MVCC reads and durability over an in-memory log.
struct Deployment {
  std::unique_ptr<squirrel::Scheduler> scheduler;
  std::unique_ptr<squirrel::SourceDb> db1, db2;
  std::unique_ptr<squirrel::MemLogDevice> log;
  std::unique_ptr<squirrel::Mediator> mediator;
};

/// Comm / poll-processing delays of both sources (those of E18).
constexpr Time kCommDelay = 0.5;
constexpr Time kQueryProcDelay = 0.2;

/// The options a production deployment sets; everything else stays at its
/// default.
squirrel::MediatorOptions DeploymentOptions(squirrel::LogDevice* log);

/// Seeds both sources, then Mediator::Create + Start.
std::unique_ptr<Deployment> Deploy(const WorkloadSpec& spec,
                                   const Stream& stream);

/// Sorted rendering of a relation's rows, for exact comparisons.
std::string RowsOf(const squirrel::Relation& rel);

/// Deterministic work counters of one pass over the stream. The traced
/// replay must reproduce them exactly.
struct Counts {
  uint64_t polls = 0;
  uint64_t polled_tuples = 0;
  uint64_t atoms_in = 0;
  uint64_t atoms_propagated = 0;
  uint64_t rules_fired = 0;
  uint64_t temps_built = 0;
  uint64_t wal_records = 0;
  uint64_t checkpoints = 0;
  uint64_t wal_bytes = 0;

  bool operator==(const Counts&) const = default;
  std::string ToString() const;
};

/// Wall-clock samples and counters of one untraced round: a fresh
/// deployment driven through the whole stream, then the gates.
struct RoundResult {
  double setup_s = 0;
  std::vector<double> recovery_s;  ///< one per timed Crash() + Recover() cycle
  std::vector<double> op_ms;       ///< wall time of each timed op, in order
  std::vector<char> checkpointed;  ///< per timed op: its commit checkpointed
  std::array<uint64_t, kOpKinds> timed_ops{};  ///< per OpKind
  uint64_t ops_ok = 0;                         ///< timed ops completed OK
  uint64_t timed_updates = 0;
  Counts counts;                 ///< over the whole stream
  uint64_t timed_wal_bytes = 0;  ///< bytes_logged over the timed ops
  Time freshness_lag_max = 0;
  uint64_t source_rows_read = 0;  ///< initial load + every poll answer
  uint64_t final_r = 0, final_s = 0;
  std::string final_export;       ///< RowsOf(final T answer)
  std::vector<std::string> gate_failures;
};

/// Timed Crash() + Recover() cycles per round.
constexpr int kRecoveryCycles = 3;

/// One untraced round, op by op: the constructor deploys (timed as
/// setup_s), Step(i) drives op i closed-loop — it starts once op i-1 has
/// drained from the scheduler — and Finish() runs the gates. Between ops
/// it lets \p host probe, and Finish() scales the round's wall times to
/// reference speed; with \p host null they stay raw.
class DeployedRun {
 public:
  DeployedRun(const WorkloadSpec& spec, const Stream& stream, HostSpeed* host);
  DeployedRun(const DeployedRun&) = delete;
  DeployedRun& operator=(const DeployedRun&) = delete;

  /// Runs op \p i.
  void Step(size_t i);
  /// Counters, crash/recover and the correctness gates; call once, after
  /// every op has run.
  RoundResult Finish();

 private:
  // Commits \p op's atom at \p t and drains the event loop; \p ms gets the
  // wall time from the source commit to the drained loop. True iff the
  // update committed exactly one mediator transaction and left the queue
  // empty.
  bool CommitUpdate(Time t, const Op& op, double* ms);
  // Counts a failed op; Finish() turns the count into a gate failure.
  void OpFailed(const std::string& which, OpKind kind);

  void Tick() {
    if (host_ != nullptr) host_->Tick();
  }

  const Stream& stream_;
  HostSpeed* host_;
  RoundResult r_;
  std::unique_ptr<Deployment> d_;
  Time source_commit_at_ = 0;  // of the update in flight
  uint64_t wal_bytes_at_timed_start_ = 0;
  uint64_t failed_ops_ = 0;
  std::string first_failure_;
  // When each timed sample of r_ started, for the host-speed scaling.
  double setup_at_ = 0;
  std::vector<double> op_at_, recovery_at_;
};

/// Raw wall seconds of one more set-up (Deploy), discarded afterwards;
/// \p at gets its start time.
double TimeSetup(const WorkloadSpec& spec, const Stream& stream, double* at);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_H_
