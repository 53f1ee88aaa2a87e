// Shared scenario builders and workload generators for the experiment
// benchmarks (see DESIGN.md §3 for the experiment index E1-E12).

#ifndef SQUIRREL_BENCH_BENCH_UTIL_H_
#define SQUIRREL_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mediator/mediator.h"
#include "relational/parser.h"
#include "source/source_db.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace bench {

/// Dies on error — benchmarks have no business continuing past one.
inline void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

inline Schema SchemaOf(const std::string& decl) {
  return Unwrap(ParseSchemaDecl(decl), "schema").schema;
}

/// The Figure 1 scenario: DB1.R(r1,r2,r3,r4), DB2.S(s1,s2,s3), export T.
struct Fig1System {
  std::unique_ptr<SourceDb> db1, db2;
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<Mediator> mediator;
  Rng rng{42};
  int64_t next_r_key = 0;
  std::vector<Tuple> live_r, live_s;

  /// Populates R with \p r_rows rows (60% passing r4=100) and S with
  /// \p s_rows rows over join keys 0..s_rows*100.
  void Seed(int r_rows, int s_rows);
  /// Commits one random R insert (always passing the r4 filter).
  void InsertR(Time now);
  /// Commits one random R delete (if any row is live).
  void DeleteR(Time now);
  /// Commits one random S insert.
  void InsertS(Time now);
};

/// Builds the Figure 1 system with the given annotation and options.
Fig1System MakeFig1System(const Annotation& ann, MediatorOptions options,
                          Time comm = 0.5, Time q_proc = 0.2,
                          Time announce = 0.0);

/// The Figure 4 scenario: A(a1,a2), B(b1,b2), C(c1,a1), D(d1,b1) across
/// four sources; exports E and G (Example 5.1).
struct Fig4System {
  std::vector<std::unique_ptr<SourceDb>> dbs;  // DBA, DBB, DBC, DBD
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<Mediator> mediator;
  Rng rng{7};
  int64_t next_key = 0;

  /// Populates every relation with \p rows keyed rows.
  void Seed(int rows);
  /// Commits a random insert into relation index 0..3 (A, B, C, D).
  void Insert(size_t rel, Time now);
};

Fig4System MakeFig4System(const Annotation& ann, MediatorOptions options,
                          Time comm = 0.5, Time q_proc = 0.2);

/// Runs events until the queue is empty (event-capped). Virtual time
/// advances only to the last event, keeping externally tracked timestamps
/// meaningful. ONLY for setups without periodic services (no announce
/// period, no update period) — those re-arm forever and would spin to the
/// cap.
inline void Drain(Scheduler* scheduler, size_t cap = 50000000) {
  scheduler->Run(cap);
}

/// Advances virtual time to exactly \p t, firing everything due. Use for
/// setups WITH periodic services; pair commits/queries scheduled at
/// absolute times with AdvanceTo of the same timeline.
inline void AdvanceTo(Scheduler* scheduler, Time t) {
  scheduler->RunUntil(t);
}

/// The \p pct-th percentile (0-100) of \p samples: the sorted sample at
/// index min(n - 1, n * pct / 100). 0 when there are no samples.
double Percentile(std::vector<double> samples, int pct);

/// Percentile(samples, 50): the upper median for an even count.
inline double MedianMs(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

// ---- standalone report drivers (E14, E17, E18) ----------------------------

/// The command line every report driver accepts: [--smoke] [--out=PATH].
struct DriverArgs {
  bool smoke = false;       ///< tiny scale for the ctest smoke run
  std::string out_path;     ///< where the JSON report goes
};

/// Parses \p argv, with \p default_out as the report path unless --out=
/// overrides it. Prints the usage line and returns nullopt on anything
/// else; the driver then exits 2.
std::optional<DriverArgs> ParseDriverArgs(int argc, char** argv,
                                          const std::string& default_out);

/// A boolean report field that must never read false, with the failure
/// printed when it does.
struct ReportGate {
  const char* field;    ///< JSON key, without quotes
  const char* failure;  ///< what went wrong, for the FAIL line
};

/// Writes \p json to \p path, reads it back, and checks it: every entry of
/// \p required (a JSON fragment such as "\"scales\"") and every gate's key
/// must occur, and no gate may read false. Returns the driver's exit code:
/// 0 when the report is complete and every gate holds, else 1 (the smoke
/// ctests rely on it).
int WriteReport(const std::string& path, const std::string& json,
                const std::vector<std::string>& required,
                const std::vector<ReportGate>& gates);

/// Fixed-width table printing for experiment outputs.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print(const std::string& title) const;

  static std::string Num(double v, int precision = 2);
  static std::string Int(int64_t v) { return std::to_string(v); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bench
}  // namespace squirrel

#endif  // SQUIRREL_BENCH_BENCH_UTIL_H_
