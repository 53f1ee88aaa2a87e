// Workload table and the seeded op stream.
//
// The stream is stationary: every 100-op block holds exactly the mix below,
// shuffled by the seed, and its inserts and deletes balance, so |R| and |S|
// end every block at their seeded sizes.
//   48 R updates (24 inserts, 24 deletes of a live row)
//   12 S updates ( 6 inserts,  6 deletes of a live row)
//   25 point queries  σ r1 = k (T) on a live r1
//   15 range scans    σ lo <= r1 < lo + 2% of the r1 key space (T)
// Every update passes its leaf-parent filter (r4 = 100 for R, s3 < 50 for
// S), and every R insert joins a live S' key, so it changes T.

#include <algorithm>
#include <array>
#include <cmath>

#include "driver/bench.h"
#include "relational/expr.h"
#include "relational/parser.h"
#include "vdp/paper_examples.h"

namespace perfbench {

using squirrel::Expr;
using squirrel::Value;

[[noreturn]] void Die(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "fig1_bench: %s\n", what.c_str());
  std::exit(2);
}

namespace {

// splitmix64: the stream must not change when the library's own RNG does.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0 (the modulo bias is irrelevant here).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

 private:
  uint64_t state_;
};

// Ops of one 100-op block, per OpKind.
constexpr std::array<int, kOpKinds> kBlockMix = {24, 24, 6, 6, 25, 15};

// Insert/delete pairs committed before each timed recovery cycle: 8
// commits, fewer than the 16-commit checkpoint period.
constexpr int kRecoveryPairs = 4;

const std::vector<WorkloadSpec>& Workloads(bool smoke) {
  // Full scale. Every percentile is read from one round's timed ops, so a
  // round needs at least 7 timed blocks: 105 scans put 11 samples beyond the
  // scan p90. The last field is the round's wall time on the reference VM.
  static const std::vector<WorkloadSpec> full = {
      {"fig1_hybrid_16k", true, 16000, 8000, 1, 7, 16.0},
      {"fig1_hybrid_1k", true, 1000, 500, 2, 20, 2.5},
      {"fig1_materialized_16k", false, 16000, 8000, 1, 7, 3.5},
  };
  // Smoke scale for the self-test: same code paths, tiny sources.
  static const std::vector<WorkloadSpec> smoke_scale = {
      {"fig1_hybrid_16k", true, 800, 400, 1, 8, 1.0},
      {"fig1_hybrid_1k", true, 200, 100, 1, 8, 1.0},
      {"fig1_materialized_16k", false, 800, 400, 1, 8, 1.0},
  };
  return smoke ? smoke_scale : full;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name, bool smoke) {
  for (const WorkloadSpec& w : Workloads(smoke)) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

int RoundsFor(const WorkloadSpec& spec, double seconds) {
  return std::max(1, static_cast<int>(std::ceil(seconds / spec.nominal_round_s)));
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : Workloads(false)) out.push_back(w.name);
  return out;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInsertR: return "insert_r";
    case OpKind::kDeleteR: return "delete_r";
    case OpKind::kInsertS: return "insert_s";
    case OpKind::kDeleteS: return "delete_s";
    case OpKind::kPoint: return "point_query";
    case OpKind::kScan: return "scan_query";
  }
  return "?";
}

squirrel::Schema RSchema() {
  static const squirrel::Schema s =
      Unwrap(squirrel::ParseSchemaDecl("R(r1, r2, r3, r4) key(r1)"), "R")
          .schema;
  return s;
}

squirrel::Schema SSchema() {
  static const squirrel::Schema s =
      Unwrap(squirrel::ParseSchemaDecl("S(s1, s2, s3) key(s1)"), "S").schema;
  return s;
}

Stream GenerateStream(const WorkloadSpec& spec, uint64_t seed) {
  SplitMix rng(seed * 0x2545F4914F6CDD1DULL + 0x5EED);
  Stream out;
  // Exactly half of S passes s3 < 50 and exactly 60% of R passes r4 = 100,
  // so |S'| and |R'| — and with them the polls' sizes — are the same for
  // every seed.
  auto passing = [&rng](int n, int pass) {
    std::vector<char> flags(n, 0);
    std::fill(flags.begin(), flags.begin() + pass, 1);
    for (size_t i = flags.size(); i > 1; --i) {
      std::swap(flags[i - 1], flags[rng.Below(i)]);
    }
    return flags;
  };
  // S keys are multiples of 100.
  std::vector<Tuple> live_s;  // live S rows with s3 < 50
  const std::vector<char> s_pass = passing(spec.s_rows, spec.s_rows / 2);
  for (int i = 0; i < spec.s_rows; ++i) {
    const int64_t s3 = s_pass[i] ? rng.Between(0, 49) : rng.Between(50, 99);
    Tuple t({int64_t{i} * 100, rng.Between(0, 50), s3});
    if (s_pass[i]) live_s.push_back(t);
    out.s_seed.push_back(std::move(t));
  }
  // R joins a uniformly drawn S key.
  std::vector<Tuple> live_r;  // live R rows with r4 = 100
  const std::vector<char> r_pass = passing(spec.r_rows, spec.r_rows * 6 / 10);
  for (int i = 0; i < spec.r_rows; ++i) {
    const int64_t join = rng.Between(0, spec.s_rows - 1) * 100;
    Tuple t({int64_t{i}, join, rng.Between(0, 1000), int64_t{r_pass[i] ? 100 : 7}});
    if (r_pass[i]) live_r.push_back(t);
    out.r_seed.push_back(std::move(t));
  }
  if (live_r.empty() || live_s.empty()) Die("workload too small to seed");

  int64_t next_r_key = spec.r_rows;
  int64_t next_s_key = int64_t{spec.s_rows} * 100;
  const int64_t scan_width = std::max(1, spec.r_rows / 50);
  auto take = [&rng](std::vector<Tuple>* live) {
    size_t i = rng.Below(live->size());
    Tuple t = (*live)[i];
    (*live)[i] = live->back();
    live->pop_back();
    return t;
  };

  std::vector<OpKind> block;
  for (int k = 0; k < kOpKinds; ++k) {
    block.insert(block.end(), kBlockMix[k], static_cast<OpKind>(k));
  }
  const int blocks = spec.warmup_blocks + spec.timed_blocks;
  for (int b = 0; b < blocks; ++b) {
    for (size_t i = block.size() - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(block[i], block[rng.Below(i + 1)]);
    }
    for (OpKind kind : block) {
      Op op;
      op.kind = kind;
      switch (kind) {
        case OpKind::kInsertR: {
          int64_t join = live_s[rng.Below(live_s.size())].at(0).AsInt();
          op.tuple = Tuple({next_r_key++, join, rng.Between(0, 1000),
                            int64_t{100}});
          live_r.push_back(op.tuple);
          break;
        }
        case OpKind::kDeleteR:
          op.tuple = take(&live_r);
          break;
        case OpKind::kInsertS:
          op.tuple = Tuple({next_s_key, rng.Between(0, 50),
                            rng.Between(0, 49)});
          next_s_key += 100;
          live_s.push_back(op.tuple);
          break;
        case OpKind::kDeleteS:
          op.tuple = take(&live_s);
          break;
        case OpKind::kPoint:
          op.lo = live_r[rng.Below(live_r.size())].at(0).AsInt();
          op.hi = op.lo;
          break;
        case OpKind::kScan:
          op.lo = rng.Between(0, std::max<int64_t>(0, next_r_key - scan_width));
          op.hi = op.lo + scan_width;
          break;
      }
      out.ops.push_back(std::move(op));
    }
  }
  out.warmup = static_cast<size_t>(spec.warmup_blocks) * block.size();

  // The recovery ops: fresh R' rows joining live S' keys, each inserted and
  // then deleted again.
  for (int p = 0; p < kRecoveryPairs; ++p) {
    Op op;
    op.kind = OpKind::kInsertR;
    op.tuple = Tuple({next_r_key++, live_s[rng.Below(live_s.size())].at(0).AsInt(),
                      rng.Between(0, 1000), int64_t{100}});
    out.recovery_ops.push_back(op);
  }
  for (int p = 0; p < kRecoveryPairs; ++p) {
    Op op = out.recovery_ops[p];
    op.kind = OpKind::kDeleteR;
    out.recovery_ops.push_back(std::move(op));
  }
  return out;
}

squirrel::ViewQuery QueryOf(const Op& op) {
  squirrel::ViewQuery q{"T", {}, nullptr};
  auto r1 = Expr::Attr("r1");
  if (op.kind == OpKind::kPoint) {
    q.cond = Expr::Eq(r1, Expr::Const(Value(op.lo)));
  } else {
    q.cond = Expr::And(Expr::Ge(r1, Expr::Const(Value(op.lo))),
                       Expr::Lt(r1, Expr::Const(Value(op.hi))));
  }
  return q;
}

squirrel::ViewQuery ExportQuery() { return squirrel::ViewQuery{"T", {}, nullptr}; }

squirrel::MultiDelta DeltaOf(const Op& op) {
  const bool on_r = op.kind == OpKind::kInsertR || op.kind == OpKind::kDeleteR;
  const bool insert = op.kind == OpKind::kInsertR || op.kind == OpKind::kInsertS;
  squirrel::MultiDelta md;
  squirrel::Delta* d = md.Mutable(on_r ? "R" : "S", on_r ? RSchema() : SSchema());
  Check(insert ? d->AddInsert(op.tuple) : d->AddDelete(op.tuple), "op atom");
  return md;
}

squirrel::Vdp Figure1() { return Unwrap(squirrel::BuildFigure1Vdp(), "vdp"); }

squirrel::Annotation AnnotationFor(const WorkloadSpec& spec,
                                   const squirrel::Vdp& vdp) {
  return spec.hybrid ? squirrel::AnnotationExample23(vdp)
                     : squirrel::AnnotationExample21();
}

void SeedSources(const Stream& stream, squirrel::SourceDb* db1,
                 squirrel::SourceDb* db2) {
  Check(db1->AddRelation("R", RSchema()), "declare R");
  Check(db2->AddRelation("S", SSchema()), "declare S");
  squirrel::MultiDelta mr;
  squirrel::Delta* dr = mr.Mutable("R", RSchema());
  for (const Tuple& t : stream.r_seed) Check(dr->AddInsert(t), "seed R");
  Check(db1->Commit(0, mr), "commit R seed");
  squirrel::MultiDelta ms;
  squirrel::Delta* ds = ms.Mutable("S", SSchema());
  for (const Tuple& t : stream.s_seed) Check(ds->AddInsert(t), "seed S");
  Check(db2->Commit(0, ms), "commit S seed");
}

std::string RowsOf(const squirrel::Relation& rel) {
  std::string out;
  for (const auto& [t, n] : rel.SortedRows()) {
    out += t.ToString();
    if (n != 1) {
      out += 'x';
      out += std::to_string(n);
    }
    out += ' ';
  }
  return out;
}

}  // namespace perfbench
