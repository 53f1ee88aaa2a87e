#include "bench_util.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

namespace squirrel {
namespace bench {

void Fig1System::Seed(int r_rows, int s_rows) {
  MultiDelta mr;
  Schema r_schema = SchemaOf("R(r1, r2, r3, r4) key(r1)");
  for (int i = 0; i < r_rows; ++i) {
    int64_t key = next_r_key++;
    int64_t join = rng.UniformInt(0, std::max(1, s_rows - 1)) * 100;
    int64_t r4 = rng.Bernoulli(0.6) ? 100 : 7;
    Tuple t({key, join, rng.UniformInt(0, 1000), r4});
    if (r4 == 100) live_r.push_back(t);
    Check(mr.Mutable("R", r_schema)->AddInsert(t), "seed R");
  }
  Check(db1->Commit(0, mr), "commit R seed");

  MultiDelta ms;
  Schema s_schema = SchemaOf("S(s1, s2, s3) key(s1)");
  for (int i = 0; i < s_rows; ++i) {
    Tuple t({int64_t{i} * 100, rng.UniformInt(0, 50),
             rng.UniformInt(0, 99)});
    live_s.push_back(t);
    Check(ms.Mutable("S", s_schema)->AddInsert(t), "seed S");
  }
  Check(db2->Commit(0, ms), "commit S seed");
}

void Fig1System::InsertR(Time now) {
  Schema r_schema = SchemaOf("R(r1, r2, r3, r4) key(r1)");
  int64_t key = next_r_key++;
  int64_t join = live_s.empty()
                     ? 0
                     : live_s[rng.Uniform(live_s.size())].at(0).AsInt();
  Tuple t({key, join, rng.UniformInt(0, 1000), int64_t{100}});
  live_r.push_back(t);
  // Commit inside a simulation event so announcement send times line up
  // with the virtual clock.
  SourceDb* db = db1.get();
  Scheduler* sched = scheduler.get();
  scheduler->At(now, [db, sched, t, r_schema]() {
    MultiDelta md;
    Check(md.Mutable("R", r_schema)->AddInsert(t), "insert R");
    Check(db->Commit(sched->Now(), md), "commit R");
  });
}

void Fig1System::DeleteR(Time now) {
  if (live_r.empty()) return;
  Schema r_schema = SchemaOf("R(r1, r2, r3, r4) key(r1)");
  size_t idx = rng.Uniform(live_r.size());
  Tuple t = live_r[idx];
  live_r.erase(live_r.begin() + idx);
  SourceDb* db = db1.get();
  Scheduler* sched = scheduler.get();
  scheduler->At(now, [db, sched, t, r_schema]() {
    MultiDelta md;
    Check(md.Mutable("R", r_schema)->AddDelete(t), "delete R");
    Check(db->Commit(sched->Now(), md), "commit R delete");
  });
}

void Fig1System::InsertS(Time now) {
  Schema s_schema = SchemaOf("S(s1, s2, s3) key(s1)");
  Tuple t({int64_t{100000} + static_cast<int64_t>(live_s.size()) * 100,
           rng.UniformInt(0, 50), rng.UniformInt(0, 49)});
  live_s.push_back(t);
  SourceDb* db = db2.get();
  Scheduler* sched = scheduler.get();
  scheduler->At(now, [db, sched, t, s_schema]() {
    MultiDelta md;
    Check(md.Mutable("S", s_schema)->AddInsert(t), "insert S");
    Check(db->Commit(sched->Now(), md), "commit S");
  });
}

Fig1System MakeFig1System(const Annotation& ann, MediatorOptions options,
                          Time comm, Time q_proc, Time announce) {
  Fig1System sys;
  sys.db1 = std::make_unique<SourceDb>("DB1");
  sys.db2 = std::make_unique<SourceDb>("DB2");
  Check(sys.db1->AddRelation("R", SchemaOf("R(r1, r2, r3, r4) key(r1)")),
        "add R");
  Check(sys.db2->AddRelation("S", SchemaOf("S(s1, s2, s3) key(s1)")),
        "add S");
  sys.scheduler = std::make_unique<Scheduler>();
  Vdp vdp = Unwrap(BuildFigure1Vdp(), "fig1 vdp");
  std::vector<SourceSetup> setups = {
      {sys.db1.get(), comm, q_proc, announce},
      {sys.db2.get(), comm, q_proc, announce},
  };
  sys.mediator = Unwrap(Mediator::Create(vdp, ann, setups,
                                         sys.scheduler.get(), options),
                        "mediator");
  return sys;
}

namespace {
const char* kFig4Rel[] = {"A", "B", "C", "D"};
const char* kFig4Schema[] = {"A(a1, a2) key(a1)", "B(b1, b2) key(b1)",
                             "C(c1, a1) key(c1)", "D(d1, b1) key(d1)"};
}  // namespace

void Fig4System::Seed(int rows) {
  for (size_t r = 0; r < 4; ++r) {
    MultiDelta md;
    Schema schema = SchemaOf(kFig4Schema[r]);
    for (int i = 0; i < rows; ++i) {
      int64_t key = next_key++;
      int64_t second = 0;
      switch (r) {
        case 0:  // A(a1, a2): small a1 so the inequality often holds
          key = i;
          second = rng.UniformInt(-2, 3);
          break;
        case 1:  // B(b1, b2)
          key = i;
          second = rng.UniformInt(2, 12);
          break;
        case 2:  // C(c1, a1): reference A keys
          second = rng.UniformInt(0, std::max(1, rows - 1));
          break;
        case 3:  // D(d1, b1): reference B keys
          second = rng.UniformInt(0, std::max(1, rows - 1));
          break;
      }
      Check(md.Mutable(kFig4Rel[r], schema)->AddInsert(Tuple({key, second})),
            "seed fig4");
    }
    Check(dbs[r]->Commit(0, md), "commit fig4 seed");
  }
}

void Fig4System::Insert(size_t rel, Time now) {
  Schema schema = SchemaOf(kFig4Schema[rel]);
  int64_t key = 1000000 + next_key++;
  int64_t second;
  switch (rel) {
    case 0:
      // Keep a1*a1 + a2 small so new A rows actually join some B rows.
      second = -(key * key) + rng.UniformInt(0, 100);
      break;
    case 1:
      second = rng.UniformInt(2, 12);
      break;
    default:
      second = rng.UniformInt(0, 63);
      break;
  }
  SourceDb* db = dbs[rel].get();
  Scheduler* sched = scheduler.get();
  std::string rel_name = kFig4Rel[rel];
  scheduler->At(now, [db, sched, schema, rel_name, key, second]() {
    MultiDelta md;
    Check(md.Mutable(rel_name, schema)->AddInsert(Tuple({key, second})),
          "insert fig4");
    Check(db->Commit(sched->Now(), md), "commit fig4");
  });
}

Fig4System MakeFig4System(const Annotation& ann, MediatorOptions options,
                          Time comm, Time q_proc) {
  Fig4System sys;
  const char* names[] = {"DBA", "DBB", "DBC", "DBD"};
  for (size_t i = 0; i < 4; ++i) {
    sys.dbs.push_back(std::make_unique<SourceDb>(names[i]));
    Check(sys.dbs[i]->AddRelation(kFig4Rel[i], SchemaOf(kFig4Schema[i])),
          "add fig4 rel");
  }
  sys.scheduler = std::make_unique<Scheduler>();
  Vdp vdp = Unwrap(BuildFigure4Vdp(), "fig4 vdp");
  std::vector<SourceSetup> setups;
  for (auto& db : sys.dbs) setups.push_back({db.get(), comm, q_proc, 0.0});
  sys.mediator = Unwrap(
      Mediator::Create(vdp, ann, setups, sys.scheduler.get(), options),
      "fig4 mediator");
  return sys;
}

double Percentile(std::vector<double> samples, int pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[std::min(samples.size() - 1,
                          samples.size() * static_cast<size_t>(pct) / 100)];
}

std::optional<DriverArgs> ParseDriverArgs(int argc, char** argv,
                                          const std::string& default_out) {
  DriverArgs args;
  args.out_path = default_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      args.out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return std::nullopt;
    }
  }
  return args;
}

int WriteReport(const std::string& path, const std::string& json,
                const std::vector<std::string>& required,
                const std::vector<ReportGate>& gates) {
  {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
      return 1;
    }
    out << json;
  }
  // Validate what actually reached the file, not the in-memory string.
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot reopen %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string written = buf.str();
  std::vector<std::string> keys = required;
  for (const ReportGate& gate : gates) {
    keys.push_back("\"" + std::string(gate.field) + "\"");
  }
  for (const std::string& key : keys) {
    if (written.find(key) == std::string::npos) {
      std::fprintf(stderr, "FAIL: report missing %s\n", key.c_str());
      return 1;
    }
  }
  for (const ReportGate& gate : gates) {
    const std::string falsified = "\"" + std::string(gate.field) + "\": false";
    if (written.find(falsified) != std::string::npos) {
      std::fprintf(stderr, "FAIL: %s (%s false)\n", gate.failure, gate.field);
      return 1;
    }
  }
  return 0;
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void Table::Print(const std::string& title) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::printf("\n=== %s ===\n", title.c_str());
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(widths[i]), cells[i].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::string sep;
  for (size_t i = 0; i < headers_.size(); ++i) {
    sep += std::string(widths[i], '-') + "  ";
  }
  std::printf("%s\n", sep.c_str());
  for (const auto& row : rows_) print_row(row);
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace squirrel
