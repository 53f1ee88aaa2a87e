#include "relational/columnar.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/cancel.h"
#include "common/strings.h"

namespace squirrel {
namespace columnar {

namespace {

std::atomic<bool> g_enabled{true};
std::atomic<size_t> g_min_rows{32};

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double BitsDouble(uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}
size_t MinRows() { return g_min_rows.load(std::memory_order_relaxed); }
void SetMinRows(size_t rows) {
  g_min_rows.store(rows, std::memory_order_relaxed);
}

ScopedColumnarMode::ScopedColumnarMode(bool enabled, int64_t min_rows)
    : prev_enabled_(Enabled()), prev_min_rows_(MinRows()) {
  SetEnabled(enabled);
  if (min_rows >= 0) SetMinRows(static_cast<size_t>(min_rows));
}

ScopedColumnarMode::~ScopedColumnarMode() {
  SetEnabled(prev_enabled_);
  SetMinRows(prev_min_rows_);
}

// ---------------------------------------------------------------------------
// PackedJoinTable
// ---------------------------------------------------------------------------

namespace {

/// Normalizes one already-decomposed cell to the packed key encoding that
/// reproduces Value equality (see columnar.h). Strings resolve against
/// \p arena: interned when \p intern, otherwise looked up — a miss returns
/// false (the key cannot match any build row). The integral-double bounds
/// are Value::Hash's, so pack-equality coincides with the row engine's
/// hash-bucket + Compare matching for every value the workloads produce.
bool NormalizeCell(ColumnTag in_tag, uint64_t in_bits, const StringArena* src,
                   StringArena* arena, bool intern, ColumnTag* tag,
                   uint64_t* bits) {
  switch (in_tag) {
    case kTagNull:
      *tag = kTagNull;
      *bits = 0;
      return true;
    case kTagInt:
      *tag = kTagInt;
      *bits = in_bits;
      return true;
    case kTagDouble: {
      double d = BitsDouble(in_bits);
      double r = std::floor(d);
      if (r == d && d >= -9.2e18 && d <= 9.2e18) {
        *tag = kTagInt;
        *bits = static_cast<uint64_t>(static_cast<int64_t>(d));
        return true;
      }
      if (d == 0.0) d = 0.0;  // normalize -0.0
      *tag = kTagDouble;
      *bits = DoubleBits(d);
      return true;
    }
    default: {
      const std::string& s = src->Get(static_cast<uint32_t>(in_bits));
      if (intern) {
        *tag = kTagString;
        *bits = arena->Intern(s);
        return true;
      }
      auto id = arena->Find(s);
      if (!id) return false;
      *tag = kTagString;
      *bits = *id;
      return true;
    }
  }
}

bool NormalizeValue(const Value& v, StringArena* arena, bool intern,
                    ColumnTag* tag, uint64_t* bits) {
  switch (v.type()) {
    case ValueType::kNull:
      *tag = kTagNull;
      *bits = 0;
      return true;
    case ValueType::kInt:
      *tag = kTagInt;
      *bits = static_cast<uint64_t>(v.AsInt());
      return true;
    case ValueType::kDouble:
      return NormalizeCell(kTagDouble, DoubleBits(v.AsDouble()), nullptr,
                           arena, intern, tag, bits);
    case ValueType::kString: {
      if (intern) {
        *tag = kTagString;
        *bits = arena->Intern(v.AsString());
        return true;
      }
      auto id = arena->Find(v.AsString());
      if (!id) return false;
      *tag = kTagString;
      *bits = *id;
      return true;
    }
  }
  return false;
}

size_t NextPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

PackedJoinTable::PackedJoinTable(size_t key_width)
    : key_width_(key_width),
      scratch_tags_(key_width),
      scratch_bits_(key_width) {}

PackedJoinTable::~PackedJoinTable() {
  if (budget_ != nullptr) ReleaseGlobalBudget(budget_, charged_);
}

void PackedJoinTable::ChargeBytes(size_t bytes) {
  if (MemoryBudget* b = ChargeGlobalBudget(bytes)) {
    budget_ = b;
    charged_ += bytes;
  }
}

bool PackedJoinTable::PackTuple(const Tuple& t,
                                const std::vector<size_t>& key_pos,
                                bool intern) {
  for (size_t k = 0; k < key_width_; ++k) {
    if (!NormalizeValue(t.at(key_pos[k]), &arena_, intern, &scratch_tags_[k],
                        &scratch_bits_[k])) {
      return false;
    }
  }
  return true;
}

bool PackedJoinTable::PackBatch(const ColumnBatch& batch,
                                const std::vector<size_t>& cols, size_t row,
                                bool intern) {
  for (size_t k = 0; k < key_width_; ++k) {
    const Column& c = batch.column(cols[k]);
    if (!NormalizeCell(c.tags[row], c.bits[row], batch.arena(), &arena_,
                       intern, &scratch_tags_[k], &scratch_bits_[k])) {
      return false;
    }
  }
  return true;
}

uint64_t PackedJoinTable::HashKey(const ColumnTag* tags,
                                  const uint64_t* bits) const {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (size_t k = 0; k < key_width_; ++k) {
    h = HashCombine(h, tags[k]);
    h = HashCombine(h, bits[k]);
  }
  return h;
}

bool PackedJoinTable::KeyEquals(int32_t row, const ColumnTag* tags,
                                const uint64_t* bits) const {
  const size_t off = static_cast<size_t>(row) * key_width_;
  for (size_t k = 0; k < key_width_; ++k) {
    if (key_tags_[off + k] != tags[k] || key_bits_[off + k] != bits[k]) {
      return false;
    }
  }
  return true;
}

int32_t PackedJoinTable::AppendPacked() {
  int32_t id = static_cast<int32_t>(next_.size());
  key_tags_.insert(key_tags_.end(), scratch_tags_.begin(),
                   scratch_tags_.end());
  key_bits_.insert(key_bits_.end(), scratch_bits_.begin(),
                   scratch_bits_.end());
  hashes_.push_back(HashKey(scratch_tags_.data(), scratch_bits_.data()));
  next_.push_back(-1);
  // Per build row: key_width_ tag+payload cells, the hash, the chain link.
  ChargeBytes(key_width_ * (sizeof(ColumnTag) + sizeof(uint64_t)) +
              sizeof(uint64_t) + sizeof(int32_t));
  return id;
}

int32_t PackedJoinTable::AddBuildRow(const Tuple& t,
                                     const std::vector<size_t>& key_pos) {
  PackTuple(t, key_pos, /*intern=*/true);
  return AppendPacked();
}

int32_t PackedJoinTable::AddBuildBatchRow(const ColumnBatch& batch,
                                          const std::vector<size_t>& cols,
                                          size_t row) {
  PackBatch(batch, cols, row, /*intern=*/true);
  return AppendPacked();
}

void PackedJoinTable::Finalize() {
  size_t cap = NextPow2(next_.size() * 2);
  mask_ = cap - 1;
  slots_.assign(cap, -1);
  ChargeBytes(cap * sizeof(int32_t));
  for (size_t i = 0; i < next_.size(); ++i) {
    const size_t off = i * key_width_;
    size_t s = hashes_[i] & mask_;
    for (;;) {
      int32_t head = slots_[s];
      if (head < 0) {
        slots_[s] = static_cast<int32_t>(i);
        break;
      }
      if (hashes_[head] == hashes_[i] &&
          KeyEquals(head, &key_tags_[off], &key_bits_[off])) {
        // Same key: prepend to the chain (order is irrelevant, outputs go
        // into multiplicity maps).
        next_[i] = head;
        slots_[s] = static_cast<int32_t>(i);
        break;
      }
      s = (s + 1) & mask_;
    }
  }
}

int32_t PackedJoinTable::Lookup(const ColumnTag* tags,
                                const uint64_t* bits) const {
  if (next_.empty()) return -1;
  uint64_t h = HashKey(tags, bits);
  size_t s = h & mask_;
  for (;;) {
    int32_t head = slots_[s];
    if (head < 0) return -1;
    if (hashes_[head] == h && KeyEquals(head, tags, bits)) return head;
    s = (s + 1) & mask_;
  }
}

int32_t PackedJoinTable::ProbeRow(const Tuple& t,
                                  const std::vector<size_t>& key_pos) {
  if (!PackTuple(t, key_pos, /*intern=*/false)) return -1;
  return Lookup(scratch_tags_.data(), scratch_bits_.data());
}

int32_t PackedJoinTable::ProbeBatchRow(const ColumnBatch& batch,
                                       const std::vector<size_t>& cols,
                                       size_t row) {
  if (!PackBatch(batch, cols, row, /*intern=*/false)) return -1;
  return Lookup(scratch_tags_.data(), scratch_bits_.data());
}

// ---------------------------------------------------------------------------
// Vectorized predicate evaluation
// ---------------------------------------------------------------------------

namespace {

/// One slot of the column-wise evaluation stack: a broadcast constant, a
/// borrowed input column, or a computed temporary column. Temporaries never
/// hold strings (no operator produces one), so they need no arena.
struct VOp {
  enum Kind { kConst, kRef, kTemp } kind = kConst;
  Value cval;                    // kConst
  const Column* col = nullptr;   // kRef
  Column temp;                   // kTemp
  bool temp_all_int = false;     // kTemp: every cell non-null int
};

VOp MakeConst(Value v) {
  VOp op;
  op.kind = VOp::kConst;
  op.cval = std::move(v);
  return op;
}

bool AllInt(const VOp& op) {
  switch (op.kind) {
    case VOp::kConst:
      return op.cval.type() == ValueType::kInt;
    case VOp::kRef:
      return op.col->AllInt();
    case VOp::kTemp:
      return op.temp_all_int;
  }
  return false;
}

/// Int payload at row \p r; only valid when AllInt(op).
int64_t IntAt(const VOp& op, size_t r) {
  switch (op.kind) {
    case VOp::kConst:
      return op.cval.AsInt();
    case VOp::kRef:
      return static_cast<int64_t>(op.col->bits[r]);
    default:
      return static_cast<int64_t>(op.temp.bits[r]);
  }
}

/// The cell at row \p r as a Value (general path).
Value ValueOf(const VOp& op, const ColumnBatch& batch, size_t r) {
  switch (op.kind) {
    case VOp::kConst:
      return op.cval;
    case VOp::kRef: {
      const Column& c = *op.col;
      switch (c.tags[r]) {
        case kTagNull:
          return Value();
        case kTagInt:
          return Value(static_cast<int64_t>(c.bits[r]));
        case kTagDouble:
          return Value(BitsDouble(c.bits[r]));
        default:
          return Value(batch.arena()->Get(static_cast<uint32_t>(c.bits[r])));
      }
    }
    default: {
      switch (op.temp.tags[r]) {
        case kTagNull:
          return Value();
        case kTagInt:
          return Value(static_cast<int64_t>(op.temp.bits[r]));
        default:
          return Value(BitsDouble(op.temp.bits[r]));
      }
    }
  }
}

/// Writes \p v (never a string) into temp row \p r.
void WriteTemp(VOp* out, size_t r, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      out->temp.tags[r] = kTagNull;
      out->temp.bits[r] = 0;
      out->temp_all_int = false;
      break;
    case ValueType::kInt:
      out->temp.tags[r] = kTagInt;
      out->temp.bits[r] = static_cast<uint64_t>(v.AsInt());
      break;
    case ValueType::kDouble:
      out->temp.tags[r] = kTagDouble;
      out->temp.bits[r] = DoubleBits(v.AsDouble());
      out->temp_all_int = false;
      break;
    default:
      break;  // unreachable: operators never produce strings
  }
}

VOp MakeTemp(size_t n) {
  VOp out;
  out.kind = VOp::kTemp;
  out.temp.tags.resize(n);
  out.temp.bits.resize(n);
  out.temp_all_int = true;
  return out;
}

Result<VOp> ExecBinary(BinOp bop, const VOp& a, const VOp& b,
                       const ColumnBatch& batch) {
  if (a.kind == VOp::kConst && b.kind == VOp::kConst) {
    SQ_ASSIGN_OR_RETURN(Value r, EvalBinaryValue(bop, a.cval, b.cval));
    return MakeConst(std::move(r));
  }
  const size_t n = batch.rows();
  VOp out = MakeTemp(n);
  if (AllInt(a) && AllInt(b)) {
    // Tight all-int loops. Arithmetic runs on uint64 (wraparound), which
    // agrees with the scalar evaluator's int64 arithmetic everywhere the
    // latter is defined.
    switch (bop) {
      case BinOp::kAdd:
        for (size_t r = 0; r < n; ++r) {
          out.temp.tags[r] = kTagInt;
          out.temp.bits[r] = static_cast<uint64_t>(IntAt(a, r)) +
                             static_cast<uint64_t>(IntAt(b, r));
        }
        return out;
      case BinOp::kSub:
        for (size_t r = 0; r < n; ++r) {
          out.temp.tags[r] = kTagInt;
          out.temp.bits[r] = static_cast<uint64_t>(IntAt(a, r)) -
                             static_cast<uint64_t>(IntAt(b, r));
        }
        return out;
      case BinOp::kMul:
        for (size_t r = 0; r < n; ++r) {
          out.temp.tags[r] = kTagInt;
          out.temp.bits[r] = static_cast<uint64_t>(IntAt(a, r)) *
                             static_cast<uint64_t>(IntAt(b, r));
        }
        return out;
      case BinOp::kDiv:
        for (size_t r = 0; r < n; ++r) {
          int64_t y = IntAt(b, r);
          if (y == 0) {  // division by zero -> NULL, like the scalar path
            out.temp.tags[r] = kTagNull;
            out.temp.bits[r] = 0;
            out.temp_all_int = false;
          } else {
            out.temp.tags[r] = kTagInt;
            out.temp.bits[r] = static_cast<uint64_t>(IntAt(a, r) / y);
          }
        }
        return out;
      case BinOp::kEq:
      case BinOp::kNe:
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe:
        for (size_t r = 0; r < n; ++r) {
          int64_t x = IntAt(a, r), y = IntAt(b, r);
          bool keep = false;
          switch (bop) {
            case BinOp::kEq: keep = x == y; break;
            case BinOp::kNe: keep = x != y; break;
            case BinOp::kLt: keep = x < y; break;
            case BinOp::kLe: keep = x <= y; break;
            case BinOp::kGt: keep = x > y; break;
            default: keep = x >= y; break;
          }
          out.temp.tags[r] = kTagInt;
          out.temp.bits[r] = keep ? 1 : 0;
        }
        return out;
      case BinOp::kAnd:
        for (size_t r = 0; r < n; ++r) {
          out.temp.tags[r] = kTagInt;
          out.temp.bits[r] = (IntAt(a, r) != 0 && IntAt(b, r) != 0) ? 1 : 0;
        }
        return out;
      case BinOp::kOr:
        for (size_t r = 0; r < n; ++r) {
          out.temp.tags[r] = kTagInt;
          out.temp.bits[r] = (IntAt(a, r) != 0 || IntAt(b, r) != 0) ? 1 : 0;
        }
        return out;
    }
  }
  // General path: per-row scalar evaluation with the shared primitives —
  // byte-identical semantics with BoundExpr::Eval by construction.
  for (size_t r = 0; r < n; ++r) {
    SQ_ASSIGN_OR_RETURN(
        Value v, EvalBinaryValue(bop, ValueOf(a, batch, r),
                                 ValueOf(b, batch, r)));
    WriteTemp(&out, r, v);
  }
  return out;
}

Result<VOp> ExecUnary(UnOp uop, const VOp& a, const ColumnBatch& batch) {
  if (a.kind == VOp::kConst) {
    SQ_ASSIGN_OR_RETURN(Value r, EvalUnaryValue(uop, a.cval));
    return MakeConst(std::move(r));
  }
  const size_t n = batch.rows();
  VOp out = MakeTemp(n);
  if (AllInt(a)) {
    if (uop == UnOp::kNeg) {
      for (size_t r = 0; r < n; ++r) {
        out.temp.tags[r] = kTagInt;
        out.temp.bits[r] = 0u - static_cast<uint64_t>(IntAt(a, r));
      }
    } else {
      for (size_t r = 0; r < n; ++r) {
        out.temp.tags[r] = kTagInt;
        out.temp.bits[r] = IntAt(a, r) == 0 ? 1 : 0;
      }
    }
    return out;
  }
  for (size_t r = 0; r < n; ++r) {
    SQ_ASSIGN_OR_RETURN(Value v, EvalUnaryValue(uop, ValueOf(a, batch, r)));
    WriteTemp(&out, r, v);
  }
  return out;
}

/// Membership of every cell in \p list as int 1 / 0, per InList::Contains
/// (the row evaluator's kIn).
VOp ExecIn(const InList& list, const VOp& a, const ColumnBatch& batch) {
  if (a.kind == VOp::kConst) {
    return MakeConst(Value(int64_t{list.Contains(a.cval) ? 1 : 0}));
  }
  const size_t n = batch.rows();
  VOp out = MakeTemp(n);
  for (size_t r = 0; r < n; ++r) {
    out.temp.tags[r] = kTagInt;
    out.temp.bits[r] = list.Contains(ValueOf(a, batch, r)) ? 1 : 0;
  }
  return out;
}

/// Truthiness of a cell per ValueTruthy.
bool CellTruthy(const VOp& op, const ColumnBatch& batch, size_t r) {
  const Column* c = op.kind == VOp::kRef ? op.col : &op.temp;
  switch (c->tags[r]) {
    case kTagNull:
      return false;
    case kTagInt:
      return c->bits[r] != 0;
    case kTagDouble:
      return BitsDouble(c->bits[r]) != 0.0;
    default:
      return !batch.arena()->Get(static_cast<uint32_t>(c->bits[r])).empty();
  }
}

}  // namespace

Result<std::vector<uint32_t>> EvalPredicate(const BoundExpr& expr,
                                            const ColumnBatch& batch) {
  std::vector<VOp> stack;
  stack.reserve(8);
  for (const BoundExpr::Instr& in : expr.code()) {
    switch (in.op) {
      case BoundExpr::Instr::Op::kPushConst:
        stack.push_back(MakeConst(in.constant));
        break;
      case BoundExpr::Instr::Op::kPushAttr: {
        if (in.attr_index >= batch.cols()) {
          return Status::Internal("bound attribute index out of range");
        }
        VOp op;
        op.kind = VOp::kRef;
        op.col = &batch.column(in.attr_index);
        stack.push_back(std::move(op));
        break;
      }
      case BoundExpr::Instr::Op::kBinary: {
        VOp b = std::move(stack.back());
        stack.pop_back();
        VOp a = std::move(stack.back());
        stack.pop_back();
        SQ_ASSIGN_OR_RETURN(VOp r, ExecBinary(in.bin_op, a, b, batch));
        stack.push_back(std::move(r));
        break;
      }
      case BoundExpr::Instr::Op::kUnary: {
        VOp a = std::move(stack.back());
        stack.pop_back();
        SQ_ASSIGN_OR_RETURN(VOp r, ExecUnary(in.un_op, a, batch));
        stack.push_back(std::move(r));
        break;
      }
      case BoundExpr::Instr::Op::kIn:
        stack.back() = ExecIn(*in.in_list, stack.back(), batch);
        break;
    }
  }
  if (stack.size() != 1) return Status::Internal("bad expression stack");
  const VOp& top = stack.back();
  std::vector<uint32_t> sel;
  const size_t n = batch.rows();
  if (top.kind == VOp::kConst) {
    if (ValueTruthy(top.cval)) {
      sel.resize(n);
      for (size_t r = 0; r < n; ++r) sel[r] = static_cast<uint32_t>(r);
    }
    return sel;
  }
  sel.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    if ((r & (kCancelCheckRows - 1)) == 0) SQ_RETURN_IF_ERROR(CheckCancel());
    if (CellTruthy(top, batch, r)) sel.push_back(static_cast<uint32_t>(r));
  }
  return sel;
}

// ---------------------------------------------------------------------------
// Operator kernels
// ---------------------------------------------------------------------------

namespace {

/// Distinct attribute positions the program references, sorted.
std::vector<size_t> ReferencedCols(const BoundExpr& expr) {
  std::vector<size_t> out;
  for (const auto& in : expr.code()) {
    if (in.op == BoundExpr::Instr::Op::kPushAttr) {
      out.push_back(in.attr_index);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Result<Relation> Select(const Relation& in, const Expr::Ptr& cond) {
  Expr::Ptr c = cond ? cond : Expr::True();
  SQ_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(c, in.schema()));
  std::vector<size_t> needed = ReferencedCols(bound);
  ColumnBatch batch(in.schema());
  std::vector<const Tuple*> src;
  src.reserve(in.DistinctSize());
  in.ForEach([&](const Tuple& t, int64_t count) {
    batch.AppendRow(t, count, &needed);
    src.push_back(&t);
  });
  SQ_ASSIGN_OR_RETURN(std::vector<uint32_t> sel, EvalPredicate(bound, batch));
  Relation out(in.schema(), in.semantics());
  for (uint32_t r : sel) {
    SQ_RETURN_IF_ERROR(out.Insert(*src[r], batch.counts()[r]));
  }
  return out;
}

Result<Relation> Project(const Relation& in,
                         const std::vector<std::string>& attrs,
                         Semantics out_semantics) {
  SQ_ASSIGN_OR_RETURN(Schema out_schema, in.schema().Project(attrs));
  std::vector<size_t> positions;
  positions.reserve(attrs.size());
  for (const auto& a : attrs) positions.push_back(*in.schema().IndexOf(a));
  ColumnBatch batch = ColumnBatch::FromRelation(in, &positions);
  return batch.ProjectColumns(positions, std::move(out_schema))
      .ToRelation(out_semantics);
}

Result<Delta> SelectDelta(const Delta& delta, const Expr::Ptr& cond) {
  Expr::Ptr c = cond ? cond : Expr::True();
  SQ_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(c, delta.schema()));
  std::vector<size_t> needed = ReferencedCols(bound);
  ColumnBatch batch(delta.schema());
  std::vector<const Tuple*> src;
  src.reserve(delta.AtomCount());
  delta.ForEach([&](const Tuple& t, int64_t count) {
    batch.AppendRow(t, count, &needed);
    src.push_back(&t);
  });
  SQ_ASSIGN_OR_RETURN(std::vector<uint32_t> sel, EvalPredicate(bound, batch));
  Delta out(delta.schema());
  for (uint32_t r : sel) {
    SQ_RETURN_IF_ERROR(out.Add(*src[r], batch.counts()[r]));
  }
  return out;
}

Result<Delta> ProjectDelta(const Delta& delta,
                           const std::vector<std::string>& attrs) {
  SQ_ASSIGN_OR_RETURN(Schema out_schema, delta.schema().Project(attrs));
  std::vector<size_t> positions;
  positions.reserve(attrs.size());
  for (const auto& a : attrs) positions.push_back(*delta.schema().IndexOf(a));
  ColumnBatch batch = ColumnBatch::FromDelta(delta, &positions);
  return batch.ProjectColumns(positions, std::move(out_schema)).ToDelta();
}

namespace {

/// Shared core of the two join kernels: a packed-key table over the build
/// side, a tight probe loop, a vectorized residual over the gathered match
/// pairs, then emission through an \p emit callback.
struct JoinSide {
  const Schema* schema;
  std::vector<size_t> key_pos;        // equi key columns in schema order
  std::vector<size_t> batch_cols;     // key + residual columns to build
  ColumnBatch batch;
  std::vector<const Tuple*> src;
};

/// Fills \p side's batch (key + residual columns) from \p fill, which calls
/// its argument once per (tuple, count).
void FillSide(
    JoinSide* side, size_t reserve,
    const std::function<void(
        const std::function<void(const Tuple&, int64_t)>&)>& fill,
    std::shared_ptr<StringArena> arena) {
  side->batch = ColumnBatch(*side->schema, std::move(arena));
  side->src.reserve(reserve);
  fill([&](const Tuple& t, int64_t count) {
    side->batch.AppendRow(t, count, &side->batch_cols);
    side->src.push_back(&t);
  });
}

/// Column positions (within \p schema) that \p bound references on the
/// given half of the concatenated join schema, merged with \p key_pos.
std::vector<size_t> SideCols(const BoundExpr& bound, size_t offset,
                             size_t width, const std::vector<size_t>& key_pos,
                             bool has_residual) {
  std::vector<size_t> cols = key_pos;
  if (has_residual) {
    for (const auto& in : bound.code()) {
      if (in.op != BoundExpr::Instr::Op::kPushAttr) continue;
      if (in.attr_index >= offset && in.attr_index < offset + width) {
        cols.push_back(in.attr_index - offset);
      }
    }
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

struct MatchPairs {
  std::vector<uint32_t> build_rows;
  std::vector<uint32_t> probe_rows;
};

/// Builds the table over \p build, probes with \p probe, and returns the
/// matching (build row, probe row) pairs after the vectorized residual.
Result<MatchPairs> HashJoinPairs(const JoinSide& build, const JoinSide& probe,
                                 bool build_is_left, const Schema& out_schema,
                                 const BoundExpr& residual,
                                 bool has_residual) {
  PackedJoinTable table(build.key_pos.size());
  for (size_t r = 0; r < build.batch.rows(); ++r) {
    table.AddBuildBatchRow(build.batch, build.key_pos, r);
  }
  table.Finalize();
  MatchPairs pairs;
  for (size_t r = 0; r < probe.batch.rows(); ++r) {
    if ((r & (kCancelCheckRows - 1)) == 0) SQ_RETURN_IF_ERROR(CheckCancel());
    for (int32_t m = table.ProbeBatchRow(probe.batch, probe.key_pos, r);
         m >= 0; m = table.NextInChain(m)) {
      pairs.build_rows.push_back(static_cast<uint32_t>(m));
      pairs.probe_rows.push_back(static_cast<uint32_t>(r));
    }
  }
  if (!has_residual || pairs.build_rows.empty()) return pairs;

  // Vectorized residual: gather the referenced columns of the concatenated
  // schema from the two sides (they share one arena, so string ids agree).
  const JoinSide& left = build_is_left ? build : probe;
  const JoinSide& right = build_is_left ? probe : build;
  const std::vector<uint32_t>& lrows =
      build_is_left ? pairs.build_rows : pairs.probe_rows;
  const std::vector<uint32_t>& rrows =
      build_is_left ? pairs.probe_rows : pairs.build_rows;
  ColumnBatch joined(out_schema, left.batch.arena_ptr());
  joined.SetRowCount(lrows.size());
  {
    ColumnBatch lg = left.batch.GatherRows(lrows);
    ColumnBatch rg = right.batch.GatherRows(rrows);
    // Stitch the gathered columns into the concatenated layout (unbuilt
    // columns stay empty; the residual never references them).
    for (size_t c = 0; c < left.schema->size(); ++c) {
      *joined.MutableColumn(c) = std::move(*lg.MutableColumn(c));
    }
    for (size_t c = 0; c < right.schema->size(); ++c) {
      *joined.MutableColumn(left.schema->size() + c) =
          std::move(*rg.MutableColumn(c));
    }
  }
  SQ_ASSIGN_OR_RETURN(std::vector<uint32_t> keep,
                      EvalPredicate(residual, joined));
  MatchPairs filtered;
  filtered.build_rows.reserve(keep.size());
  filtered.probe_rows.reserve(keep.size());
  for (uint32_t k : keep) {
    filtered.build_rows.push_back(pairs.build_rows[k]);
    filtered.probe_rows.push_back(pairs.probe_rows[k]);
  }
  return filtered;
}

}  // namespace

Result<Relation> Join(const Relation& left, const Relation& right,
                      const Expr::Ptr& cond) {
  SQ_ASSIGN_OR_RETURN(Schema out_schema, left.schema().Concat(right.schema()));
  Expr::Ptr c = cond ? cond : Expr::True();
  JoinConditionParts parts =
      SplitJoinCondition(c, left.schema(), right.schema());
  if (parts.equi.empty()) {
    return Status::Internal("columnar join requires an equi conjunct");
  }
  BoundExpr residual;
  bool has_residual = !parts.residual->IsTrueLiteral();
  if (has_residual) {
    SQ_ASSIGN_OR_RETURN(residual, BoundExpr::Bind(parts.residual, out_schema));
  }
  // Same build-side policy as the row kernel.
  bool build_left = left.TotalSize() != right.TotalSize()
                        ? left.TotalSize() < right.TotalSize()
                        : left.DistinctSize() <= right.DistinctSize();
  JoinSide lside, rside;
  lside.schema = &left.schema();
  rside.schema = &right.schema();
  for (const auto& p : parts.equi) {
    lside.key_pos.push_back(*left.schema().IndexOf(p.left_attr));
    rside.key_pos.push_back(*right.schema().IndexOf(p.right_attr));
  }
  lside.batch_cols =
      SideCols(residual, 0, left.schema().size(), lside.key_pos, has_residual);
  rside.batch_cols = SideCols(residual, left.schema().size(),
                              right.schema().size(), rside.key_pos,
                              has_residual);
  auto arena = std::make_shared<StringArena>();
  FillSide(&lside, left.DistinctSize(),
           [&](const std::function<void(const Tuple&, int64_t)>& fn) {
             left.ForEach(fn);
           },
           arena);
  FillSide(&rside, right.DistinctSize(),
           [&](const std::function<void(const Tuple&, int64_t)>& fn) {
             right.ForEach(fn);
           },
           arena);
  const JoinSide& build = build_left ? lside : rside;
  const JoinSide& probe = build_left ? rside : lside;
  SQ_ASSIGN_OR_RETURN(
      MatchPairs pairs,
      HashJoinPairs(build, probe, build_left, out_schema, residual,
                    has_residual));
  Semantics out_sem = (left.semantics() == Semantics::kBag ||
                       right.semantics() == Semantics::kBag)
                          ? Semantics::kBag
                          : Semantics::kSet;
  Relation out(std::move(out_schema), out_sem);
  for (size_t i = 0; i < pairs.build_rows.size(); ++i) {
    if ((i & (kCancelCheckRows - 1)) == 0) SQ_RETURN_IF_ERROR(CheckCancel());
    uint32_t br = pairs.build_rows[i], pr = pairs.probe_rows[i];
    const Tuple& lt = build_left ? *build.src[br] : *probe.src[pr];
    const Tuple& rt = build_left ? *probe.src[pr] : *build.src[br];
    int64_t count = build.batch.counts()[br] * probe.batch.counts()[pr];
    SQ_RETURN_IF_ERROR(out.Insert(lt.Concat(rt), count));
  }
  return out;
}

Result<Delta> JoinDeltaRelation(const Delta& delta, const Relation& rel,
                                const Expr::Ptr& cond, bool delta_left) {
  const Schema& ls = delta_left ? delta.schema() : rel.schema();
  const Schema& rs = delta_left ? rel.schema() : delta.schema();
  SQ_ASSIGN_OR_RETURN(Schema out_schema, ls.Concat(rs));
  Expr::Ptr c = cond ? cond : Expr::True();
  JoinConditionParts parts = SplitJoinCondition(c, ls, rs);
  if (parts.equi.empty()) {
    return Status::Internal("columnar delta join requires an equi conjunct");
  }
  // Unlike OpJoin, the row kernel re-evaluates the FULL condition (equi
  // conjuncts included) on every joined tuple when it is not the literal
  // true — which drops NULL-keyed matches (NULL = NULL is not truthy).
  // Mirror that exactly.
  BoundExpr residual;
  bool has_residual = !c->IsTrueLiteral();
  if (has_residual) {
    SQ_ASSIGN_OR_RETURN(residual, BoundExpr::Bind(c, out_schema));
  }
  JoinSide dside, relside;
  dside.schema = &delta.schema();
  relside.schema = &rel.schema();
  for (const auto& p : parts.equi) {
    const std::string& in_delta = delta_left ? p.left_attr : p.right_attr;
    const std::string& in_rel = delta_left ? p.right_attr : p.left_attr;
    dside.key_pos.push_back(*delta.schema().IndexOf(in_delta));
    relside.key_pos.push_back(*rel.schema().IndexOf(in_rel));
  }
  size_t delta_off = delta_left ? 0 : rel.schema().size();
  size_t rel_off = delta_left ? delta.schema().size() : 0;
  dside.batch_cols = SideCols(residual, delta_off, delta.schema().size(),
                              dside.key_pos, has_residual);
  relside.batch_cols = SideCols(residual, rel_off, rel.schema().size(),
                                relside.key_pos, has_residual);
  auto arena = std::make_shared<StringArena>();
  FillSide(&dside, delta.AtomCount(),
           [&](const std::function<void(const Tuple&, int64_t)>& fn) {
             delta.ForEach(fn);
           },
           arena);
  FillSide(&relside, rel.DistinctSize(),
           [&](const std::function<void(const Tuple&, int64_t)>& fn) {
             rel.ForEach(fn);
           },
           arena);
  // Like the row kernel: build over the relation, probe with the delta.
  SQ_ASSIGN_OR_RETURN(
      MatchPairs pairs,
      HashJoinPairs(relside, dside, /*build_is_left=*/!delta_left, out_schema,
                    residual, has_residual));
  Delta out(std::move(out_schema));
  for (size_t i = 0; i < pairs.build_rows.size(); ++i) {
    if ((i & (kCancelCheckRows - 1)) == 0) SQ_RETURN_IF_ERROR(CheckCancel());
    const Tuple& rt = *relside.src[pairs.build_rows[i]];
    const Tuple& dt = *dside.src[pairs.probe_rows[i]];
    int64_t count = relside.batch.counts()[pairs.build_rows[i]] *
                    dside.batch.counts()[pairs.probe_rows[i]];
    SQ_RETURN_IF_ERROR(
        out.Add(delta_left ? dt.Concat(rt) : rt.Concat(dt), count));
  }
  return out;
}

Result<Delta> Between(const Relation& from, const Relation& to) {
  if (from.schema().AttributeNames() != to.schema().AttributeNames()) {
    return Status::InvalidArgument(
        "Delta::Between on relations with different schemas");
  }
  std::vector<size_t> all_pos(from.schema().size());
  for (size_t i = 0; i < all_pos.size(); ++i) all_pos[i] = i;
  PackedJoinTable table(all_pos.size());
  std::vector<const Tuple*> fsrc;
  std::vector<int64_t> fcounts;
  fsrc.reserve(from.DistinctSize());
  fcounts.reserve(from.DistinctSize());
  from.ForEach([&](const Tuple& t, int64_t count) {
    table.AddBuildRow(t, all_pos);
    fsrc.push_back(&t);
    fcounts.push_back(count);
  });
  table.Finalize();
  std::vector<char> matched(fsrc.size(), 0);
  Delta out(to.schema());
  Status st = Status::OK();
  size_t probe_row = 0;
  to.ForEach([&](const Tuple& t, int64_t count) {
    if (!st.ok()) return;
    if ((probe_row++ & (kCancelCheckRows - 1)) == 0) {
      st = CheckCancel();
      if (!st.ok()) return;
    }
    int32_t m = table.ProbeRow(t, all_pos);
    if (m < 0) {
      st = out.Add(t, count);
      return;
    }
    // Full-row keys are unique within a relation: chain length is 1.
    matched[m] = 1;
    st = out.Add(t, count - fcounts[m]);
  });
  SQ_RETURN_IF_ERROR(st);
  for (size_t i = 0; i < fsrc.size(); ++i) {
    if (!matched[i]) SQ_RETURN_IF_ERROR(out.Add(*fsrc[i], -fcounts[i]));
  }
  return out;
}

}  // namespace columnar
}  // namespace squirrel
