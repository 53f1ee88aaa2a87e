#include "relational/columnar.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/cancel.h"
#include "common/strings.h"

namespace squirrel {
namespace columnar {

namespace {

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

// ---------------------------------------------------------------------------
// PackedJoinTable
// ---------------------------------------------------------------------------

namespace {

/// Normalizes \p v to the packed key encoding that reproduces Value
/// equality (see columnar.h). Strings resolve against \p arena: interned
/// when \p intern, otherwise looked up — a miss returns false (the key
/// cannot match any build row). The integral-double bounds and the one NaN
/// are Value::Hash's, so pack-equality coincides with Value equality for
/// every value the workloads produce.
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
    case ValueType::kDouble: {
      double d = v.AsDouble();
      if (std::floor(d) == d && d >= -9.2e18 && d <= 9.2e18) {
        *tag = kTagInt;
        *bits = static_cast<uint64_t>(static_cast<int64_t>(d));
        return true;
      }
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      *tag = kTagDouble;
      *bits = DoubleBits(d);
      return true;
    }
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
  size_t checked = 0;
  for (size_t r = 0; r < n; ++r) {
    SQ_RETURN_IF_ERROR(CheckCancelEvery(&checked));
    if (CellTruthy(top, batch, r)) sel.push_back(static_cast<uint32_t>(r));
  }
  return sel;
}

}  // namespace columnar
}  // namespace squirrel
