#include "relational/expr.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <new>
#include <utility>

namespace squirrel {

namespace {

bool IsNan(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.AsDouble());
}

/// Canonical member order: Value order, then int before double (so the int
/// form of an equal pair survives dedup), then -0.0 before 0.0. It totally
/// orders the representations, so the canonical list never depends on the
/// input order.
bool InMemberLess(const Value& a, const Value& b) {
  int c = a.Compare(b);
  if (c != 0) return c < 0;
  if (a.type() != b.type()) return a.type() < b.type();
  return a.type() == ValueType::kDouble && std::signbit(a.AsDouble()) &&
         !std::signbit(b.AsDouble());
}

/// Exact, type-preserving literal text of an IN member: shortest
/// round-trip doubles with a '.' or exponent kept (5.0 stays a double),
/// strings quoted with embedded quotes doubled.
std::string MemberLiteral(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(v.AsInt());
    case ValueType::kDouble: {
      char buf[64];
      auto res = std::to_chars(buf, buf + sizeof(buf), v.AsDouble());
      std::string text(buf, res.ptr);
      if (text.find_first_of(".en") == std::string::npos) text += ".0";
      return text;
    }
    case ValueType::kString: {
      std::string text = "'";
      for (char c : v.AsString()) {
        text += c;
        if (c == '\'') text += c;
      }
      return text + "'";
    }
  }
  return "?";
}

}  // namespace

InList::InList(std::vector<Value> values) : values_(std::move(values)) {
  // NULL is never a member. Neither is NaN: it has no literal text, so a
  // list holding it could not be written out and parsed back.
  values_.erase(std::remove_if(values_.begin(), values_.end(),
                               [](const Value& v) {
                                 return v.is_null() || IsNan(v);
                               }),
                values_.end());
  std::sort(values_.begin(), values_.end(), InMemberLess);
  values_.erase(std::unique(values_.begin(), values_.end()), values_.end());
  members_.insert(values_.begin(), values_.end());
}

bool InList::Contains(const Value& v) const {
  return members_.count(v) > 0;
}

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "!=";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kAnd:
      return "AND";
    case BinOp::kOr:
      return "OR";
  }
  return "?";
}

Expr::Ptr Expr::Const(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kConst;
  e->value_ = std::move(v);
  return e;
}

Expr::Ptr Expr::Attr(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kAttr;
  e->name_ = std::move(name);
  return e;
}

Expr::Ptr Expr::Binary(BinOp op, Ptr left, Ptr right) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kBinary;
  e->bin_op_ = op;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

Expr::Ptr Expr::Unary(UnOp op, Ptr child) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kUnary;
  e->un_op_ = op;
  e->left_ = std::move(child);
  return e;
}

Expr::Ptr Expr::In(std::string attr, std::vector<Value> values) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kIn;
  e->name_ = std::move(attr);
  e->in_list_ = std::make_shared<const InList>(std::move(values));
  return e;
}

Expr::Ptr Expr::True() { return Const(Value(int64_t{1})); }

Expr::Ptr Expr::And(Ptr l, Ptr r) {
  if (!l || l->IsTrueLiteral()) return r ? r : True();
  if (!r || r->IsTrueLiteral()) return l;
  return Binary(BinOp::kAnd, std::move(l), std::move(r));
}

Expr::Ptr Expr::Or(Ptr l, Ptr r) {
  if (!l || l->IsTrueLiteral()) return True();
  if (!r || r->IsTrueLiteral()) return True();
  return Binary(BinOp::kOr, std::move(l), std::move(r));
}

void Expr::CollectAttrs(std::set<std::string>* out) const {
  switch (kind_) {
    case Kind::kConst:
      return;
    case Kind::kAttr:
    case Kind::kIn:
      out->insert(name_);
      return;
    case Kind::kBinary:
      left_->CollectAttrs(out);
      right_->CollectAttrs(out);
      return;
    case Kind::kUnary:
      left_->CollectAttrs(out);
      return;
  }
}

std::vector<std::string> Expr::ReferencedAttrs() const {
  std::set<std::string> s;
  CollectAttrs(&s);
  return std::vector<std::string>(s.begin(), s.end());
}

bool Expr::IsTrueLiteral() const {
  return kind_ == Kind::kConst && value_.type() == ValueType::kInt &&
         value_.AsInt() == 1;
}

bool Expr::Equals(const Expr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kConst:
      return value_ == other.value_ && value_.type() == other.value_.type();
    case Kind::kAttr:
      return name_ == other.name_;
    case Kind::kBinary:
      return bin_op_ == other.bin_op_ && left_->Equals(*other.left_) &&
             right_->Equals(*other.right_);
    case Kind::kUnary:
      return un_op_ == other.un_op_ && left_->Equals(*other.left_);
    case Kind::kIn: {
      const auto& a = in_list_->values();
      const auto& b = other.in_list_->values();
      if (name_ != other.name_ || a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i] || a[i].type() != b[i].type()) return false;
      }
      return true;
    }
  }
  return false;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kConst:
      return value_.ToString();
    case Kind::kAttr:
      return name_;
    case Kind::kBinary:
      return "(" + left_->ToString() + " " + BinOpName(bin_op_) + " " +
             right_->ToString() + ")";
    case Kind::kUnary:
      return un_op_ == UnOp::kNeg ? "(-" + left_->ToString() + ")"
                                  : "(NOT " + left_->ToString() + ")";
    case Kind::kIn: {
      std::string out = "(" + name_ + " IN (";
      const auto& values = in_list_->values();
      for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ", ";
        out += MemberLiteral(values[i]);
      }
      return out + "))";
    }
  }
  return "?";
}

std::vector<Expr::Ptr> ConjunctiveClauses(const Expr::Ptr& expr) {
  std::vector<Expr::Ptr> out;
  if (!expr || expr->IsTrueLiteral()) return out;
  if (expr->kind() == Expr::Kind::kBinary &&
      expr->bin_op() == BinOp::kAnd) {
    auto l = ConjunctiveClauses(expr->left());
    auto r = ConjunctiveClauses(expr->right());
    out.insert(out.end(), l.begin(), l.end());
    out.insert(out.end(), r.begin(), r.end());
    return out;
  }
  out.push_back(expr);
  return out;
}

Expr::Ptr AndAll(const std::vector<Expr::Ptr>& clauses) {
  Expr::Ptr acc;
  for (const auto& c : clauses) acc = Expr::And(acc, c);
  return acc ? acc : Expr::True();
}

JoinConditionParts SplitJoinCondition(const Expr::Ptr& cond,
                                      const Schema& left,
                                      const Schema& right) {
  JoinConditionParts parts;
  std::vector<Expr::Ptr> residual;
  for (const auto& clause : ConjunctiveClauses(cond)) {
    bool handled = false;
    if (clause->kind() == Expr::Kind::kBinary &&
        clause->bin_op() == BinOp::kEq &&
        clause->left()->kind() == Expr::Kind::kAttr &&
        clause->right()->kind() == Expr::Kind::kAttr) {
      const std::string& a = clause->left()->attr_name();
      const std::string& b = clause->right()->attr_name();
      if (left.Contains(a) && right.Contains(b)) {
        parts.equi.push_back({a, b});
        handled = true;
      } else if (left.Contains(b) && right.Contains(a)) {
        parts.equi.push_back({b, a});
        handled = true;
      }
    }
    if (!handled) residual.push_back(clause);
  }
  parts.residual = AndAll(residual);
  return parts;
}

Result<BoundExpr> BoundExpr::Bind(const Expr::Ptr& expr,
                                  const Schema& schema) {
  BoundExpr bound;
  // Post-order flattening.
  Status st = Status::OK();
  std::function<void(const Expr&)> emit = [&](const Expr& e) {
    if (!st.ok()) return;
    switch (e.kind()) {
      case Expr::Kind::kConst: {
        Instr in;
        in.op = Instr::Op::kPushConst;
        in.constant = e.value();
        bound.code_.push_back(std::move(in));
        return;
      }
      case Expr::Kind::kAttr:
      case Expr::Kind::kIn: {
        auto idx = schema.IndexOf(e.attr_name());
        if (!idx) {
          st = Status::NotFound("expression references unknown attribute: " +
                                e.attr_name());
          return;
        }
        Instr in;
        in.op = Instr::Op::kPushAttr;
        in.attr_index = *idx;
        bound.code_.push_back(std::move(in));
        if (e.kind() == Expr::Kind::kIn) {
          Instr member;
          member.op = Instr::Op::kIn;
          member.in_list = e.in_list();
          bound.code_.push_back(std::move(member));
        }
        return;
      }
      case Expr::Kind::kBinary: {
        emit(*e.left());
        emit(*e.right());
        Instr in;
        in.op = Instr::Op::kBinary;
        in.bin_op = e.bin_op();
        bound.code_.push_back(std::move(in));
        return;
      }
      case Expr::Kind::kUnary: {
        emit(*e.left());
        Instr in;
        in.op = Instr::Op::kUnary;
        in.un_op = e.un_op();
        bound.code_.push_back(std::move(in));
        return;
      }
    }
  };
  if (!expr) return Status::InvalidArgument("null expression");
  emit(*expr);
  if (!st.ok()) return st;
  return bound;
}

bool ValueTruthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return v.AsInt() != 0;
    case ValueType::kDouble:
      return v.AsDouble() != 0.0;
    case ValueType::kString:
      return !v.AsString().empty();
  }
  return false;
}

Result<Value> EvalBinaryValue(BinOp op, const Value& a, const Value& b) {
  // Boolean connectives (NULL-propagating like the comparisons).
  if (op == BinOp::kAnd || op == BinOp::kOr) {
    if (a.is_null() || b.is_null()) return Value();
    bool r = op == BinOp::kAnd ? (ValueTruthy(a) && ValueTruthy(b))
                               : (ValueTruthy(a) || ValueTruthy(b));
    return Value(int64_t{r ? 1 : 0});
  }
  if (a.is_null() || b.is_null()) return Value();  // NULL propagates
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv: {
      if (!a.is_numeric() || !b.is_numeric()) {
        return Status::InvalidArgument(
            std::string("arithmetic on non-numeric values: ") + a.ToString() +
            " " + BinOpName(op) + " " + b.ToString());
      }
      bool both_int =
          a.type() == ValueType::kInt && b.type() == ValueType::kInt;
      if (both_int) {
        int64_t x = a.AsInt(), y = b.AsInt();
        switch (op) {
          case BinOp::kAdd:
            return Value(x + y);
          case BinOp::kSub:
            return Value(x - y);
          case BinOp::kMul:
            return Value(x * y);
          case BinOp::kDiv:
            if (y == 0) return Value();  // NULL on division by zero
            return Value(x / y);
          default:
            break;
        }
      }
      double x = a.AsNumeric(), y = b.AsNumeric();
      switch (op) {
        case BinOp::kAdd:
          return Value(x + y);
        case BinOp::kSub:
          return Value(x - y);
        case BinOp::kMul:
          return Value(x * y);
        case BinOp::kDiv:
          if (y == 0.0) return Value();
          return Value(x / y);
        default:
          break;
      }
      return Status::Internal("unreachable arithmetic case");
    }
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      bool comparable =
          (a.is_numeric() && b.is_numeric()) ||
          (a.type() == ValueType::kString && b.type() == ValueType::kString);
      if (!comparable) {
        return Status::InvalidArgument(
            std::string("comparison between incompatible types: ") +
            ValueTypeName(a.type()) + " vs " + ValueTypeName(b.type()));
      }
      int c = a.Compare(b);
      bool r = false;
      switch (op) {
        case BinOp::kEq:
          r = c == 0;
          break;
        case BinOp::kNe:
          r = c != 0;
          break;
        case BinOp::kLt:
          r = c < 0;
          break;
        case BinOp::kLe:
          r = c <= 0;
          break;
        case BinOp::kGt:
          r = c > 0;
          break;
        case BinOp::kGe:
          r = c >= 0;
          break;
        default:
          break;
      }
      return Value(int64_t{r ? 1 : 0});
    }
    default:
      break;
  }
  return Status::Internal("unknown binary operator");
}

Result<Value> EvalUnaryValue(UnOp op, const Value& a) {
  if (a.is_null()) return Value();
  switch (op) {
    case UnOp::kNeg:
      if (a.type() == ValueType::kInt) return Value(-a.AsInt());
      if (a.type() == ValueType::kDouble) return Value(-a.AsDouble());
      return Status::InvalidArgument("negation of non-numeric value");
    case UnOp::kNot:
      return Value(int64_t{ValueTruthy(a) ? 0 : 1});
  }
  return Status::Internal("unknown unary operator");
}

namespace {

/// BoundExpr::Eval's operand stack. A postfix program never holds more
/// values than it has instructions, so a program of up to kInlineDepth
/// instructions evaluates without touching the heap; a longer one takes
/// one heap block.
class EvalStack {
 public:
  explicit EvalStack(size_t max_depth)
      : slots_(max_depth <= kInlineDepth ? inline_ : new Slot[max_depth]) {}
  ~EvalStack() {
    while (size_ > 0) Pop();
    if (slots_ != inline_) delete[] slots_;
  }
  EvalStack(const EvalStack&) = delete;
  EvalStack& operator=(const EvalStack&) = delete;

  size_t size() const { return size_; }
  /// The value \p from_top slots below the top (0 = the top).
  Value& At(size_t from_top) { return slots_[size_ - 1 - from_top].value; }
  template <typename V>
  void Push(V&& v) {
    ::new (&slots_[size_].value) Value(std::forward<V>(v));
    ++size_;
  }
  void Pop() { slots_[--size_].value.~Value(); }

 private:
  static constexpr size_t kInlineDepth = 16;
  // Raw storage: a slot holds a live Value only below size_. A plain
  // Value array would construct and destroy every slot on every call,
  // which costs more than evaluating a short program.
  union Slot {
    Slot() {}
    ~Slot() {}
    Value value;
  };
  Slot inline_[kInlineDepth];
  Slot* slots_;
  size_t size_ = 0;
};

}  // namespace

Result<Value> BoundExpr::Eval(const Tuple& tuple) const {
  EvalStack stack(code_.size());
  for (const Instr& in : code_) {
    switch (in.op) {
      case Instr::Op::kPushConst:
        stack.Push(in.constant);
        break;
      case Instr::Op::kPushAttr:
        if (in.attr_index >= tuple.size()) {
          return Status::Internal("bound attribute index out of range");
        }
        stack.Push(tuple.at(in.attr_index));
        break;
      case Instr::Op::kBinary: {
        SQ_ASSIGN_OR_RETURN(Value r,
                            EvalBinaryValue(in.bin_op, stack.At(1),
                                            stack.At(0)));
        stack.Pop();
        stack.At(0) = std::move(r);
        break;
      }
      case Instr::Op::kUnary: {
        SQ_ASSIGN_OR_RETURN(Value r, EvalUnaryValue(in.un_op, stack.At(0)));
        stack.At(0) = std::move(r);
        break;
      }
      case Instr::Op::kIn: {
        bool member = in.in_list->Contains(stack.At(0));
        stack.At(0) = Value(int64_t{member ? 1 : 0});
        break;
      }
    }
  }
  if (stack.size() != 1) return Status::Internal("bad expression stack");
  return std::move(stack.At(0));
}

Result<bool> BoundExpr::EvalBool(const Tuple& tuple) const {
  SQ_ASSIGN_OR_RETURN(Value v, Eval(tuple));
  return ValueTruthy(v);
}

}  // namespace squirrel
