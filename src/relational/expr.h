// Scalar / predicate expression trees over relation attributes.
//
// Expressions cover the fragment the paper needs: attribute references,
// int/double/string constants, arithmetic (+ - * /), comparisons, and
// boolean connectives — enough to express Example 5.1's join condition
// "a1*a1 + a2 < b2*b2" and all selection conditions.
//
// Expr trees are immutable and shared. For evaluation they are *bound*
// against a schema, producing a compact stack-machine program (BoundExpr)
// with attribute names resolved to positions.

#ifndef SQUIRREL_RELATIONAL_EXPR_H_
#define SQUIRREL_RELATIONAL_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace squirrel {

/// Binary operators, grouped: arithmetic, comparison, boolean.
enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

/// Unary operators.
enum class UnOp { kNeg, kNot };

/// Token for a binary operator, e.g. "+", "<=", "AND".
const char* BinOpName(BinOp op);

/// \brief The constant list of an IN predicate.
///
/// Values are sorted by Value order, deduplicated under Value equality
/// (5 and 5.0 are one member; the int form is kept) and free of NULL and
/// NaN, so neither is ever a member. Membership is one hash probe with
/// Value::Hash and Value equality — the join kernels' key equality — so a
/// value of another type is simply not a member, never a type error.
class InList {
 public:
  explicit InList(std::vector<Value> values);

  /// The canonical member list.
  const std::vector<Value>& values() const { return values_; }
  /// True iff \p v equals a member (false for NULL and NaN).
  bool Contains(const Value& v) const;

 private:
  struct ValueHasher {
    size_t operator()(const Value& v) const {
      return static_cast<size_t>(v.Hash());
    }
  };
  std::vector<Value> values_;
  std::unordered_set<Value, ValueHasher> members_;
};

/// \brief Immutable expression tree node.
class Expr {
 public:
  using Ptr = std::shared_ptr<const Expr>;

  /// Node discriminator.
  enum class Kind { kConst, kAttr, kBinary, kUnary, kIn };

  /// Constant leaf.
  static Ptr Const(Value v);
  /// Attribute reference leaf.
  static Ptr Attr(std::string name);
  /// Binary node.
  static Ptr Binary(BinOp op, Ptr left, Ptr right);
  /// Unary node.
  static Ptr Unary(UnOp op, Ptr child);
  /// Membership predicate `attr IN (values...)`: 1 when the attribute's
  /// value is a member of the list (see InList), else 0 — including for a
  /// NULL operand. \p values need not be sorted or distinct.
  static Ptr In(std::string attr, std::vector<Value> values);

  /// The always-true predicate (integer constant 1).
  static Ptr True();

  // Convenience builders.
  static Ptr Eq(Ptr l, Ptr r) { return Binary(BinOp::kEq, l, r); }
  static Ptr Lt(Ptr l, Ptr r) { return Binary(BinOp::kLt, l, r); }
  static Ptr Le(Ptr l, Ptr r) { return Binary(BinOp::kLe, l, r); }
  static Ptr Gt(Ptr l, Ptr r) { return Binary(BinOp::kGt, l, r); }
  static Ptr Ge(Ptr l, Ptr r) { return Binary(BinOp::kGe, l, r); }
  static Ptr Ne(Ptr l, Ptr r) { return Binary(BinOp::kNe, l, r); }
  /// Conjunction; treats a null pointer on either side as "true".
  static Ptr And(Ptr l, Ptr r);
  /// Disjunction; a null pointer on either side means "true" (absorbing).
  static Ptr Or(Ptr l, Ptr r);
  static Ptr Not(Ptr e) { return Unary(UnOp::kNot, e); }

  Kind kind() const { return kind_; }
  /// Constant value; only for kConst.
  const Value& value() const { return value_; }
  /// Attribute name; only for kAttr and kIn.
  const std::string& attr_name() const { return name_; }
  /// Member list; only for kIn.
  const std::shared_ptr<const InList>& in_list() const { return in_list_; }
  /// Operator; only for kBinary.
  BinOp bin_op() const { return bin_op_; }
  /// Operator; only for kUnary.
  UnOp un_op() const { return un_op_; }
  /// Left child (kBinary) or only child (kUnary).
  const Ptr& left() const { return left_; }
  /// Right child; only for kBinary.
  const Ptr& right() const { return right_; }

  /// Adds every referenced attribute name to \p out.
  void CollectAttrs(std::set<std::string>* out) const;
  /// Referenced attribute names as a sorted vector.
  std::vector<std::string> ReferencedAttrs() const;

  /// True iff this is the literal constant 1 produced by True().
  bool IsTrueLiteral() const;

  /// Structural equality (used when merging VAP requests).
  bool Equals(const Expr& other) const;

  /// Parenthesized rendering, e.g. "((a1*a1)+(a2)) < (b2*b2)". An IN node
  /// renders as "(b IN (v1, v2))" with members in exact, type-preserving
  /// literal form (doubles keep a '.' or exponent), so ParsePredicate reads
  /// back an Equals() tree for every finite member.
  std::string ToString() const;

 private:
  Expr() = default;
  Kind kind_ = Kind::kConst;
  Value value_;
  std::string name_;
  BinOp bin_op_ = BinOp::kAdd;
  UnOp un_op_ = UnOp::kNeg;
  Ptr left_, right_;
  std::shared_ptr<const InList> in_list_;
};

/// Splits nested conjunctions into their top-level conjuncts.
std::vector<Expr::Ptr> ConjunctiveClauses(const Expr::Ptr& expr);

/// Rebuilds a conjunction from clauses (empty => True()).
Expr::Ptr AndAll(const std::vector<Expr::Ptr>& clauses);

/// An equality `left_attr = right_attr` extracted from a join condition.
struct EquiJoinPair {
  std::string left_attr;
  std::string right_attr;
};

/// Decomposes a join condition into equi-join pairs (one side referencing
/// only \p left schema attributes, the other only \p right) plus a residual
/// condition evaluated on concatenated tuples. Non-equi conditions land
/// wholly in the residual.
struct JoinConditionParts {
  std::vector<EquiJoinPair> equi;
  Expr::Ptr residual;  ///< True() when nothing remains
};
JoinConditionParts SplitJoinCondition(const Expr::Ptr& cond,
                                      const Schema& left,
                                      const Schema& right);

/// \brief An expression compiled against a schema: attribute names resolved
/// to tuple positions, tree flattened to a postfix program.
class BoundExpr {
 public:
  /// Compiles \p expr against \p schema; fails on unknown attributes.
  static Result<BoundExpr> Bind(const Expr::Ptr& expr, const Schema& schema);

  /// Evaluates on a tuple of the bound schema. Division by zero and any
  /// operation on NULL yield NULL; type mismatches are errors.
  Result<Value> Eval(const Tuple& tuple) const;

  /// Evaluates as a predicate: NULL and 0 are false, any other value true.
  /// Errors propagate.
  Result<bool> EvalBool(const Tuple& tuple) const;

  /// One stack-machine instruction. Public so the vectorized predicate
  /// can interpret the same compiled program column-wise (see columnar.h);
  /// the program layout is otherwise an implementation detail. An IN node
  /// compiles to kPushAttr followed by kIn, which replaces the top of the
  /// stack with its membership (int 1 / 0).
  struct Instr {
    enum class Op { kPushConst, kPushAttr, kBinary, kUnary, kIn } op;
    Value constant;      // kPushConst
    size_t attr_index = 0;  // kPushAttr
    BinOp bin_op = BinOp::kAdd;
    UnOp un_op = UnOp::kNeg;
    std::shared_ptr<const InList> in_list;  // kIn
  };

  /// The compiled postfix program.
  const std::vector<Instr>& code() const { return code_; }

 private:
  std::vector<Instr> code_;
};

// Scalar evaluation primitives shared between BoundExpr::Eval and the
// vectorized predicate's per-row fallback, so both apply byte-identical
// semantics (NULL propagation, division by zero -> NULL, int-exact
// arithmetic, cross-type numeric comparison).

/// Predicate truthiness: NULL and zero/empty are false.
bool ValueTruthy(const Value& v);

/// Applies a binary operator to two scalars.
Result<Value> EvalBinaryValue(BinOp op, const Value& a, const Value& b);

/// Applies a unary operator to a scalar.
Result<Value> EvalUnaryValue(UnOp op, const Value& a);

}  // namespace squirrel

#endif  // SQUIRREL_RELATIONAL_EXPR_H_
