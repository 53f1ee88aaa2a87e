#include "relational/parser.h"

#include <cctype>
#include <cstdlib>
#include <vector>

#include "common/strings.h"

namespace squirrel {
namespace {

enum class TokKind {
  kIdent,
  kInt,
  kDouble,
  kString,
  kSymbol,  // ( ) [ ] , = != <> < <= > >= + - * /
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // identifier / symbol text
  int64_t int_val = 0;
  double dbl_val = 0.0;
  size_t pos = 0;  // offset in input, for error messages
};

/// Case-insensitive keyword match against an identifier token.
bool IsKeyword(const Token& t, std::string_view kw) {
  if (t.kind != TokKind::kIdent || t.text.size() != kw.size()) return false;
  for (size_t i = 0; i < kw.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(t.text[i])) !=
        std::tolower(static_cast<unsigned char>(kw[i]))) {
      return false;
    }
  }
  return true;
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      Token t;
      t.pos = i;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '_')) {
          ++j;
        }
        t.kind = TokKind::kIdent;
        t.text = std::string(text_.substr(i, j - i));
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' && i + 1 < text_.size() &&
                  std::isdigit(static_cast<unsigned char>(text_[i + 1])))) {
        size_t j = i;
        bool is_double = false;
        while (j < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '.')) {
          if (text_[j] == '.') is_double = true;
          ++j;
        }
        // Optional exponent ("1e+20", "2.5E-7"): the form exact double
        // literals of IN lists take.
        if (j < text_.size() && (text_[j] == 'e' || text_[j] == 'E')) {
          size_t k = j + 1;
          if (k < text_.size() && (text_[k] == '+' || text_[k] == '-')) ++k;
          if (k < text_.size() &&
              std::isdigit(static_cast<unsigned char>(text_[k]))) {
            is_double = true;
            j = k;
            while (j < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[j]))) {
              ++j;
            }
          }
        }
        std::string num(text_.substr(i, j - i));
        t.text = num;
        if (is_double) {
          t.kind = TokKind::kDouble;
          t.dbl_val = std::strtod(num.c_str(), nullptr);
        } else {
          t.kind = TokKind::kInt;
          t.int_val = std::strtoll(num.c_str(), nullptr, 10);
        }
        i = j;
      } else if (c == '\'') {
        size_t j = i + 1;
        std::string s;
        for (;;) {
          while (j < text_.size() && text_[j] != '\'') {
            s += text_[j];
            ++j;
          }
          // A doubled quote inside a literal stands for one quote.
          if (j + 1 >= text_.size() || text_[j + 1] != '\'') break;
          s += '\'';
          j += 2;
        }
        if (j >= text_.size()) {
          return Status::InvalidArgument("unterminated string literal at " +
                                         std::to_string(i));
        }
        t.kind = TokKind::kString;
        t.text = std::move(s);
        i = j + 1;
      } else {
        // Multi-char symbols first.
        auto two = text_.substr(i, 2);
        if (two == "!=" || two == "<>" || two == "<=" || two == ">=") {
          t.kind = TokKind::kSymbol;
          t.text = two == "<>" ? "!=" : std::string(two);
          i += 2;
        } else if (std::string_view("()[],=<>+-*/").find(c) !=
                   std::string_view::npos) {
          t.kind = TokKind::kSymbol;
          t.text = std::string(1, c);
          i += 1;
        } else {
          return Status::InvalidArgument(
              std::string("unexpected character '") + c + "' at offset " +
              std::to_string(i));
        }
      }
      out.push_back(std::move(t));
    }
    Token end;
    end.kind = TokKind::kEnd;
    end.pos = text_.size();
    out.push_back(end);
    return out;
  }

 private:
  std::string_view text_;
};

/// Recursive-descent parser over a token stream; parses both the predicate
/// grammar and the algebra grammar.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<Expr::Ptr> ParsePredicateAll() {
    SQ_ASSIGN_OR_RETURN(Expr::Ptr e, ParseOr());
    SQ_RETURN_IF_ERROR(ExpectEnd());
    return e;
  }

  Result<AlgebraExpr::Ptr> ParseAlgebraAll() {
    SQ_ASSIGN_OR_RETURN(AlgebraExpr::Ptr e, ParseSetOp());
    SQ_RETURN_IF_ERROR(ExpectEnd());
    return e;
  }

 private:
  const Token& Peek() const { return toks_[pos_]; }
  Token Take() { return toks_[pos_++]; }
  bool AtSymbol(std::string_view s) const {
    return Peek().kind == TokKind::kSymbol && Peek().text == s;
  }
  bool TakeSymbol(std::string_view s) {
    if (!AtSymbol(s)) return false;
    ++pos_;
    return true;
  }
  bool TakeKeyword(std::string_view kw) {
    if (!IsKeyword(Peek(), kw)) return false;
    ++pos_;
    return true;
  }
  Status Err(const std::string& what) const {
    return Status::InvalidArgument(what + " at offset " +
                                   std::to_string(Peek().pos));
  }
  Status ExpectSymbol(std::string_view s) {
    if (!TakeSymbol(s)) return Err("expected '" + std::string(s) + "'");
    return Status::OK();
  }
  Status ExpectEnd() {
    if (Peek().kind != TokKind::kEnd) return Err("trailing input");
    return Status::OK();
  }

  // ---- predicate grammar ----

  Result<Expr::Ptr> ParseOr() {
    SQ_ASSIGN_OR_RETURN(Expr::Ptr left, ParseAnd());
    while (TakeKeyword("or")) {
      SQ_ASSIGN_OR_RETURN(Expr::Ptr right, ParseAnd());
      left = Expr::Binary(BinOp::kOr, left, right);
    }
    return left;
  }

  Result<Expr::Ptr> ParseAnd() {
    SQ_ASSIGN_OR_RETURN(Expr::Ptr left, ParseNot());
    while (TakeKeyword("and")) {
      SQ_ASSIGN_OR_RETURN(Expr::Ptr right, ParseNot());
      left = Expr::Binary(BinOp::kAnd, left, right);
    }
    return left;
  }

  Result<Expr::Ptr> ParseNot() {
    if (TakeKeyword("not")) {
      SQ_ASSIGN_OR_RETURN(Expr::Ptr e, ParseNot());
      return Expr::Not(e);
    }
    return ParseComparison();
  }

  Result<Expr::Ptr> ParseComparison() {
    SQ_ASSIGN_OR_RETURN(Expr::Ptr left, ParseAdd());
    if (TakeKeyword("in")) {
      if (left->kind() != Expr::Kind::kAttr) {
        return Err("IN needs an attribute on its left");
      }
      SQ_ASSIGN_OR_RETURN(std::vector<Value> values, ParseInList());
      return Expr::In(left->attr_name(), std::move(values));
    }
    static const struct {
      const char* sym;
      BinOp op;
    } kCmps[] = {{"=", BinOp::kEq},  {"!=", BinOp::kNe}, {"<=", BinOp::kLe},
                 {"<", BinOp::kLt},  {">=", BinOp::kGe}, {">", BinOp::kGt}};
    for (const auto& c : kCmps) {
      if (TakeSymbol(c.sym)) {
        SQ_ASSIGN_OR_RETURN(Expr::Ptr right, ParseAdd());
        return Expr::Binary(c.op, left, right);
      }
    }
    return left;
  }

  /// "(" [literal {"," literal}] ")": the member list of an IN predicate.
  Result<std::vector<Value>> ParseInList() {
    SQ_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<Value> values;
    if (TakeSymbol(")")) return values;
    do {
      SQ_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      values.push_back(std::move(v));
    } while (TakeSymbol(","));
    SQ_RETURN_IF_ERROR(ExpectSymbol(")"));
    return values;
  }

  /// An optionally signed number, a string, or NULL. The sign is folded
  /// into the literal text, so INT64_MIN and -0.0 read back exactly.
  Result<Value> ParseLiteral() {
    bool negative = TakeSymbol("-");
    const Token& t = Peek();
    if (t.kind == TokKind::kInt || t.kind == TokKind::kDouble) {
      std::string text = (negative ? "-" : "") + t.text;
      bool is_int = t.kind == TokKind::kInt;
      Take();
      if (is_int) {
        return Value(
            static_cast<int64_t>(std::strtoll(text.c_str(), nullptr, 10)));
      }
      return Value(std::strtod(text.c_str(), nullptr));
    }
    if (!negative && t.kind == TokKind::kString) return Value(Take().text);
    if (!negative && IsKeyword(t, "null")) {
      Take();
      return Value();
    }
    return Err("expected a literal");
  }

  Result<Expr::Ptr> ParseAdd() {
    SQ_ASSIGN_OR_RETURN(Expr::Ptr left, ParseMul());
    for (;;) {
      if (TakeSymbol("+")) {
        SQ_ASSIGN_OR_RETURN(Expr::Ptr right, ParseMul());
        left = Expr::Binary(BinOp::kAdd, left, right);
      } else if (TakeSymbol("-")) {
        SQ_ASSIGN_OR_RETURN(Expr::Ptr right, ParseMul());
        left = Expr::Binary(BinOp::kSub, left, right);
      } else {
        return left;
      }
    }
  }

  Result<Expr::Ptr> ParseMul() {
    SQ_ASSIGN_OR_RETURN(Expr::Ptr left, ParseUnary());
    for (;;) {
      if (TakeSymbol("*")) {
        SQ_ASSIGN_OR_RETURN(Expr::Ptr right, ParseUnary());
        left = Expr::Binary(BinOp::kMul, left, right);
      } else if (TakeSymbol("/")) {
        SQ_ASSIGN_OR_RETURN(Expr::Ptr right, ParseUnary());
        left = Expr::Binary(BinOp::kDiv, left, right);
      } else {
        return left;
      }
    }
  }

  Result<Expr::Ptr> ParseUnary() {
    if (TakeSymbol("-")) {
      SQ_ASSIGN_OR_RETURN(Expr::Ptr e, ParseUnary());
      return Expr::Unary(UnOp::kNeg, e);
    }
    return ParsePrimary();
  }

  Result<Expr::Ptr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokKind::kInt: {
        int64_t v = Take().int_val;
        return Expr::Const(Value(v));
      }
      case TokKind::kDouble: {
        double v = Take().dbl_val;
        return Expr::Const(Value(v));
      }
      case TokKind::kString: {
        std::string v = Take().text;
        return Expr::Const(Value(std::move(v)));
      }
      case TokKind::kIdent: {
        if (IsKeyword(t, "null")) {
          Take();
          return Expr::Const(Value());
        }
        return Expr::Attr(Take().text);
      }
      case TokKind::kSymbol:
        if (TakeSymbol("(")) {
          SQ_ASSIGN_OR_RETURN(Expr::Ptr e, ParseOr());
          SQ_RETURN_IF_ERROR(ExpectSymbol(")"));
          return e;
        }
        return Err("unexpected symbol '" + t.text + "'");
      case TokKind::kEnd:
        return Err("unexpected end of input");
    }
    return Err("unexpected token");
  }

  // ---- algebra grammar ----

  Result<AlgebraExpr::Ptr> ParseSetOp() {
    SQ_ASSIGN_OR_RETURN(AlgebraExpr::Ptr left, ParseJoin());
    for (;;) {
      if (TakeKeyword("union")) {
        SQ_ASSIGN_OR_RETURN(AlgebraExpr::Ptr right, ParseJoin());
        left = AlgebraExpr::Union(left, right);
      } else if (TakeKeyword("diff") || TakeKeyword("minus")) {
        SQ_ASSIGN_OR_RETURN(AlgebraExpr::Ptr right, ParseJoin());
        left = AlgebraExpr::Diff(left, right);
      } else {
        return left;
      }
    }
  }

  Result<AlgebraExpr::Ptr> ParseJoin() {
    SQ_ASSIGN_OR_RETURN(AlgebraExpr::Ptr left, ParseAlgPrimary());
    while (TakeKeyword("join")) {
      Expr::Ptr cond = Expr::True();
      if (TakeSymbol("[")) {
        SQ_ASSIGN_OR_RETURN(cond, ParseOr());
        SQ_RETURN_IF_ERROR(ExpectSymbol("]"));
      }
      SQ_ASSIGN_OR_RETURN(AlgebraExpr::Ptr right, ParseAlgPrimary());
      left = AlgebraExpr::Join(cond, left, right);
    }
    return left;
  }

  Result<AlgebraExpr::Ptr> ParseAlgPrimary() {
    const Token& t = Peek();
    if (IsKeyword(t, "project")) {
      Take();
      SQ_RETURN_IF_ERROR(ExpectSymbol("["));
      std::vector<std::string> attrs;
      for (;;) {
        if (Peek().kind != TokKind::kIdent) return Err("expected attribute");
        attrs.push_back(Take().text);
        if (!TakeSymbol(",")) break;
      }
      SQ_RETURN_IF_ERROR(ExpectSymbol("]"));
      SQ_RETURN_IF_ERROR(ExpectSymbol("("));
      SQ_ASSIGN_OR_RETURN(AlgebraExpr::Ptr child, ParseSetOp());
      SQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      return AlgebraExpr::Project(std::move(attrs), child);
    }
    if (IsKeyword(t, "select")) {
      Take();
      SQ_RETURN_IF_ERROR(ExpectSymbol("["));
      SQ_ASSIGN_OR_RETURN(Expr::Ptr cond, ParseOr());
      SQ_RETURN_IF_ERROR(ExpectSymbol("]"));
      SQ_RETURN_IF_ERROR(ExpectSymbol("("));
      SQ_ASSIGN_OR_RETURN(AlgebraExpr::Ptr child, ParseSetOp());
      SQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      return AlgebraExpr::Select(cond, child);
    }
    if (t.kind == TokKind::kIdent) {
      return AlgebraExpr::Scan(Take().text);
    }
    if (TakeSymbol("(")) {
      SQ_ASSIGN_OR_RETURN(AlgebraExpr::Ptr e, ParseSetOp());
      SQ_RETURN_IF_ERROR(ExpectSymbol(")"));
      return e;
    }
    return Err("expected relation, select, project, or '('");
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
};

}  // namespace

Result<Expr::Ptr> ParsePredicate(std::string_view text) {
  SQ_ASSIGN_OR_RETURN(std::vector<Token> toks, Lexer(text).Tokenize());
  return Parser(std::move(toks)).ParsePredicateAll();
}

Result<AlgebraExpr::Ptr> ParseAlgebra(std::string_view text) {
  SQ_ASSIGN_OR_RETURN(std::vector<Token> toks, Lexer(text).Tokenize());
  return Parser(std::move(toks)).ParseAlgebraAll();
}

Result<SchemaDecl> ParseSchemaDecl(std::string_view text) {
  SQ_ASSIGN_OR_RETURN(std::vector<Token> toks, Lexer(text).Tokenize());
  size_t pos = 0;
  auto take = [&]() -> const Token& { return toks[pos++]; };
  auto peek = [&]() -> const Token& { return toks[pos]; };
  auto expect_sym = [&](std::string_view s) -> Status {
    if (peek().kind == TokKind::kSymbol && peek().text == s) {
      ++pos;
      return Status::OK();
    }
    return Status::InvalidArgument("expected '" + std::string(s) +
                                   "' in schema declaration");
  };

  if (peek().kind != TokKind::kIdent) {
    return Status::InvalidArgument("expected relation name");
  }
  SchemaDecl decl;
  decl.name = take().text;
  SQ_RETURN_IF_ERROR(expect_sym("("));

  std::vector<Attribute> attrs;
  for (;;) {
    if (peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected attribute name");
    }
    Attribute a;
    a.name = take().text;
    a.type = ValueType::kInt;
    // Optional ":type" — the lexer has no ':' symbol, so accept the form
    // "name type" too? No: require types via suffix identifiers "int" etc.
    // after the name, e.g. "note string". Simpler and unambiguous: a second
    // identifier before ',' or ')' is the type name.
    if (peek().kind == TokKind::kIdent) {
      const Token& ty = take();
      if (IsKeyword(ty, "int")) {
        a.type = ValueType::kInt;
      } else if (IsKeyword(ty, "double")) {
        a.type = ValueType::kDouble;
      } else if (IsKeyword(ty, "string")) {
        a.type = ValueType::kString;
      } else {
        return Status::InvalidArgument("unknown attribute type: " + ty.text);
      }
    }
    attrs.push_back(std::move(a));
    if (peek().kind == TokKind::kSymbol && peek().text == ",") {
      ++pos;
      continue;
    }
    break;
  }
  SQ_RETURN_IF_ERROR(expect_sym(")"));

  std::vector<std::string> key;
  if (pos < toks.size() && IsKeyword(peek(), "key")) {
    ++pos;
    SQ_RETURN_IF_ERROR(expect_sym("("));
    for (;;) {
      if (peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected key attribute name");
      }
      key.push_back(take().text);
      if (peek().kind == TokKind::kSymbol && peek().text == ",") {
        ++pos;
        continue;
      }
      break;
    }
    SQ_RETURN_IF_ERROR(expect_sym(")"));
  }
  if (peek().kind != TokKind::kEnd) {
    return Status::InvalidArgument("trailing input in schema declaration");
  }
  decl.schema = Schema(std::move(attrs), std::move(key));
  SQ_RETURN_IF_ERROR(decl.schema.Validate());
  return decl;
}

}  // namespace squirrel
