// Shared helpers for the Squirrel test suite.

#ifndef SQUIRREL_TESTS_TESTING_UTIL_H_
#define SQUIRREL_TESTS_TESTING_UTIL_H_

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/index.h"
#include "relational/parser.h"
#include "relational/relation.h"

namespace squirrel {
namespace testing {

/// Asserts a Status is OK, printing it otherwise.
#define SQ_ASSERT_OK(expr)                                \
  do {                                                    \
    ::squirrel::Status sq_st_ = (expr);                   \
    ASSERT_TRUE(sq_st_.ok()) << sq_st_.ToString();        \
  } while (0)

#define SQ_EXPECT_OK(expr)                                \
  do {                                                    \
    ::squirrel::Status sq_st_ = (expr);                   \
    EXPECT_TRUE(sq_st_.ok()) << sq_st_.ToString();        \
  } while (0)

/// Unwraps a Result<T>, asserting success.
#define SQ_ASSERT_OK_AND_ASSIGN(lhs, expr)                 \
  SQ_ASSERT_OK_AND_ASSIGN_IMPL_(                           \
      SQ_CONCAT_(sq_test_res_, __LINE__), lhs, expr)

#define SQ_ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)      \
  auto tmp = (expr);                                       \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();        \
  lhs = std::move(tmp).value()

/// Parses a schema declaration or dies.
inline Schema MakeSchema(const std::string& decl) {
  auto parsed = ParseSchemaDecl(decl);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? parsed->schema : Schema();
}

/// Builds a relation from a schema declaration and rows.
inline Relation MakeRelation(const std::string& decl,
                             const std::vector<Tuple>& rows,
                             Semantics semantics = Semantics::kSet) {
  Relation rel(MakeSchema(decl), semantics);
  for (const auto& t : rows) {
    auto st = rel.Insert(t);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return rel;
}

/// Parses a predicate or dies.
inline Expr::Ptr Pred(const std::string& text) {
  auto parsed = ParsePredicate(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : Expr::True();
}

/// Sorted-row rendering for golden comparisons.
inline std::string Rows(const Relation& rel) {
  std::string out;
  for (const auto& [tuple, count] : rel.SortedRows()) {
    out += tuple.ToString();
    if (count != 1) out += "x" + std::to_string(count);
    out += " ";
  }
  return out;
}

/// The rows \p index matches for the key tuple \p key (one value per
/// indexed attribute, in key order), rendered like Rows().
inline std::string ProbeRows(const KeyIndex& index, const Tuple& key) {
  std::vector<size_t> key_pos(key.size());
  std::iota(key_pos.begin(), key_pos.end(), size_t{0});
  Relation hits(index.relation().schema(), Semantics::kBag);
  Status st = index.ForEachMatch(
      key, key_pos,
      [&](const Tuple& row, int64_t count) { return hits.Insert(row, count); });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Rows(hits);
}

}  // namespace testing
}  // namespace squirrel

#endif  // SQUIRREL_TESTS_TESTING_UTIL_H_
