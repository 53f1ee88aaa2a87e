// Column batches: the input layout of the vectorized predicate that
// OpSelect runs (columnar.h).
//
// A ColumnBatch holds the columns a predicate references, one tag byte and
// one 64-bit payload per cell. String payloads are ids into an arena that
// interns each distinct string once, so equality over string cells is id
// equality. The arena owns its characters; nothing points back into the
// source Relation.
//
// The cell encoding mirrors Value's equality exactly (see columnar.h's
// PackedJoinTable for the join-key normalization built on top of it):
//   kNull   -> bits = 0
//   kInt    -> bits = the int64 payload
//   kDouble -> bits = the double, bit-cast
//   kString -> bits = arena id

#ifndef SQUIRREL_RELATIONAL_COLUMN_BATCH_H_
#define SQUIRREL_RELATIONAL_COLUMN_BATCH_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/memory_budget.h"
#include "relational/tuple.h"

namespace squirrel {

/// Per-cell type tag; numeric values match ValueType so conversions are
/// a static_cast.
using ColumnTag = uint8_t;
inline constexpr ColumnTag kTagNull = 0;
inline constexpr ColumnTag kTagInt = 1;
inline constexpr ColumnTag kTagDouble = 2;
inline constexpr ColumnTag kTagString = 3;

/// \brief Interning pool for string cells: each distinct string is stored
/// once and addressed by a dense uint32 id.
///
/// Storage is a deque so element addresses are stable across growth (the
/// lookup map keys are views into the stored strings).
class StringArena {
 public:
  StringArena() = default;
  /// Returns everything this arena charged against the memory budget (if
  /// accounting was on while it grew).
  ~StringArena();
  StringArena(const StringArena&) = delete;
  StringArena& operator=(const StringArena&) = delete;

  /// Id of \p s, interning it on first sight.
  uint32_t Intern(std::string_view s);

  /// Id of \p s if already interned, else nullopt (used by probe sides of
  /// joins: a probe string the build arena never saw cannot match).
  std::optional<uint32_t> Find(std::string_view s) const;

  /// The string with id \p id.
  const std::string& Get(uint32_t id) const { return strings_[id]; }

  /// Number of distinct interned strings.
  size_t size() const { return strings_.size(); }

 private:
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, uint32_t> ids_;
  // Memory-budget accounting (DESIGN.md §15): bytes charged so far and the
  // accountant they were charged to (null while accounting is off).
  MemoryBudget* budget_ = nullptr;
  size_t charged_ = 0;
};

/// \brief One column of a batch: a tag byte and a 64-bit payload per row.
struct Column {
  std::vector<ColumnTag> tags;
  std::vector<uint64_t> bits;

  /// True iff every cell is a non-null int (the vectorized fast path).
  bool AllInt() const {
    for (ColumnTag t : tags) {
      if (t != kTagInt) return false;
    }
    return true;
  }
};

/// \brief Rows decomposed into columns, built row by row with AppendRow.
///
/// Only the built columns are materialized; the others have empty vectors
/// and must not be read.
class ColumnBatch {
 public:
  /// A batch of \p num_columns columns that builds the columns \p built,
  /// with room reserved for \p rows rows.
  ColumnBatch(size_t num_columns, std::vector<size_t> built, size_t rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  /// The arena string ids index into; null until a string is appended.
  const StringArena* arena() const { return arena_.get(); }

  /// Appends \p t's built columns, interning strings.
  void AppendRow(const Tuple& t);

 private:
  std::vector<Column> columns_;     // one per attribute
  std::vector<size_t> built_;       // positions AppendRow writes
  size_t rows_ = 0;
  std::unique_ptr<StringArena> arena_;
};

}  // namespace squirrel

#endif  // SQUIRREL_RELATIONAL_COLUMN_BATCH_H_
