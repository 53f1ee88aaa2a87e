// The two column-wise pieces of the relational engine (DESIGN.md §12):
//  - EvalPredicate, the vectorized predicate OpSelect runs: it interprets
//    the SAME BoundExpr program the scalar evaluator runs, producing a
//    selection vector; all-int operand columns take tight fused loops,
//    everything else falls back per-row to the shared scalar primitives
//    (EvalBinaryValue et al.), so it cannot diverge from BoundExpr::Eval;
//  - PackedJoinTable, the one hash table every equi join builds (OpJoin's
//    hash path and the delta join).

#ifndef SQUIRREL_RELATIONAL_COLUMNAR_H_
#define SQUIRREL_RELATIONAL_COLUMNAR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "relational/column_batch.h"
#include "relational/expr.h"
#include "relational/tuple.h"

namespace squirrel {
namespace columnar {

/// Vectorized predicate evaluation: interprets \p expr's program over
/// \p batch and returns the indices of rows where the result is truthy
/// (ValueTruthy semantics). Rows where evaluation errors propagate the
/// error, like the scalar evaluator.
Result<std::vector<uint32_t>> EvalPredicate(const BoundExpr& expr,
                                            const ColumnBatch& batch);

/// \brief Flat open-addressing hash table over packed, normalized join
/// keys. Key strings are interned once into the table's arena and probes
/// allocate nothing.
///
/// Key normalization reproduces Value equality exactly:
///   null            -> (kTagNull, 0)
///   int             -> (kTagInt, v)
///   integral double -> (kTagInt, (int64)v)   [same bounds as Value::Hash]
///   other double    -> (kTagDouble, bits; -0.0 normalized to +0.0)
///   string          -> (kTagString, arena id)
/// So NULL keys match each other; a join that must drop them re-checks its
/// condition. A probe-side string absent from the arena cannot match any
/// build key, so the probe reports "no match" without interning.
class PackedJoinTable {
 public:
  /// \p key_width: number of join-key columns.
  explicit PackedJoinTable(size_t key_width);
  /// Returns the build arrays' bytes to the memory budget (the embedded
  /// arena returns its own share).
  ~PackedJoinTable();
  PackedJoinTable(const PackedJoinTable&) = delete;
  PackedJoinTable& operator=(const PackedJoinTable&) = delete;

  /// Appends a build row whose key is \p t projected on \p key_pos.
  /// Returns the row's dense id (0-based, in insertion order).
  int32_t AddBuildRow(const Tuple& t, const std::vector<size_t>& key_pos);

  /// Builds the hash table; call once after the last AddBuildRow.
  void Finalize();

  /// First build row whose key equals \p t projected on \p key_pos, or -1.
  /// Walk duplicates with NextInChain. Non-const only because the key is
  /// packed into reusable scratch buffers; the table itself is unchanged.
  int32_t ProbeRow(const Tuple& t, const std::vector<size_t>& key_pos);

  /// Next build row with the same key, or -1.
  int32_t NextInChain(int32_t row) const { return next_[row]; }

 private:
  // Pack a key into the scratch buffers; false = a probe string was absent
  // from the arena (guaranteed miss).
  bool PackTuple(const Tuple& t, const std::vector<size_t>& key_pos,
                 bool intern);
  // Append the scratch key as a new build row; returns its id.
  int32_t AppendPacked();
  // Accounts \p bytes of build-array growth against the global budget.
  void ChargeBytes(size_t bytes);
  uint64_t HashKey(const ColumnTag* tags, const uint64_t* bits) const;
  bool KeyEquals(int32_t row, const ColumnTag* tags,
                 const uint64_t* bits) const;
  int32_t Lookup(const ColumnTag* tags, const uint64_t* bits) const;

  size_t key_width_;
  StringArena arena_;                // join-local interned key strings
  std::vector<ColumnTag> scratch_tags_;  // current key being packed
  std::vector<uint64_t> scratch_bits_;
  std::vector<ColumnTag> key_tags_;  // key_width_ per row
  std::vector<uint64_t> key_bits_;
  std::vector<uint64_t> hashes_;     // per row
  std::vector<int32_t> next_;        // per row: next row with equal key
  std::vector<int32_t> slots_;       // open addressing; -1 empty
  size_t mask_ = 0;
  // Memory-budget accounting for the build arrays (DESIGN.md §15).
  MemoryBudget* budget_ = nullptr;
  size_t charged_ = 0;
};

}  // namespace columnar
}  // namespace squirrel

#endif  // SQUIRREL_RELATIONAL_COLUMNAR_H_
