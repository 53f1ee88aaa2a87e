// The row index: which rows of a relation carry these key values?
//
// The VAP's key-based construction asks it (paper Example 2.3 and §5.3's
// heuristic: "materialize key attributes so virtual attributes of a join
// relation can be fetched efficiently from its underlying relations"), IUP
// rule firing asks it of sibling repositories so that maintenance costs
// per-delta work, not per-relation work (§6.4), and a source answers
// key-restricted polls with it.
//
// A KeyIndex copies no rows. Its entries point at the indexed relation's
// own row entries, which std::unordered_map keeps at fixed addresses across
// inserts and rehashes; a probe re-checks key equality on the row itself
// and reads the row's count from the relation. Erasing a row, or replacing
// the relation's contents, is the only change that leaves an entry
// dangling, so an indexed relation changes only through ApplyIndexed, or is
// followed by a Rebuild of every index on it.

#ifndef SQUIRREL_RELATIONAL_INDEX_H_
#define SQUIRREL_RELATIONAL_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "delta/delta.h"
#include "relational/expr.h"
#include "relational/relation.h"

namespace squirrel {

/// \brief A hash index over one Relation, keyed by a projection of its
/// attributes.
class KeyIndex {
 public:
  /// One of the indexed relation's (tuple, count) row entries.
  using Row = std::pair<const Tuple, int64_t>;

  /// Indexes every row of \p rel on \p attrs; NotFound for an attribute
  /// outside rel's schema. \p rel must stay at its address while the index
  /// lives.
  static Result<KeyIndex> Build(const Relation& rel,
                                std::vector<std::string> attrs);

  KeyIndex(KeyIndex&&) = default;
  KeyIndex& operator=(KeyIndex&&) = default;
  // A copy would be a second view of the same rows that nothing maintains.
  KeyIndex(const KeyIndex&) = delete;
  KeyIndex& operator=(const KeyIndex&) = delete;

  /// The indexed relation.
  const Relation& relation() const { return *rel_; }
  /// Indexed attribute names, in key order.
  const std::vector<std::string>& attrs() const { return attrs_; }
  /// Number of indexed rows (the relation's distinct size).
  size_t size() const { return entries_.size(); }
  /// True iff some row's key holds a NaN. Value order makes NaN equal to
  /// every number, but it hashes apart, so a probe for 5 misses a NaN row
  /// that a selection `attr = 5` keeps. Only that inconsistency in
  /// Value::Compare needs this count (ROADMAP "NaN equality"); a Compare
  /// consistent with Hash deletes it and Vap::SelectRepo's scan fallback.
  bool HasNanKey() const { return nan_keys_ > 0; }

  /// Calls fn(tuple, count) for every row whose indexed attributes equal
  /// the values of \p probe at \p key_pos (one position per attrs() entry,
  /// in key order), stopping at the first error fn returns. Equality is
  /// Value's: NULL matches NULL, 5 matches 5.0.
  template <typename Fn>
  Status ForEachMatch(const Tuple& probe, const std::vector<size_t>& key_pos,
                      Fn&& fn) const {
    auto [lo, hi] = entries_.equal_range(KeyHash(probe, key_pos));
    for (auto it = lo; it != hi; ++it) {
      const Row& row = *it->second;
      if (!KeyEquals(row.first, probe, key_pos)) continue;  // hash collision
      SQ_RETURN_IF_ERROR(fn(row.first, row.second));
    }
    return Status::OK();
  }

  /// Re-indexes every row of the relation, after its contents were replaced
  /// (its schema must not have changed).
  void Rebuild();

 private:
  friend Status ApplyIndexed(Relation* rel, const Delta& delta,
                             std::span<KeyIndex> indexes);

  KeyIndex(const Relation* rel, std::vector<std::string> attrs,
           std::vector<size_t> positions)
      : rel_(rel), attrs_(std::move(attrs)), positions_(std::move(positions)) {}

  static uint64_t KeyHash(const Tuple& t, const std::vector<size_t>& pos);
  bool KeyEquals(const Tuple& row, const Tuple& probe,
                 const std::vector<size_t>& key_pos) const;
  bool HasNan(const Tuple& row) const;
  void Add(const Row* row);
  void Remove(const Row* row);

  const Relation* rel_;
  std::vector<std::string> attrs_;
  /// Positions of attrs_ in the relation's schema.
  std::vector<size_t> positions_;
  /// Key hash -> row entry.
  std::unordered_multimap<uint64_t, const Row*> entries_;
  /// Indexed rows whose key holds a NaN.
  size_t nan_keys_ = 0;
};

/// Applies \p delta to \p rel exactly as ApplyDelta does and keeps every
/// index in \p indexes, each built on \p rel, exact: the rows the apply will
/// erase leave the indexes while their entries still exist, the apply runs,
/// and the rows it added join. Rows whose count merely changes need nothing.
/// If the apply fails (it may have stopped part-way), every index is rebuilt
/// from what the relation then holds and the failure is returned.
Status ApplyIndexed(Relation* rel, const Delta& delta,
                    std::span<KeyIndex> indexes);

/// π_attrs σ_cond of the relation \p index is built on, as a bag, read
/// through the single-attribute \p index: only the rows whose indexed
/// attribute equals a member of \p keys (distinct under Value equality) are
/// evaluated against cond. Equal to the scan when cond can hold only on
/// such rows, as under a conjunct `attr IN keys`.
Result<Relation> SelectByKeys(const KeyIndex& index,
                              const std::vector<Value>& keys,
                              const Expr::Ptr& cond,
                              const std::vector<std::string>& attrs);

/// True iff \p a and \p b name the same attributes, in any order.
bool SameAttrSet(const std::vector<std::string>& a,
                 const std::vector<std::string>& b);

}  // namespace squirrel

#endif  // SQUIRREL_RELATIONAL_INDEX_H_
