// Hash index over a subset of a relation's attributes.
//
// Used by the VAP's key-based construction (paper Example 2.3 and §5.3's
// heuristic: "materialize key attributes so virtual attributes of a join
// relation can be fetched efficiently from its underlying relations") and,
// since the incremental-index layer, kept resident across update batches so
// IUP rule firing probes persistent state instead of rebuilding hash tables
// per delta (cf. §6.4: incremental maintenance should cost per-delta work,
// not per-relation work).

#ifndef SQUIRREL_RELATIONAL_INDEX_H_
#define SQUIRREL_RELATIONAL_INDEX_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "delta/delta.h"
#include "relational/relation.h"

namespace squirrel {

/// \brief An in-memory hash index mapping projections of indexed attributes
/// to the full tuples carrying them (with multiplicities).
class HashIndex {
 public:
  /// Builds an index on \p rel over \p attrs. The result can be kept
  /// consistent with the relation by mirroring every ApplyDelta.
  static Result<HashIndex> Build(const Relation& rel,
                                 const std::vector<std::string>& attrs);

  /// All (tuple, count) entries whose indexed attributes equal \p key.
  const std::vector<std::pair<Tuple, int64_t>>& Probe(const Tuple& key) const;

  /// Incrementally maintains the index under \p delta, which must carry the
  /// indexed relation's schema and obey the same strict non-redundancy rule
  /// as ApplyDelta(Relation*, ...): a deletion atom must not drive any
  /// tuple's count negative.
  Status ApplyDelta(const Delta& delta);

  /// Number of distinct index keys.
  size_t KeyCount() const { return buckets_.size(); }

  /// Total number of (tuple, count) entries across all buckets.
  size_t EntryCount() const;

  /// Indexed attribute names.
  const std::vector<std::string>& attrs() const { return attrs_; }

  /// Attribute names of the indexed relation's schema (ApplyDelta deltas
  /// must match these).
  const std::vector<std::string>& relation_attrs() const {
    return rel_attrs_;
  }

 private:
  std::vector<std::string> attrs_;
  std::vector<std::string> rel_attrs_;
  /// Positions of attrs_ within the indexed relation's schema.
  std::vector<size_t> positions_;
  std::unordered_map<Tuple, std::vector<std::pair<Tuple, int64_t>>, TupleHash>
      buckets_;
  static const std::vector<std::pair<Tuple, int64_t>> kEmpty;
};

/// \brief Registry of persistent indexes keyed by node (repository) name.
///
/// The index advisor registers the attribute sets that IUP rule firing and
/// VAP key-based construction will probe; LocalStore then keeps every
/// registered index in lock-step with its repository by mirroring each
/// applied delta. Lookup is by attribute *set* (order-insensitive) so the
/// same index serves syntactically different but equivalent probe specs.
class IndexManager {
 public:
  /// Registers a desired index on \p node over \p attrs. Duplicate attr
  /// sets (in any order) collapse to one index. Returns true if this is a
  /// new spec. Registration alone does not build; call Rebuild.
  bool Register(const std::string& node, std::vector<std::string> attrs);

  /// A maintained index on \p node whose attr set equals \p attrs (as a
  /// set), or nullptr when none is built.
  const HashIndex* Find(const std::string& node,
                        const std::vector<std::string>& attrs) const;

  /// (Re)builds every registered index for \p node from \p rel.
  Status Rebuild(const std::string& node, const Relation& rel);

  /// Mirrors \p delta into every built index on \p node.
  Status ApplyDelta(const std::string& node, const Delta& delta);

  /// Registered specs per node (attr lists as registered, deduped by set).
  const std::map<std::string, std::vector<std::vector<std::string>>>& specs()
      const {
    return specs_;
  }

 private:
  std::map<std::string, std::vector<std::vector<std::string>>> specs_;
  std::map<std::string, std::vector<HashIndex>> built_;
};

}  // namespace squirrel

#endif  // SQUIRREL_RELATIONAL_INDEX_H_
