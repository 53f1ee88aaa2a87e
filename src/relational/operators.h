// Relational operator evaluation over in-memory Relations.
//
// Semantics conventions (paper §5.1):
//  - select preserves input semantics and multiplicities;
//  - project may create duplicates, so its natural output is a bag (callers
//    may request set output, which dedupes);
//  - join multiplies multiplicities (bag output iff either input is a bag);
//  - union adds multiplicities (bag) or unions (set);
//  - difference is a *set* operator: inputs are deduplicated logically.

#ifndef SQUIRREL_RELATIONAL_OPERATORS_H_
#define SQUIRREL_RELATIONAL_OPERATORS_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "relational/algebra.h"
#include "relational/expr.h"
#include "relational/relation.h"

namespace squirrel {

/// σ_cond(in). Tuples where the condition errors propagate the error.
Result<Relation> OpSelect(const Relation& in, const Expr::Ptr& cond);

/// π_attrs(in) with the requested output semantics.
Result<Relation> OpProject(const Relation& in,
                           const std::vector<std::string>& attrs,
                           Semantics out_semantics = Semantics::kBag);

/// in1 ⋈_cond in2. Uses a hash join on the equi-conjuncts of \p cond with a
/// residual filter; falls back to a nested loop if no equi-conjunct exists.
/// Attribute names of the inputs must be disjoint.
Result<Relation> OpJoin(const Relation& left, const Relation& right,
                        const Expr::Ptr& cond);

/// left ∪ right. Schemas must have identical attribute names and types.
Result<Relation> OpUnion(const Relation& left, const Relation& right,
                         Semantics out_semantics = Semantics::kBag);

/// left − right as sets (inputs deduplicated).
Result<Relation> OpDiff(const Relation& left, const Relation& right);

/// Renames attributes via an old-name -> new-name map.
Result<Relation> OpRename(
    const Relation& in,
    const std::unordered_map<std::string, std::string>& renames);

/// \brief Name -> relation lookup used by the algebra evaluator.
class Catalog {
 public:
  /// Registers \p rel under \p name (pointer must outlive the catalog use).
  void Register(const std::string& name, const Relation* rel);
  /// Looks a relation up by name.
  Result<const Relation*> Lookup(const std::string& name) const;
  /// True iff \p name is registered.
  bool Contains(const std::string& name) const {
    return rels_.count(name) > 0;
  }

 private:
  std::unordered_map<std::string, const Relation*> rels_;
};

/// Callback resolving a base-relation name to its schema.
using SchemaLookup = std::function<Result<Schema>(const std::string&)>;

/// Infers the output schema of an algebra expression.
Result<Schema> InferSchema(const AlgebraExpr::Ptr& expr,
                           const SchemaLookup& lookup);

/// Evaluates an algebra expression against \p catalog with bag semantics
/// internally (difference nodes deduplicate their inputs). Callers wanting
/// the set-based view semantics of the paper apply Relation::ToSet() to the
/// result.
Result<Relation> EvalAlgebra(const AlgebraExpr::Ptr& expr,
                             const Catalog& catalog);

/// As EvalAlgebra, but a top-level scan returns a non-owning alias of the
/// catalog relation instead of a deep copy (interior scans are likewise
/// borrowed, so select/project-over-scan pipelines never copy the base
/// table). The alias is only valid while the catalog's relations live.
Result<std::shared_ptr<const Relation>> EvalAlgebraShared(
    const AlgebraExpr::Ptr& expr, const Catalog& catalog);

}  // namespace squirrel

#endif  // SQUIRREL_RELATIONAL_OPERATORS_H_
