// The ALGRES extended relational algebra.
//
// ALGRES supports "complex objects, extended relational operations and
// fixpoint operators" (paper Section 5). This module provides the classical
// operators (selection, projection, renaming, product, joins, set
// operations), the NF² restructuring operators (nest, unnest), value
// computation (extend, aggregate), and the *liberal* closure operator:
// a fixpoint combinator whose step function and accumulation discipline
// (inflationary vs replacement) are caller-supplied — the property the paper
// singles out as what "makes it possible to change the semantics of rules
// very easily" (Section 1).
//
// All operators are pure: they consume const relations and produce fresh
// ones. Errors (unknown columns, arity clashes, kind mismatches) surface as
// Status, never as exceptions.

#ifndef LOGRES_ALGRES_ALGEBRA_H_
#define LOGRES_ALGRES_ALGEBRA_H_

#include <functional>
#include <string>
#include <vector>

#include "algres/relation.h"
#include "util/governor.h"
#include "util/status.h"

namespace logres::algres {

/// \brief A row predicate for Select. Receives the row; column positions
/// are resolved by the caller against the input relation.
using RowPredicate = std::function<Result<bool>(const Row&)>;

/// \brief Computes a new cell from a row (for Extend).
using RowFunction = std::function<Result<Value>(const Row&)>;

// ---- Classical operators ---------------------------------------------------

/// \brief σ: rows of \p input satisfying \p pred.
Result<Relation> Select(const Relation& input, const RowPredicate& pred);

/// \brief π: keeps the named columns, in the given order; deduplicates.
Result<Relation> Project(const Relation& input,
                         const std::vector<std::string>& columns);

/// \brief ρ: renames columns pairwise (old -> new).
Result<Relation> Rename(
    const Relation& input,
    const std::vector<std::pair<std::string, std::string>>& renames);

// The joins below poll \p governor's cancellation and deadline every 1024
// output rows (when one is given), so an interrupt lands inside one large
// join instead of after it.

/// \brief ×: Cartesian product. Column names must be disjoint.
Result<Relation> Product(const Relation& left, const Relation& right,
                         const ResourceGovernor* governor = nullptr);

/// \brief ⋈: natural join on all shared column names (product if none).
Result<Relation> NaturalJoin(const Relation& left, const Relation& right,
                             const ResourceGovernor* governor = nullptr);

/// \brief Equi-join on explicit column pairs (left name, right name).
/// Right join columns are dropped from the result.
Result<Relation> EquiJoin(
    const Relation& left, const Relation& right,
    const std::vector<std::pair<std::string, std::string>>& on,
    const ResourceGovernor* governor = nullptr);

/// \brief θ-join: product filtered by a predicate over the combined row
/// (left columns first). Column names must be disjoint.
Result<Relation> ThetaJoin(const Relation& left, const Relation& right,
                           const RowPredicate& theta);

/// \brief ⋉ (semi-join): left rows with at least one natural-join partner
/// in right.
Result<Relation> SemiJoin(const Relation& left, const Relation& right);

/// \brief ▷ (anti-join): left rows with no natural-join partner in right.
Result<Relation> AntiJoin(const Relation& left, const Relation& right);

/// \brief ÷ (division): rows of \p dividend (projected on its non-divisor
/// columns) paired with *every* row of \p divisor. The divisor's columns
/// must be a proper subset of the dividend's.
Result<Relation> Divide(const Relation& dividend, const Relation& divisor);

/// \brief ∪, ∩, −: inputs must have identical column lists.
Result<Relation> Union(const Relation& left, const Relation& right);
Result<Relation> Intersect(const Relation& left, const Relation& right);
Result<Relation> Difference(const Relation& left, const Relation& right);

// ---- NF² restructuring ------------------------------------------------------

/// \brief ν (nest): groups rows by all columns except \p nested, collecting
/// the \p nested cells of each group into a set value stored in column
/// \p as (paper's data functions perform nesting this way, Example 3.2).
Result<Relation> Nest(const Relation& input,
                      const std::vector<std::string>& nested,
                      const std::string& as);

/// \brief μ (unnest): replaces the collection-valued column \p column by
/// one row per element. Tuple elements with labels are spread into columns
/// when \p spread_tuple is true; otherwise the element lands in a single
/// column named \p column.
Result<Relation> Unnest(const Relation& input, const std::string& column,
                        bool spread_tuple = false);

// ---- Computation ------------------------------------------------------------

/// \brief Adds a computed column \p name = fn(row).
Result<Relation> Extend(const Relation& input, const std::string& name,
                        const RowFunction& fn);

/// \brief Supported aggregate functions over a column.
enum class AggregateKind { kCount, kSum, kMin, kMax, kAvg };

/// \brief Groups by \p group_by and aggregates \p target into \p as.
/// kCount ignores \p target (pass any existing column or "").
Result<Relation> Aggregate(const Relation& input,
                           const std::vector<std::string>& group_by,
                           AggregateKind kind, const std::string& target,
                           const std::string& as);

// ---- The liberal closure (fixpoint) operator --------------------------------

/// \brief How the closure accumulates each step's output.
enum class ClosureSemantics {
  /// F_{i+1} = F_i ∪ step(F_i): the inflationary discipline LOGRES builds
  /// its deterministic semantics on (Appendix B).
  kInflationary,
  /// F_{i+1} = step(F_i): full replacement; the non-inflationary variant
  /// Section 3 mentions as the second language LOGRES can host.
  kReplacement,
};

struct ClosureOptions {
  ClosureSemantics semantics = ClosureSemantics::kInflationary;
  /// Abort with Status::Divergence after this many steps (0 = unbounded).
  /// Shares its default with every other fixpoint engine (governor.h).
  size_t max_steps = kDefaultMaxSteps;
};

/// \brief One step of a closure: maps the current relation to new rows.
using ClosureStep = std::function<Result<Relation>(const Relation&)>;

/// \brief Iterates \p step from \p seed until a fixpoint F_{i+1} == F_i.
///
/// With kInflationary the sequence is monotone and terminates whenever the
/// active domain is finite; with kReplacement termination is the caller's
/// problem (max_steps guards divergence, mirroring the paper's note that
/// termination "is not guaranteed, and it is not even decidable").
Result<Relation> Closure(const Relation& seed, const ClosureStep& step,
                         const ClosureOptions& options = {});

/// \brief Semi-naive transitive-closure-style iteration: \p delta_step
/// receives only the rows added in the previous round and returns candidate
/// new rows. Correct for distributive (positive, function-free) steps; used
/// by the semi-naive evaluation mode and the Datalog baseline comparisons.
Result<Relation> SemiNaiveClosure(const Relation& seed,
                                  const ClosureStep& delta_step,
                                  const ClosureOptions& options = {});

}  // namespace logres::algres

#endif  // LOGRES_ALGRES_ALGEBRA_H_
